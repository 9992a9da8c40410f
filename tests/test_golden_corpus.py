"""Frozen output digests on both demos and 600 seeded clouds.

Each digest is the sha256 over one family's outputs of one kind, in cloud
order: the JSON report, the text report, the default-size SVG, and the repr
of the estimator's fitted attributes.  A call that raises contributes its
exception type and message instead.  The digests were recorded before the
kernel moved from ``Vector`` tuples to plain float lists; any change to an
output byte, a fitted attribute, or an error type or message fails here.

To see which cloud moved after a failure, print the per-cloud outputs with
``family_outputs`` on both sides and diff them.
"""

import hashlib
import math
import random

import pytest

from geomfit.cli import build_report, render_report
from geomfit.cloud import PointCloud
from geomfit.dataio import EXAMPLE_DATASETS, DatasetSpec, example_csv_text, parse
from geomfit.estimator import GeometricLinearRegression
from geomfit.regress import fit
from geomfit.svgplot import render_svg

CLOUDS_PER_FAMILY = 100
KINDS = ("json", "text", "svg", "estimator")


def _line(rng, xs, noise):
    a = rng.uniform(-10.0, 10.0)
    b = rng.uniform(-100.0, 100.0)
    return [a * x + b + rng.uniform(-noise, noise) for x in xs]


def _size(rng):
    return round(math.exp(rng.uniform(math.log(2), math.log(300))))


def _uniform(rng):
    xs = [rng.uniform(-100.0, 100.0) for _ in range(_size(rng))]
    return xs, _line(rng, xs, rng.choice((0.0, 1.0, 50.0, 1e4)))


def _integer_ties(rng):
    n = rng.randint(1, 40)
    return ([float(rng.randint(0, 4)) for _ in range(n)],
            [float(rng.randint(0, 4)) for _ in range(n)])


def _offset(rng):
    ox, oy = 10.0 ** rng.uniform(3, 9), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(3, 9)
    xs = [ox + rng.uniform(0.0, 10.0 ** rng.uniform(0, 2)) for _ in range(_size(rng))]
    return xs, [oy + y for y in _line(rng, [x - ox for x in xs], 5.0)]


def _mixed_magnitude(rng):
    sx, sy = 10.0 ** rng.uniform(-5, 5), 10.0 ** rng.uniform(-5, 5)
    xs = [sx * rng.uniform(-1.0, 1.0) for _ in range(_size(rng))]
    return xs, [sy * y for y in _line(rng, [x / sx for x in xs], 3.0)]


def _jittered(rng, n):
    """A constant column, or one whose spread is near the roundoff scale."""
    value = rng.choice((0.0, 1.0, -3.5, rng.uniform(-1e6, 1e6)))
    if rng.random() < 0.5:
        return [value] * n
    step = abs(value or 1.0) * 10.0 ** rng.uniform(-11, -6)
    return [value + rng.randint(-3, 3) * step for _ in range(n)]


def _constant_x(rng):
    n = rng.randint(2, 60)
    return _jittered(rng, n), [rng.uniform(-50.0, 50.0) for _ in range(n)]


def _constant_y(rng):
    n = rng.randint(2, 60)
    return [rng.uniform(-50.0, 50.0) for _ in range(n)], _jittered(rng, n)


FAMILIES = {
    "uniform": _uniform,
    "integer_ties": _integer_ties,
    "offset": _offset,
    "mixed_magnitude": _mixed_magnitude,
    "constant_x": _constant_x,
    "constant_y": _constant_y,
}


def _columns(family):
    if family in EXAMPLE_DATASETS:
        cloud = parse(DatasetSpec(), example_csv_text(family))
        return [(list(cloud.xs), list(cloud.ys))]
    make = FAMILIES[family]
    rng = random.Random(sorted(FAMILIES).index(family) + 8000)
    return [make(rng) for _ in range(CLOUDS_PER_FAMILY)]


def _attempt(call):
    try:
        return call()
    except Exception as exc:  # the error is the output being frozen
        return f"{type(exc).__name__}: {exc}"


def _estimator(xs, ys):
    est = GeometricLinearRegression().fit(xs, ys)
    return repr((est.slope_, est.intercept_, est.theta_deg_, est.r_,
                 est.correlation_class_, est.sse_, est.n_points_))


def _svg(cloud):
    return render_svg(cloud, fit(cloud))


def family_outputs(family):
    """{kind: [output of each cloud]} for one family."""
    out = {kind: [] for kind in KINDS}
    for xs, ys in _columns(family):
        cloud = PointCloud.from_columns(xs, ys)
        report = _attempt(lambda: build_report(cloud))
        for fmt in ("json", "text"):
            out[fmt].append(report if isinstance(report, str) else render_report(report, fmt))
        out["svg"].append(_attempt(lambda: _svg(cloud)))
        out["estimator"].append(_attempt(lambda: _estimator(xs, ys)))
    return out


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


DIGESTS = {
    'example1_amarante.csv': {
        'json': 'd27d50c52a8d47de004a8a8e0817398932ad0ef9fbac0a4d5581ac3aab2293be',
        'text': '51bca060c82cabab9120fcc4bee5a966aa647cc2f24d1545582bc30bc930bf30',
        'svg': 'f818f491c4dd5b22ab35df2c02f07532d474e94e85d0ec99e207bc072902f5ea',
        'estimator': 'aa8e4bc73292b0b8cc6ee852e271c5b75ee238d22af634162c0e10b1000149b4',
    },
    'example2_infections.csv': {
        'json': '112b4da22ecc953fd0b1c49f5dd8092b90888870636ac61058f71e1d1f363c19',
        'text': '8ba03183d2b2c4a360b087fbdc95e608fa1a38a289712b953bec554caa31186a',
        'svg': 'edfef11fa586620cb66a784d1118d32ea108923bfd3bc9f352890d40f7de1ada',
        'estimator': 'a95f05aaa4281d54b3215240fe15a447a24045b40d989a2c77204d9d02e26d55',
    },
    'uniform': {
        'json': 'a51b837f15742002bcf2f5f3e1917de036860ba3a92ade729c21cbb1a2a7f380',
        'text': '86214dfa0b2c240d4408525c10558e430ed361a1ac61d6e657d12eeab0eaaa48',
        'svg': 'dffd3f0a78abe066509c0282d29e5bae59a214304da413572279b6dfc36e9f07',
        'estimator': '28ed15f766c9a517b0dcb7a36f57e4e6927d6d1a8eb69c1952fb38ddbfb5c0d0',
    },
    'integer_ties': {
        'json': '8b4518ad48e6e418600e2a683db8652418eedfcbe8e6c2123cca306e3d612620',
        'text': 'fd476467be57cc7b593e89ca3d0cb6a61d046c0373b1abb4081c0e87a986de98',
        'svg': '5132c0695542d82dcda4c6ad65c4d2689a49e4d16d9f730957717c24b5c321b2',
        'estimator': 'bce50c8ad7f65e57e18bd5777cb925fd59752643ea9657e4ca793592c0c5ee04',
    },
    'offset': {
        'json': 'ecf2cc8412c45cd05ce070c11fda78c8d4543f78a02b4021a3b0128d8942a24c',
        'text': 'b3f8d7767d6e20b97d66de40b898344f2da72a4d89d1a84139051cf5b88b9933',
        'svg': '22d4aeb74c877c0ca0ddfcd43b95ce0e5ca507a76c32ba8cd56d79ad55a802c8',
        'estimator': '7d4473ca3781ae27c42ba28e716fd37c74bd6b0dc5b34d0b6f3a18a090fe602f',
    },
    'mixed_magnitude': {
        'json': 'c935ee799ea6d52b5bbd805493b8829d0d8beac7ab8359134bd9adf57b4d7dbe',
        'text': 'c243c9207fcce64d61fcf657ccdeeccb9da6356ef2024677e9a464305cc13dbd',
        'svg': '882300a5c5dd0058e5451be9a79bfb66d87839a804d2cace6184ddae6db1a3b9',
        'estimator': 'f942369e22fb88afd2b399489ea93f1b551047824a22d3c1c1201756f0343341',
    },
    'constant_x': {
        'json': 'd8039b21ffc6387745576fded0913b6b75d1211d05b16339d766f9504eef2888',
        'text': '1f5202bf1662e3dcf3919feb8faf56acd025c1b16cba77120d131ae89ec01746',
        'svg': '33ef039057dd0c94a23b2cc1bd0948e932c70f295b13ffd09ad296847bc53a69',
        'estimator': '677e3a6d71a94052d7292292b63fd0d267fabe195dc15c478b3e8709a0d97a6e',
    },
    'constant_y': {
        'json': 'f49e2304f5a5ac9d0989cca65df4a8d8ff25dd0987043979b26b0fa02e696de8',
        'text': 'e27d4c9ea4d930f5bb05edf11c1bfb840989039e9a4534d38a64ac151b0bd0dc',
        'svg': '4e2133db0fc0911d57ab0c92c7b17864e6bdbaffa21bfde803c9a5a1f8fa25d8',
        'estimator': 'dcb0e2bb239639a0b998236b62bda1d36b92f310bdbabc6d1bb6b020890a0c51',
    },
}


@pytest.mark.parametrize("family", [*EXAMPLE_DATASETS, *FAMILIES])
def test_outputs_match_frozen_digests(family):
    got = {kind: _digest(texts) for kind, texts in family_outputs(family).items()}
    assert got == DIGESTS[family]


def test_corpus_covers_every_path():
    """The families reach the fitted, DegenerateX, DegenerateY and TooFewPoints paths."""
    seen = set()
    for family in FAMILIES:
        for text in family_outputs(family)["json"]:
            seen.add(text.split(":")[0] if not text.startswith("{") else "fitted")
    assert {"fitted", "DegenerateX", "DegenerateY", "TooFewPoints"} <= seen
