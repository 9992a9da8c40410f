import math
import os
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import geomfit
from geomfit.cli import EXIT_OK, run
from geomfit.cloud import PointCloud
from geomfit.correlate import r_cosine
from geomfit.errors import ObjectiveOverflow
from geomfit.regress import fit, predict
from geomfit.svgplot import plot_frame, render_svg, size_ok, svg_chunks

from conftest import random_cloud

_SRC = Path(geomfit.__file__).resolve().parent.parent

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(text: str):
    return ET.fromstring(text)


def circles(root):
    return root.findall(f"{SVG_NS}circle")


def lines(root):
    return root.findall(f"{SVG_NS}line")


class TestRenderSvg:
    def test_example1_has_one_circle_per_point(self, ex1_cloud):
        f = fit(ex1_cloud)
        root = parse_svg(render_svg(ex1_cloud, f, 640, 480))
        assert len(circles(root)) == 12

    def test_line_endpoints_satisfy_fit(self, ex1_cloud):
        f = fit(ex1_cloud)
        svg = render_svg(ex1_cloud, f, 640, 480)
        root = parse_svg(svg)
        frame = plot_frame(ex1_cloud, f, 640.0, 480.0)
        # axes are black, the fitted line is not
        fitted = [el for el in lines(root) if el.get("stroke") != "black"]
        assert len(fitted) == 1
        el = fitted[0]
        for px, py in [
            (float(el.get("x1")), float(el.get("y1"))),
            (float(el.get("x2")), float(el.get("y2"))),
        ]:
            x, y = frame.to_data(px, py)
            assert y == pytest.approx(predict(f, x), abs=0.01)

    def test_line_clipped_to_padded_x_range(self, ex1_cloud):
        f = fit(ex1_cloud)
        frame = plot_frame(ex1_cloud, f, 640.0, 480.0)
        x_min, x_max = min(ex1_cloud.xs), max(ex1_cloud.xs)
        pad = 0.05 * (x_max - x_min)
        assert frame.x_lo == pytest.approx(x_min - pad)
        assert frame.x_hi == pytest.approx(x_max + pad)

    def test_two_point_cloud_circles_on_line(self):
        cloud = PointCloud.from_pairs([(0, 1), (2, 5)])
        f = fit(cloud)
        svg = render_svg(cloud, f, 400, 300)
        root = parse_svg(svg)
        fitted = [el for el in lines(root) if el.get("stroke") != "black"]
        (el,) = fitted
        x1, y1 = float(el.get("x1")), float(el.get("y1"))
        x2, y2 = float(el.get("x2")), float(el.get("y2"))
        for c in circles(root):
            cx, cy = float(c.get("cx")), float(c.get("cy"))
            # perpendicular pixel distance from the circle center to the line
            num = abs((y2 - y1) * cx - (x2 - x1) * cy + x2 * y1 - y2 * x1)
            den = math.hypot(y2 - y1, x2 - x1)
            assert num / den <= 0.5

    def test_deterministic_output(self, ex1_cloud):
        f = fit(ex1_cloud)
        assert render_svg(ex1_cloud, f, 640, 480) == render_svg(ex1_cloud, f, 640, 480)

    def test_min_size_enforced(self, ex1_cloud):
        f = fit(ex1_cloud)
        with pytest.raises(ValueError):
            render_svg(ex1_cloud, f, 99, 480)
        with pytest.raises(ValueError):
            render_svg(ex1_cloud, f, 640, 50)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 99, 10**400],
                             ids=["nan", "inf", "-inf", "99", "10**400"])
    @pytest.mark.parametrize("axis", ["width", "height"])
    def test_size_outside_range_rejected(self, ex1_cloud, bad, axis):
        f = fit(ex1_cloud)
        sizes = {"width": 640, "height": 480, axis: bad}
        assert not size_ok(bad)
        for entry_point in (render_svg, plot_frame):
            with pytest.raises(ValueError, match="between"):
                entry_point(ex1_cloud, f, sizes["width"], sizes["height"])

    def test_tick_labels_present(self, ex1_cloud):
        f = fit(ex1_cloud)
        root = parse_svg(render_svg(ex1_cloud, f, 640, 480))
        labels = [el.text for el in root.findall(f"{SVG_NS}text")]
        assert "11.3" in labels and "22.5" in labels  # x min/max
        assert "4" in labels and "122" in labels      # y min/max

    @pytest.mark.parametrize("n", [12, 5000])  # one block of circles, or two
    def test_float64_array_cloud_renders_as_its_lists(self, ex1_cloud, n):
        np = pytest.importorskip("numpy")
        lists = ex1_cloud if n == 12 else random_cloud(random.Random(21), n)
        arrays = PointCloud(np.array(lists.xs), np.array(lists.ys))
        assert render_svg(arrays, fit(arrays)) == render_svg(lists, fit(lists))
        assert plot_frame(arrays, fit(arrays), 640, 480) == plot_frame(lists, fit(lists), 640, 480)

    def test_frame_round_trip(self, ex1_cloud):
        f = fit(ex1_cloud)
        frame = plot_frame(ex1_cloud, f, 640.0, 480.0)
        for x, y in zip(ex1_cloud.xs, ex1_cloud.ys):
            px, py = frame.to_px(x, y)
            bx, by = frame.to_data(px, py)
            assert bx == pytest.approx(x, rel=1e-9, abs=1e-9)
            assert by == pytest.approx(y, rel=1e-9, abs=1e-9)


def reference_svg(cloud, f, width=640, height=480):
    """One ``%`` per point through ``PlotFrame.to_px``: the renderer's spec."""
    frame = plot_frame(cloud, f, float(width), float(height))
    ox, oy = 55.0, float(height) - 35.0
    line = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="%s" stroke-width="%s"/>'
    tick = '<text x="%.3f" y="%.3f" font-size="11" text-anchor="%s">%.6g</text>'
    circle = '<circle cx="%.3f" cy="%.3f" r="3.0" fill="steelblue" fill-opacity="0.8"/>'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        line % (ox, oy, float(width) - 15.0, oy, "black", "1"),
        line % (ox, oy, ox, 15.0, "black", "1"),
    ]
    for xv in (min(cloud.xs), max(cloud.xs)):
        parts.append(tick % (frame.to_px(xv, frame.y_lo)[0], oy + 18.0, "middle", xv))
    for yv in (min(cloud.ys), max(cloud.ys)):
        parts.append(tick % (ox - 6.0, frame.to_px(frame.x_lo, yv)[1] + 4.0, "end", yv))
    ends = [frame.to_px(x, predict(f, x)) for x in (frame.x_lo, frame.x_hi)]
    parts.append(line % (*ends[0], *ends[1], "crimson", "1.5"))
    parts.extend(circle % frame.to_px(x, y) for x, y in zip(cloud.xs, cloud.ys))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def seam_cloud(n, case):
    """TestBlockSeams' cloud and canvas size for ``n`` points and ``case``."""
    rng = random.Random(n)
    xs = [rng.uniform(-50.0, -1.0) for _ in range(n)]
    ys = [-0.7 * x + rng.gauss(0.0, 5.0) - 100.0 for x in xs]
    size = (640, 480)
    if case == "offset_1e6":
        xs, ys = [x + 1e6 for x in xs], [y + 1e6 for y in ys]
    elif case == "canvas_333x222":
        size = (333, 222)
    return PointCloud(xs, ys), size


class TestBlockSeams:
    """Clouds on either side of the 4,096-circle blocks, byte for byte."""

    @pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 8192, 8193, 3 * 4096 + 17])
    @pytest.mark.parametrize("case", ["negative", "offset_1e6", "canvas_333x222"])
    def test_matches_per_point_reference(self, n, case):
        rng = random.Random(n)
        xs = [rng.uniform(-50.0, -1.0) for _ in range(n)]
        ys = [-0.7 * x + rng.gauss(0.0, 5.0) - 100.0 for x in xs]
        size = (640, 480)
        if case == "offset_1e6":
            xs, ys = [x + 1e6 for x in xs], [y + 1e6 for y in ys]
        elif case == "canvas_333x222":
            size = (333, 222)
        cloud = PointCloud(xs, ys)
        f = fit(cloud)
        svg = render_svg(cloud, f, *size)
        assert svg == reference_svg(cloud, f, *size)
        assert svg.count("<circle ") == n

    @pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 8192, 8193, 3 * 4096 + 17])
    @pytest.mark.parametrize("case", ["negative", "offset_1e6", "canvas_333x222"])
    def test_chunks_join_to_per_point_reference(self, n, case):
        cloud, size = seam_cloud(n, case)
        f = fit(cloud)
        chunks = list(svg_chunks(cloud, f, *size))
        assert "".join(chunks) == reference_svg(cloud, f, *size)
        # The head, one chunk per block of 4,096 circles, then the closing tag.
        assert [c.count("<circle ") for c in chunks] == (
            [0] + [min(4096, n - lo) for lo in range(0, n, 4096)] + [0])
        assert chunks[-1] == "</svg>\n"
        assert all(c.endswith("\n") for c in chunks)


class TestStreamedPlot:
    """``plot`` writes ``svg_chunks`` as they come: same bytes, bounded memory."""

    @pytest.mark.parametrize("n", [4096, 3 * 4096 + 17])
    def test_cli_file_and_stdout_bytes_match_reference(self, tmp_path, n):
        cloud, _ = seam_cloud(n, "offset_1e6")
        expected = reference_svg(cloud, fit(cloud)).encode("utf-8")
        csv, out = tmp_path / "cloud.csv", tmp_path / "cloud.svg"
        rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(cloud.xs, cloud.ys))
        csv.write_text("x,y\n" + rows, encoding="utf-8")
        assert run(["plot", "--input", str(csv), "--output", str(out)]) == EXIT_OK
        assert out.read_bytes() == expected
        proc = subprocess.run([sys.executable, "-m", "geomfit", "plot", "--input", str(csv)],
                              capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(_SRC)})
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout == expected

    @pytest.mark.parametrize("size", [(99, 480), (640, math.nan)], ids=["99", "nan"])
    def test_bad_size_raises_on_the_call(self, ex1_cloud, size):
        # No next(): a generator function would not raise until its first chunk.
        with pytest.raises(ValueError):
            svg_chunks(ex1_cloud, fit(ex1_cloud), *size)

    def test_overflowing_y_range_raises_on_the_call(self):
        cloud = PointCloud([0.0, 1.0], [-8.9e307, 8.9e307])
        with pytest.raises(ObjectiveOverflow):
            svg_chunks(cloud, fit(cloud))

    def test_memory_is_bounded_by_a_block(self):
        def peak(n):
            rng = random.Random(n)
            xs = [rng.uniform(0.0, 100.0) for _ in range(n)]
            cloud = PointCloud(xs, [0.5 * x + rng.gauss(0.0, 3.0) for x in xs])
            f = fit(cloud)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                for _ in svg_chunks(cloud, f):
                    pass  # each chunk is dropped, as the CLI drops it once written
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A whole document of 40,000 circles is 3.2 MB; a block and its columns are not.
        assert peak(40_000) < 2_000_000
        assert peak(80_000) < 1.25 * peak(20_000)


def test_tick_labels_are_data_extrema_when_line_leaves_y_range():
    # A weak slope pinned by one high-leverage point: the fitted line runs
    # past the data's max y at the padded right end, so the frame's y range
    # is wider than the data's.
    rng = random.Random(12)
    xs = [rng.uniform(0.0, 0.05) for _ in range(200)] + [1.0]
    ys = [rng.uniform(-1.0, 0.5) for _ in range(200)] + [0.9]
    cloud = PointCloud(xs, ys)
    f = fit(cloud)
    frame = plot_frame(cloud, f, 640.0, 480.0)
    assert abs(r_cosine(f.centered)) < 0.3
    assert predict(f, frame.x_hi) > max(ys)
    assert frame.y_hi > max(ys) + 0.05 * (max(ys) - min(ys))
    labels = [el.text for el in parse_svg(render_svg(cloud, f)).findall(f"{SVG_NS}text")]
    assert labels == ["%.6g" % v for v in (min(xs), max(xs), min(ys), max(ys))]
