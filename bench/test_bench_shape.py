"""Shape-only self-test of the benchmark at tiny sizes.

It checks that every metric named in BENCHMARK.json comes out with its unit
and that no operation fails.  It asserts no timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.Sizes(cli_rows=1_000, verify_rows=200, lib_clouds=5, lib_n_max=200)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_named_metric_with_its_unit(workload, trace, tmp_path):
    result, details = run.run_workload(workload, seed=3, seconds=0.01, trace=trace,
                                       sizes=TINY, setup_repeats=1, trace_dir=tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert details["error_rate"] == 0
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    def fingerprint(seed, name):
        scratch = tmp_path / name
        scratch.mkdir()
        return workloads.WORKLOADS[workload](seed, scratch, TINY).inputs_sha256

    assert fingerprint(5, "a") == fingerprint(5, "b")
    assert fingerprint(5, "c") != fingerprint(6, "d")


def test_missing_layer_is_reported_absent(monkeypatch):
    import geomfit.vectors

    monkeypatch.delattr(geomfit.vectors, "Vector")
    tr = tracer.Tracer()
    tr.install()
    tr.restore()
    assert "vectors.Vector" in tr.absent()
    metrics, _ = tracer.per_layer(tr, 1.0, 1, 1.0)
    assert metrics["vectors.components_built"]["value"] == 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
