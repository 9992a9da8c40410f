"""geomfit benchmark: seeded closed-loop workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python3 bench/run.py --workload cli_fit_100k --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

Every time is CPU time of the benchmark's process or of its child, not wall
time, so that time spent waiting for a CPU is not counted.  ``--trace 0``
measures the end-to-end metrics of ``BENCHMARK.json`` with tracing off:
``points_per_s`` is the run's input points over the summed time of its
calls, ``setup_s`` the median cold CLI call (fresh interpreter, import,
12-row demo fit) and ``peak_rss_mb`` the process's peak resident set.
The gated timing is this mean over the whole run, not a median of calls: a
shared host's speed can sit at a fast or a slow level for seconds at a
time, and a median of calls jumps between the two levels where a mean
moves in proportion to the time spent at each.  The median and 99th
percentile latency of the workload's call kind are printed with their
sample counts, not gated.
``--trace 1`` alternates untraced and traced slices of the run, every layer
wrapped in the traced ones, and reports the per-layer metrics.
``--workload all`` runs each workload in its own process, one after another.

Standard output holds a readable table, one ``details`` JSON line (sample
counts, the call latency under its kind's name such as ``fit_s_p50``, input
and output sha256, versions, CPU counts and git SHA) and, last, the result
line::

    {"correct": true, "attempted": 20, "failed": 0, "metrics": {...}}

The program under test is the ``src/`` tree beside this directory; without
it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "geomfit" / "__init__.py").is_file():
    sys.exit(f"error: no geomfit source tree at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import geomfit  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

if not Path(geomfit.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: geomfit imported from {geomfit.__file__}, not from {SRC}")

SCRATCH_PARENT = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_traces"
TRACE_SLICE_S = 2.0
SETUP_REPEATS = 5
# A cold CLI call: fresh interpreter, import, one text fit of the 12-row demo.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import geomfit.cli; "
    "sys.exit(geomfit.cli.run(['fit', '--input', sys.argv[2]]))"
)


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(repeats: int) -> list[float]:
    """CPU seconds of each of ``repeats`` cold demo fits."""
    demo = SRC / "geomfit" / "data" / "example1_amarante.csv"
    times = []
    for _ in range(repeats):
        start = children_cpu_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(demo)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        times.append(children_cpu_seconds() - start)
        if proc.returncode != 0 or "equation:" not in proc.stdout:
            raise RuntimeError(f"cold demo fit failed ({proc.returncode}): {proc.stderr}")
    return times


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def closed_loop(workload, seconds: float) -> list:
    """Run operations back to back for ``seconds`` of wall time (at least
    one); their calls."""
    calls = []
    deadline = perf_counter() + seconds
    while not calls or perf_counter() < deadline:
        calls.append(workload.op(len(calls)))
    return calls


def traced_loop(workload, seconds: float, tr: tracer.Tracer) -> tuple[list, list, int]:
    """Closed loop that turns tracing on and off every ``TRACE_SLICE_S``.

    Alternating keeps both halves in the same spells of host speed, so the
    ratio of their seconds per input point is the tracing overhead.  Returns
    the untraced calls, the traced calls and the number of traced operations.
    """
    calls = {False: [], True: []}
    ops = {False: 0, True: 0}
    deadline = perf_counter() + seconds
    tracing, slice_end, i = False, 0.0, 0
    try:
        while not (ops[False] and ops[True]) or perf_counter() < deadline:
            now = perf_counter()
            if now >= slice_end or now >= deadline:
                tracing = not tracing
                if tracing:
                    tr.install()
                else:
                    tr.restore()
                slice_end = now + TRACE_SLICE_S
            if tracing:
                with tr.op(i):
                    calls[True].append(workload.op(i))
            else:
                calls[False].append(workload.op(i))
            ops[tracing] += 1
            i += 1
    finally:
        tr.restore()
    return calls[False], calls[True], ops[True]


def seconds_per_point(calls: list) -> float:
    return sum(c.seconds for c in calls) / sum(c.points for c in calls)


def per_kind(workload, calls: list) -> dict:
    """The workload's latency under its call kind's name, as ``fit_s_p50``.

    The 99th percentile is given where at least ten samples lie beyond it.
    """
    values = [c.seconds for c in calls]
    out = {f"{workload.kind}_s_p50": {"value": statistics.median(values), "unit": "s",
                                      "samples": len(values)}}
    if len(values) >= 1000:
        out[f"{workload.kind}_s_p99"] = {"value": float(np.percentile(values, 99)),
                                         "unit": "s", "samples": len(values)}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.Sizes(),
                 setup_repeats: int = SETUP_REPEATS,
                 trace_dir: Path = TRACE_DIR) -> tuple[dict, dict]:
    """(result line, details) for one workload run.

    A traced run writes its spans to ``trace_dir``.
    """
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))
    try:
        workload = workloads.WORKLOADS[name](seed, scratch, sizes)
        if trace:
            tr = tracer.Tracer()
            calls, traced_calls, traced_ops = traced_loop(workload, seconds, tr)
            overhead = seconds_per_point(traced_calls) / seconds_per_point(calls)
            calls += traced_calls
            metrics, layers = tracer.per_layer(
                tr, sum(c.seconds for c in traced_calls), traced_ops, overhead)
            trace_dir.mkdir(exist_ok=True)
            spans = trace_dir / f"{name}-seed{seed}.jsonl"
            tr.write(spans)
            details = {"layers": layers, "spans": str(spans)}
        else:
            # Set-up is sampled before and after the loop, so that one slow
            # spell of the host does not set the whole run's figure.
            setup = measure_setup(setup_repeats - setup_repeats // 2)
            calls = closed_loop(workload, seconds)
            setup += measure_setup(setup_repeats // 2)
            metrics = {
                "points_per_s": {"value": 1 / seconds_per_point(calls), "unit": "1/s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB"},
            }
            details = {"samples": {"points_per_s": len(calls), "setup_s": len(setup)},
                       "per_kind": per_kind(workload, calls)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass
    failed = sum(not c.ok for c in calls)
    details.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "calls": len(calls), "error_rate": failed / len(calls),
        "inputs_sha256": workload.inputs_sha256,
        "outputs_sha256": workload.outputs_sha256,
        "environment": environment(),
    })
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    return result, details


def print_table(result: dict, details: dict) -> None:
    rows = [(name, m["value"], m["unit"], details.get("samples", {}).get(name))
            for name, m in result["metrics"].items()]
    rows += [(name, m["value"], m["unit"], m["samples"])
             for name, m in details.get("per_kind", {}).items()]
    rows.append(("error_rate", details["error_rate"], "ratio", result["attempted"]))
    print(f"# {details['workload']} seed={details['seed']} trace={details['trace']}")
    for name, value, unit, samples in rows:
        count = f"  (n={samples})" if samples is not None else ""
        print(f"{name:40s} {value:.6g} {unit}{count}")


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process; their result lines merged by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result, details)
    print(json.dumps({"details": details}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
