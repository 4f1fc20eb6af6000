"""Smoke tests: every workload at its quick size, untraced and traced.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    # The source tree's committed bytecode stays as it is.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    meta = json.loads(lines[-2].removeprefix("# meta "))
    for key in ("cpu_count", "kernel_backend", "numba_importable",
                "git_rev", "python", "numpy", "seed"):
        assert key in meta


def _covered(spans, lo, hi) -> float:
    """Seconds of ``[lo, hi]`` inside at least one span."""
    total, reach = 0.0, lo
    for start, end in sorted((max(s[4], lo), min(s[5], hi)) for s in spans):
        if end > max(start, reach):
            total += end - max(start, reach)
            reach = end
    return total


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_self_times_add_up_to_wall(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    layers = ("experiments", "runstore", "protocols", "sim", "kernels",
              "service")
    # The self times share out exactly the instants some span covers.
    trace = json.loads((ROOT / ".bench_build" / "perfbench"
                        / f"trace-{workload}-3.json").read_text())
    lo, hi = trace["meta"]["window"]
    attributed = sum(metrics[f"{layer}.self_s"] for layer in layers)
    assert attributed == pytest.approx(
        _covered(trace["spans"], lo, hi), rel=1e-6, abs=1e-9)
    assert metrics["trace.wall_s"] == pytest.approx(hi - lo)
    assert metrics["trace.unattributed_s"] >= 0
    busy = {"figure-grids": "experiments.self_s",
            "auto-scaling": "kernels.busy_s",
            "service-mix": "service.self_s"}[workload]
    assert metrics[busy] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_of_nested_spans():
    spans = [(1, 0, "a", "outer", 0.0, 10.0, 1),
             (2, 1, "b", "inner", 2.0, 5.0, 1),
             (3, 2, "c", "leaf", 3.0, 4.0, 1),
             (4, 1, "b", "inner", 6.0, 7.0, 1)]
    times = layer_self_times(spans, (0.0, 12.0))
    assert times == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})


def test_concurrent_threads_share_each_instant():
    spans = [(1, 0, "a", "x", 0.0, 4.0, 1),
             (2, 0, "b", "y", 2.0, 6.0, 2)]
    times = layer_self_times(spans, (0.0, 8.0))
    assert times == pytest.approx({"a": 3.0, "b": 3.0})
    assert sum(times.values()) <= 8.0


def test_tracer_records_parents_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("b", "inner", lambda: None)
    outer = tracer.wrap("a", "outer", lambda: inner())
    thread = threading.Thread(target=outer)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    outer()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    for inner_span in by_name["inner"]:
        parent = next(s for s in by_name["outer"] if s[0] == inner_span[1])
        assert parent[6] == inner_span[6]
