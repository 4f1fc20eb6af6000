"""figure-grids: both paper figures' grids, computed cold.

One round computes the Figure 3 and Figure 4 grids through
``figure3_rows``/``figure4_rows`` with each experiment's default
engines, into an empty run store, and writes their CSVs.  Then it
reruns both grids once over the populated store, as a researcher
resuming a sweep does; the rerun must recompute nothing and write the
same CSVs.  The seed picks each grid's root seed; the grid shapes come
from the experiment scale (``default``, or ``smoke`` for the quick
size).
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
import time

from common import Context, metric, peak_rss_mb_self, percentile, \
    probe_setup

#: A simulated mean settling time may sit this many standard errors
#: (from the chain's exact variance) from the exact Markov-chain
#: expectation before the check fails.
MAX_STANDARD_ERRORS = 5.0

def _scale(smoke: bool):
    from repro.experiments.config import resolve_scale

    return resolve_scale("smoke" if smoke else "default")


def _grid_seeds(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    return rng.randrange(1, 2**31), rng.randrange(1, 2**31)


def setup(workdir, smoke: bool) -> None:
    """Everything before the first grid point can be issued."""
    from repro.experiments import figure3, figure4, io  # noqa: F401
    from repro.protocols.three_state import ThreeStateProtocol
    from repro.runstore import Orchestrator, RunStore
    from repro.sim.run import RunSpec, make_run_engine, resolve_trial_engine

    scale = _scale(smoke)
    shutil.rmtree(workdir, ignore_errors=True)
    store = RunStore.for_output_dir(workdir)
    Orchestrator(store, sweep=f"figure3_{scale.name}")
    n = scale.figure3_populations[0]
    spec = RunSpec(ThreeStateProtocol(), n=n, epsilon=1.0 / n,
                   num_trials=scale.figure3_trials, seed=0,
                   engine="null-skipping")
    engine, _ = resolve_trial_engine(spec)
    if engine is None:
        make_run_engine(spec)
    spec.resolve_input()


def _engine_rate(records) -> float:
    """Interactions per second of engine time, from telemetry records.

    The engines report ``engine.interactions`` and time themselves in
    ``engine.run`` (one run) and ``engine.ensemble_chunk`` (one
    vectorized sub-ensemble) spans.
    """
    interactions = sum(r["value"] for r in records
                       if r["kind"] == "counter"
                       and r["name"] == "engine.interactions")
    seconds = sum(r["value"] for r in records if r["kind"] == "span"
                  and r["name"] in ("engine.run", "engine.ensemble_chunk"))
    return interactions / seconds


def _round(scale, seeds, out):
    """Compute both grids cold into ``out``; ``(seconds, rows, ...)``."""
    from repro.experiments import figure3, figure4, io
    from repro.runstore import Orchestrator, RunStore

    shutil.rmtree(out, ignore_errors=True)
    store = RunStore.for_output_dir(out)
    started = time.perf_counter()
    rows3 = figure3.figure3_rows(
        scale, seed=seeds[0],
        orchestrator=Orchestrator(store, sweep=f"figure3_{scale.name}"))
    io.write_csv(out / "figure3.csv", rows3)
    rows4 = figure4.figure4_rows(
        scale, seed=seeds[1],
        orchestrator=Orchestrator(store, sweep=f"figure4_{scale.name}"))
    io.write_csv(out / "figure4.csv", rows4)
    return time.perf_counter() - started, rows3, rows4, store


def _warm_rerun(scale, seeds, out, store) -> list[str]:
    """Problems found rerunning both grids over the populated store."""
    from repro.experiments import figure3, figure4, io
    from repro.runstore import Orchestrator

    problems = []
    warm = out / "warm"
    for module, name, seed in ((figure3, "figure3", seeds[0]),
                               (figure4, "figure4", seeds[1])):
        orchestrator = Orchestrator(store, sweep=f"{name}_{scale.name}")
        rows = getattr(module, f"{name}_rows")(
            scale, seed=seed, orchestrator=orchestrator)
        io.write_csv(warm / f"{name}.csv", rows)
        if (warm / f"{name}.csv").read_bytes() != \
                (out / f"{name}.csv").read_bytes():
            problems.append(f"warm rerun of {name} wrote a different CSV")
        if orchestrator.counters["computed"]:
            problems.append(f"warm rerun of {name} recomputed "
                            f"{orchestrator.counters['computed']} point(s)")
    return problems


def _exact_settling(protocol, initial) -> tuple[float, float]:
    """Mean and standard deviation of the steps to settle, exactly.

    For an absorbing chain with transient block ``Q`` and
    ``N = (I - Q)^-1``, the steps ``T`` have ``E[T] = t = N 1`` and
    ``E[T^2] = (2N - I) t``.
    """
    import numpy as np
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    from repro.analysis.markov import ConfigurationChain

    chain = ConfigurationChain(protocol, initial)
    transient, position, q_matrix = chain._transient_system()
    system = (identity(len(transient), format="csr") - q_matrix).tocsc()
    first = spsolve(system, np.ones(len(transient)))
    second = 2 * spsolve(system, first) - first
    start = position[0]
    return (float(first[start]),
            math.sqrt(float(second[start] - first[start] ** 2)))


def _check(scale, rows3, rows4) -> list[str]:
    """Problems found in one cold round's output (empty when correct)."""
    from repro.protocols.four_state import FourStateProtocol
    from repro.protocols.three_state import ThreeStateProtocol

    problems = []
    exact = [row for row in rows3 + rows4
             if row["protocol"].startswith("avc(")
             or row["protocol"] == FourStateProtocol().name]
    for row in exact:
        if row["error_fraction"] != 0 or row["settled_fraction"] != 1:
            problems.append(f"exact protocol erred or did not settle: "
                            f"{row}")
    n = min(scale.figure3_populations)
    for protocol in (ThreeStateProtocol(), FourStateProtocol()):
        row = next(r for r in rows3
                   if r["protocol"] == protocol.name and r["n"] == n)
        initial = protocol.initial_counts_for_margin(n, 1.0 / n, "A")
        mean, deviation = _exact_settling(protocol, initial)
        expected = mean / n
        stderr = deviation / n / math.sqrt(row["trials"])
        if abs(row["mean_parallel_time"] - expected) \
                > MAX_STANDARD_ERRORS * stderr:
            problems.append(
                f"{protocol.name} n={n}: mean parallel time "
                f"{row['mean_parallel_time']:.4f} is more than "
                f"{MAX_STANDARD_ERRORS} standard errors ({stderr:.4f}) "
                f"from the exact {expected:.4f}")

    return problems


def run(ctx: Context) -> dict:
    from repro.telemetry import InMemorySink, Telemetry, activate, deactivate

    scale = _scale(ctx.smoke)
    seeds = _grid_seeds(ctx.seed)
    out = ctx.workdir / "grids"
    setup_s = None if ctx.trace else probe_setup(ctx)

    walls, problems, points, rates, computed = [], [], 0, [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < ctx.seconds:
        sink = InMemorySink()
        telemetry = activate(Telemetry([sink]))
        try:
            wall, rows3, rows4, store = _round(scale, seeds, out)
            rates.append(_engine_rate(sink.records))
            computed += [r["value"] for r in sink.records
                         if r["kind"] == "span"
                         and r["name"] == "runstore.point"]
        finally:
            deactivate(telemetry)
        walls.append(wall)
        points += len(rows3) + len(rows4)
        problems += _warm_rerun(scale, seeds, out, store)
        problems += _check(scale, rows3, rows4)
        if ctx.trace:
            break
    # Every round asks for each grid point twice: cold, then warm.
    result = {"correct": not problems, "attempted": 2 * points,
              "failed": 0, "problems": problems}
    if not ctx.trace:
        # The warm rerun is a check, not a metric: it takes a few
        # milliseconds, and its timings moved twofold between runs.  So
        # ``req_per_s`` is the cold round's points per second (it
        # repeats ``cold_s``) and ``cached_p50_ms`` repeats
        # ``computed_p50_ms``.
        point_ms = percentile(computed, 50) * 1e3
        result["metrics"] = {
            "setup_s": metric(setup_s, "s"),
            "cold_s": metric(statistics.median(walls), "s"),
            "interactions_per_s": metric(statistics.median(rates), "1/s"),
            "req_per_s": metric(points / sum(walls), "1/s"),
            "cached_p50_ms": metric(point_ms, "ms"),
            "computed_p50_ms": metric(point_ms, "ms"),
            "peak_rss_mb": metric(peak_rss_mb_self(), "MB"),
        }
        return result

    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    sink = InMemorySink()
    telemetry = activate(Telemetry([sink]))
    untraced_csvs = [(out / f"figure{k}.csv").read_bytes() for k in (3, 4)]
    try:
        lo = time.perf_counter()
        _round(scale, seeds, out)
        hi = time.perf_counter()
    finally:
        deactivate(telemetry)
    if untraced_csvs != [(out / f"figure{k}.csv").read_bytes()
                         for k in (3, 4)]:
        problems.append("the traced round wrote different CSVs")
        result["correct"] = False
    result["attempted"] += points
    result["metrics"] = layers.per_layer_metrics(
        tracer, window=(lo, hi), untraced_wall=walls[0], sink=sink)
    result["tracer"] = tracer
    result["window"] = (lo, hi)
    return result
