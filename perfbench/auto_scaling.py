"""auto-scaling: exact AVC batches at large n through ``engine="auto"``.

One round is two ``simulate(RunSpec(..., engine="auto"))`` batches of
AVC with s = 66 states: 32 trials at n = 10001 with margin 101/n (inside
the range ``auto`` sends to the token ensemble) and 2 settling trials
at n = 1000001 (sent to the compiled count ensemble).  The token
ensemble's time is set by its number of windows, which barely depends
on the trial count, so the n = 10001 batch takes about as long with 4
trials as with 32; 32 keep it from turning on one trial's luck.  The
seed picks every batch's seed.  Nothing is stored: a library caller
gets the results back from ``simulate()``.
"""

from __future__ import annotations

import random
import statistics
import time

from common import Context, metric, peak_rss_mb_self, probe_setup

STATES = 66

#: A run measures at least this many rounds.  One round (10 to 18 s)
#: lands in one of the host's fast or slow minutes; its batches' times
#: moved by a quarter or more from run to run, two rounds' less.
MIN_ROUNDS = 2

#: ``(n, advantage, trials)`` per batch, in the order a round runs them.
BATCHES = {
    "full": ((10_001, 101, 32), (1_000_001, 50_001, 2)),
    "smoke": ((1_001, 11, 4), (40_001, 2_001, 2)),
}


def _specs(seed: int, round_index: int, smoke: bool):
    from repro import AVCProtocol, RunSpec

    protocol = AVCProtocol.with_num_states(STATES)
    rng = random.Random(f"{seed}:{round_index}")
    return [RunSpec(protocol, n=n, epsilon=advantage / n,
                    num_trials=trials, seed=rng.randrange(1, 2**31),
                    engine="auto")
            for n, advantage, trials in BATCHES["smoke" if smoke
                                                else "full"]]


def setup(workdir, smoke: bool) -> None:
    """Everything before the first batch can be issued."""
    from repro.sim.run import resolve_trial_engine

    spec = _specs(0, 0, smoke)[0]
    spec.protocol.transition_matrix()
    resolve_trial_engine(spec)


def _check(spec, results, interactions) -> list[str]:
    """Problems in one batch's results (empty when correct)."""
    initial, expected = spec.resolve_input()
    protocol = spec.protocol
    value = protocol.total_value(initial)
    problems = []
    for index, result in enumerate(results):
        where = f"n={spec.n} trial {index}"
        if not result.settled or result.decision != expected:
            problems.append(f"{where} did not settle on the majority")
        if sum(result.final_counts.values()) != spec.n:
            problems.append(f"{where} final counts do not sum to n")
        if protocol.total_value(result.final_counts) != value:
            problems.append(f"{where} did not conserve the AVC value sum")
    steps = sum(result.steps for result in results)
    if steps != interactions:
        problems.append(f"n={spec.n}: trials took {steps} steps but "
                        f"telemetry counted {interactions} interactions")
    return problems


def _round(ctx: Context, round_index: int, sinks=None) -> dict:
    """Run one round of batches; what it measured and found."""
    from repro import simulate
    from repro.telemetry import InMemorySink, Telemetry

    out = {"steps": 0, "batch_seconds": [], "problems": []}
    started = time.perf_counter()
    for spec in _specs(ctx.seed, round_index, ctx.smoke):
        sink = InMemorySink()
        spec = spec.replace(telemetry=Telemetry([sink]))
        batch_started = time.perf_counter()
        results = simulate(spec)
        out["batch_seconds"].append(time.perf_counter() - batch_started)
        out["steps"] += sum(result.steps for result in results)
        out["problems"] += _check(spec, results,
                                  sink.total("engine.interactions"))
        if sinks is not None:
            sinks.append(sink)
    out["wall"] = time.perf_counter() - started
    return out


def run(ctx: Context) -> dict:
    setup_s = None if ctx.trace else probe_setup(ctx)
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS \
            or time.perf_counter() - started < ctx.seconds:
        rounds.append(_round(ctx, len(rounds)))
        if ctx.trace:
            break
    problems = [p for r in rounds for p in r["problems"]]
    batches = sum(len(r["batch_seconds"]) for r in rounds)
    result = {"correct": not problems, "attempted": batches,
              "failed": 0, "problems": problems}
    if not ctx.trace:
        # Nothing here is stored or read back.  The two latency slots
        # hold the two batch sizes: ``computed_p50_ms`` the n ~ 10^4
        # batch (token ensemble), ``cached_p50_ms`` the n ~ 10^6 batch
        # (compiled count ensemble).  ``cold_s`` is a round of both and
        # ``req_per_s`` its batches per second in ``simulate()``.
        small = [r["batch_seconds"][0] for r in rounds]
        large = [r["batch_seconds"][1] for r in rounds]
        simulated = sum(small) + sum(large)
        result["metrics"] = {
            "setup_s": metric(setup_s, "s"),
            "cold_s": metric(statistics.median(r["wall"] for r in rounds),
                             "s"),
            "interactions_per_s": metric(
                sum(r["steps"] for r in rounds) / simulated, "1/s"),
            "req_per_s": metric(batches / simulated, "1/s"),
            "cached_p50_ms": metric(statistics.median(large) * 1e3, "ms"),
            "computed_p50_ms": metric(statistics.median(small) * 1e3,
                                      "ms"),
            "peak_rss_mb": metric(peak_rss_mb_self(), "MB"),
        }
        return result

    from repro.telemetry import InMemorySink

    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    sinks: list = []
    lo = time.perf_counter()
    traced = _round(ctx, 0, sinks)
    hi = time.perf_counter()
    merged = InMemorySink()
    for sink in sinks:
        merged.records.extend(sink.records)
    result["problems"] += traced["problems"]
    result["correct"] = not result["problems"]
    result["attempted"] += len(traced["batch_seconds"])
    result["metrics"] = layers.per_layer_metrics(
        tracer, window=(lo, hi), untraced_wall=rounds[0]["wall"],
        sink=merged)
    result["tracer"] = tracer
    result["window"] = (lo, hi)
    return result
