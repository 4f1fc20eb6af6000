"""Append engine-throughput measurements to BENCH_engines.json.

Usage::

    PYTHONPATH=src python benchmarks/report.py [--label "..."] [--full]
    PYTHONPATH=src python benchmarks/report.py --scaling
    PYTHONPATH=src python benchmarks/report.py --distributed
    PYTHONPATH=src python benchmarks/report.py --dry-run

Runs the acceptance workload from the ensemble-engine PR — AVC with
66 states at n = 10^4, margin epsilon = 101/n, 100 trials — once per
engine, and appends one record (interactions/s per engine, wall time,
speedup over the count-engine trial loop) to ``BENCH_engines.json``
at the repo root.  The file is a perf trajectory: every record keeps
its git revision, so future PRs can diff throughput against this one.

By default the count engine runs a 10-trial slice of the workload
(its Python loop needs ~0.8 s/trial here; throughput per interaction
is what the trajectory tracks, and that does not depend on the trial
count).  ``--full`` runs all engines on the complete 100-trial
workload for an apples-to-apples wall-time comparison.

``--scaling`` adds the count-ensemble acceptance rows: both ensemble
engines at n = 10^5 under a fixed per-trial interaction cap (the
speedup ratio is the PR's acceptance metric), plus a count-ensemble
row at n = 10^6 — a population where the token ensemble's ``(T, n)``
matrix alone (~400 MB at T = 100) dwarfs the count-ensemble's whole
footprint, so only the count ensemble reports a row there.

``--dry-run`` runs a single small count-ensemble measurement and
discards it — a CI smoke check that the engine imports, runs, and
passes the telemetry/results cross-check (shape regressions), with no
timing assertions and no JSON write.

Each engine record carries telemetry-sourced fields alongside wall
seconds: ``interactions`` (cross-checked against the in-memory sink's
``engine.interactions`` counter), ``productive_interactions``, and
``cache_hit_ratio`` (``runstore.cache.hit`` over all lookups — null
here, where the workload drives engines directly, but populated for
any future measurement routed through the runstore orchestrator).

Every record also carries ``kernels`` metadata — the installed numba
version (or null) and the kernel backend the JIT engine names
resolved to (``numba``/``cext``/null) — so a throughput diff across
records never has to guess which stack produced the JIT rows.
``--engines`` filters both the main matrix and the ``--scaling``
rows; kernel compilation happens outside every timed window.
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import AVCProtocol, FaultSpec  # noqa: E402
from repro.sim.run import ENGINE_NAMES, RunSpec, simulate  # noqa: E402
from repro.telemetry import InMemorySink, Telemetry  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_engines.json"
SERVICE_OUTPUT = REPO_ROOT / "BENCH_service.json"
BYZANTINE_OUTPUT = REPO_ROOT / "BENCH_byzantine.json"
SWEEPS_OUTPUT = REPO_ROOT / "BENCH_sweeps.json"

WORKLOAD = {
    "protocol": "avc",
    "num_states": 66,
    "n": 10_001,
    "epsilon_numerator": 101,
    "trials": 100,
    "seed": 0,
}
#: Trial counts per engine in the default (quick) mode.
QUICK_TRIALS = {"ensemble": 100, "count-ensemble": 100,
                "count-ensemble-jit": 100, "count": 10}

#: The count-ensemble scaling rows (``--scaling``): populations, the
#: per-trial interaction cap (full convergence needs ~n log n
#: interactions — billions at these sizes — so throughput is measured
#: over a fixed exact prefix of every trial), and which engines can
#: field a row at each size.  The token ensemble is absent at 10^6:
#: its (T, n) int32 token matrix alone is ~400 MB at T = 100.  The
#: JIT twin draws the identical stream and returns identical results,
#: so its rows are a pure same-work throughput comparison (it falls
#: back to the numpy engine, and matching numbers, on hosts with no
#: kernel backend — see the record's ``kernels`` metadata).
SCALING_CAP = 200_000
SCALING_ROWS = [
    {"n": 100_001,
     "engines": ("ensemble", "count-ensemble", "count-ensemble-jit")},
    {"n": 1_000_001,
     "engines": ("count-ensemble", "count-ensemble-jit")},
]


def kernels_metadata() -> dict:
    """Which compiled-kernel stack produced this record's JIT rows."""
    from repro.sim import kernels
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "numba_version": numba_version,
        "resolved_backend": kernels.default_backend(),
    }


def measure(engine: str, trials: int, *, n: int | None = None,
            max_steps: int | None = None) -> dict:
    protocol = AVCProtocol.with_num_states(WORKLOAD["num_states"])
    if n is None:
        n = WORKLOAD["n"]
    sink = InMemorySink()
    spec = RunSpec(
        protocol,
        num_trials=trials,
        seed=WORKLOAD["seed"],
        n=n,
        epsilon=WORKLOAD["epsilon_numerator"] / n,
        engine=engine,
        max_steps=max_steps,
        telemetry=Telemetry([sink]),
    )
    # Kernel compilation/load happens outside the timed window (no-op
    # for numpy engines and on hosts with no backend).
    from repro.sim.kernels import warm_up_for_spec
    warm_up_for_spec(spec)
    started = time.perf_counter()
    results = simulate(spec)
    seconds = time.perf_counter() - started
    interactions = sum(r.steps for r in results)
    counted = int(sink.total("engine.interactions"))
    if counted != interactions:
        raise AssertionError(
            f"telemetry counted {counted} interactions but results "
            f"sum to {interactions}")
    hits = sink.total("runstore.cache.hit")
    lookups = hits + sink.total("runstore.cache.miss")
    return {
        "trials": trials,
        "settled": sum(r.settled for r in results),
        "interactions": interactions,
        "productive_interactions": int(sink.total("engine.productive")),
        "cache_hit_ratio": round(hits / lookups, 3) if lookups else None,
        "seconds": round(seconds, 3),
        "interactions_per_second": round(interactions / seconds, 1),
    }


def measure_scaling(engines: list[str] | None = None) -> list:
    """The large-``n`` rows: every trial advances exactly
    ``SCALING_CAP`` interactions (the cap binds long before
    convergence at these populations), so interactions/s is an
    apples-to-apples exact-chain throughput comparison.

    ``engines`` filters each row to the requested engine names (a row
    with no surviving engine is skipped entirely); ``None`` measures
    every engine a row lists.
    """
    trials = WORKLOAD["trials"]
    rows = []
    for spec in SCALING_ROWS:
        n = spec["n"]
        selected = [name for name in spec["engines"]
                    if engines is None or name in engines]
        if not selected:
            continue
        row = {"n": n, "trials": trials, "max_steps": SCALING_CAP,
               "engines": {}}
        if "ensemble" not in spec["engines"]:
            # The token matrix the absent engine would need, for scale.
            row["token_ensemble_matrix_bytes"] = trials * n * 4
        for engine in selected:
            print(f"measuring {engine} at n={n} "
                  f"(cap {SCALING_CAP}/trial)...", flush=True)
            row["engines"][engine] = measure(engine, trials, n=n,
                                             max_steps=SCALING_CAP)
            per_sec = row["engines"][engine]["interactions_per_second"]
            print(f"  {engine}: {per_sec:.3g} interactions/s")
        if {"ensemble", "count-ensemble"} <= row["engines"].keys():
            row["speedup_count_ensemble_vs_ensemble"] = round(
                row["engines"]["count-ensemble"]
                   ["interactions_per_second"]
                / row["engines"]["ensemble"]["interactions_per_second"],
                2)
            print(f"  count-ensemble vs ensemble at n={n}: "
                  f"{row['speedup_count_ensemble_vs_ensemble']}x")
        if {"count-ensemble", "count-ensemble-jit"} <= \
                row["engines"].keys():
            row["speedup_jit_vs_numpy"] = round(
                row["engines"]["count-ensemble-jit"]
                   ["interactions_per_second"]
                / row["engines"]["count-ensemble"]
                     ["interactions_per_second"], 2)
            print(f"  count-ensemble-jit vs count-ensemble at n={n}: "
                  f"{row['speedup_jit_vs_numpy']}x")
        rows.append(row)
    return rows


def git_revision() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def service_report(label: str | None = None) -> int:
    """Append a simulation-service measurement to BENCH_service.json.

    The workload lives in :mod:`service_bench` (shared with the
    pytest-benchmark leg): cold requests (distinct specs, one real
    simulation each), warm requests (one committed spec, pure
    content-addressed cache hits), and a 64-way concurrent burst of
    one uncached spec that must coalesce into exactly one simulation.
    """
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from service_bench import run_benchmark

    print("measuring simulation service (cold / warm / coalescing)...",
          flush=True)
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git": git_revision(),
        "label": label,
        **run_benchmark(),
    }
    print(f"  cold: {record['cold']['requests_per_second']} req/s "
          f"(p50 {record['cold']['p50_ms']} ms, "
          f"p95 {record['cold']['p95_ms']} ms)")
    print(f"  warm: {record['warm']['requests_per_second']} req/s "
          f"(p50 {record['warm']['p50_ms']} ms, "
          f"p95 {record['warm']['p95_ms']} ms), "
          f"{record['warm_over_cold_speedup']}x cold")
    coalescing = record["coalescing"]
    print(f"  coalescing: {coalescing['concurrent_requests']} "
          f"concurrent requests -> {coalescing['simulations_run']} "
          f"simulation(s), ratio {coalescing['coalescing_ratio']}")
    if SERVICE_OUTPUT.exists():
        document = json.loads(SERVICE_OUTPUT.read_text())
    else:
        document = {"history": []}
    document["history"].append(record)
    SERVICE_OUTPUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"appended record to {SERVICE_OUTPUT}")
    return 0


#: The rounds-engine throughput rows (``--byzantine``).  Ben-Or runs
#: in the blocked regime (n = 3f, the adaptive adversary pins every
#: trial to the full round budget) so each trial advances exactly
#: ``rounds`` rounds and rounds/s is a deterministic-work throughput
#: number; epsilon-agreement runs a tight tolerance under the
#: equivocating adversary and reports the rounds it actually takes.
BYZANTINE_ROUNDS_ROWS = [
    {"protocol": "ben-or", "params": {}, "n": 300, "f": 100,
     "mode": "adaptive", "rounds": 300, "trials": 20},
    {"protocol": "epsilon-agreement",
     "params": {"epsilon_agree": 1e-9}, "n": 300, "f": 90,
     "mode": "adaptive", "rounds": 300, "trials": 20},
]
#: The byzantine-injection overhead workload: the standard AVC
#: workload on the count engine, capped so clean and corrupted runs
#: advance the same exact prefix of every trial (the cap binds long
#: before convergence) and the interactions/s ratio isolates the cost
#: of the per-meeting hypergeometric membership draws and message
#: rewrites.
BYZANTINE_OVERHEAD = {"trials": 10, "max_steps": 50_000,
                      "byzantine_f": 100}


def _measure_rounds(row: dict) -> dict:
    sink = InMemorySink()
    spec = RunSpec(
        (row["protocol"], row["params"]),
        n=row["n"],
        epsilon=0.2,
        seed=WORKLOAD["seed"],
        num_trials=row["trials"],
        max_steps=row["rounds"],
        faults=FaultSpec(byzantine_f=row["f"],
                         byzantine_mode=row["mode"]),
        telemetry=Telemetry([sink]),
    )
    started = time.perf_counter()
    results = simulate(spec)
    seconds = time.perf_counter() - started
    rounds = sum(r.steps for r in results)
    counted = int(sink.total("engine.interactions"))
    if counted != rounds:
        raise AssertionError(
            f"telemetry counted {counted} rounds but results sum "
            f"to {rounds}")
    return {
        "n": row["n"],
        "byzantine_f": row["f"],
        "byzantine_mode": row["mode"],
        "trials": row["trials"],
        "settled": sum(r.settled for r in results),
        "rounds": rounds,
        "byzantine_lies": sum(
            r.fault_events["byzantine_lies"] for r in results),
        "seconds": round(seconds, 3),
        "rounds_per_second": round(rounds / seconds, 1),
    }


def byzantine_report(label: str | None = None) -> int:
    """Append a byzantine-machinery measurement to BENCH_byzantine.json.

    Two throughput surfaces: rounds/s for the synchronous
    message-passing engine (Ben-Or pinned at n = 3f plus a tight
    epsilon-agreement run, both under the adaptive adversary), and the
    byzantine-injection overhead on the count engine — the standard
    AVC workload with and without a corruption budget, same
    interaction cap, so the ratio is the per-interaction cost of the
    fault channel.
    """
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git": git_revision(),
        "label": label,
        "rounds_engine": {},
    }
    for row in BYZANTINE_ROUNDS_ROWS:
        print(f"measuring rounds engine: {row['protocol']} "
              f"(n={row['n']}, f={row['f']}, {row['mode']})...",
              flush=True)
        outcome = _measure_rounds(row)
        record["rounds_engine"][row["protocol"]] = outcome
        print(f"  {row['protocol']}: {outcome['rounds_per_second']:.3g} "
              f"rounds/s over {outcome['rounds']} rounds")

    cap = BYZANTINE_OVERHEAD["max_steps"]
    trials = BYZANTINE_OVERHEAD["trials"]
    f = BYZANTINE_OVERHEAD["byzantine_f"]
    overhead = {"workload": dict(BYZANTINE_OVERHEAD), "engines": {}}
    protocol = AVCProtocol.with_num_states(WORKLOAD["num_states"])
    for name, faults in (("clean", None),
                         ("byzantine", FaultSpec(byzantine_f=f))):
        print(f"measuring count engine ({name}, cap {cap}/trial)...",
              flush=True)
        spec = RunSpec(
            protocol,
            n=WORKLOAD["n"],
            epsilon=WORKLOAD["epsilon_numerator"] / WORKLOAD["n"],
            seed=WORKLOAD["seed"],
            num_trials=trials,
            engine="count",
            max_steps=cap,
            faults=faults,
        )
        started = time.perf_counter()
        results = simulate(spec)
        seconds = time.perf_counter() - started
        interactions = sum(r.steps for r in results)
        overhead["engines"][name] = {
            "trials": trials,
            "interactions": interactions,
            "seconds": round(seconds, 3),
            "interactions_per_second": round(
                interactions / seconds, 1),
        }
        if faults is not None:
            overhead["engines"][name]["byzantine_lies"] = sum(
                r.fault_events["byzantine_lies"] for r in results)
        per_sec = overhead["engines"][name]["interactions_per_second"]
        print(f"  {name}: {per_sec:.3g} interactions/s")
    overhead["overhead_ratio"] = round(
        overhead["engines"]["clean"]["interactions_per_second"]
        / overhead["engines"]["byzantine"]["interactions_per_second"],
        2)
    print(f"  byzantine-injection overhead: "
          f"{overhead['overhead_ratio']}x")
    record["count_engine_overhead"] = overhead

    if BYZANTINE_OUTPUT.exists():
        document = json.loads(BYZANTINE_OUTPUT.read_text())
    else:
        document = {"history": []}
    document["history"].append(record)
    BYZANTINE_OUTPUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"appended record to {BYZANTINE_OUTPUT}")
    return 0


#: The distributed-sweep scaling workload (``--distributed``): the
#: default-scale figure-4 grid, drained fresh (empty store, temp
#: output dir) once per worker count.  The CSV digest must match
#: across every leg — distribution may only change wall time, never
#: bytes — and the fleet audit must report zero duplicate simulations.
DISTRIBUTED_SWEEP = ["figure4", "--scale", "default"]
DISTRIBUTED_WORKER_COUNTS = (1, 2, 4, 8)


def _run_sweep_leg(workers: int) -> dict:
    """One cold sweep with ``workers`` cooperating processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory(
            prefix=f"bench-sweeps-{workers}w-") as tmp:
        command = [sys.executable, "-m", "repro", *DISTRIBUTED_SWEEP,
                   "--output-dir", tmp]
        if workers > 1:
            command += ["--workers", str(workers)]
        started = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env, cwd=REPO_ROOT)
        seconds = time.perf_counter() - started
        if proc.returncode != 0:
            raise RuntimeError(
                f"sweep leg with {workers} worker(s) failed:\n"
                f"{proc.stdout}\n{proc.stderr}")
        csvs = sorted(pathlib.Path(tmp).glob("*.csv"))
        if len(csvs) != 1:
            raise RuntimeError(
                f"expected one CSV from the sweep leg, found {csvs}")
        leg = {
            "workers": workers,
            "seconds": round(seconds, 2),
            "csv_sha256": hashlib.sha256(
                csvs[0].read_bytes()).hexdigest(),
        }
        duplicates = re.search(r"(\d+) duplicate simulation\(s\)",
                               proc.stdout)
        if duplicates is not None:
            leg["duplicate_simulations"] = int(duplicates.group(1))
        reclaims = re.search(r"(\d+) lease\(s\) reclaimed", proc.stdout)
        if reclaims is not None:
            leg["lease_reclaims"] = int(reclaims.group(1))
        return leg


def distributed_report(label: str | None = None) -> int:
    """Append a sweep-scaling measurement to BENCH_sweeps.json.

    Wall time of the default-scale figure-4 sweep at 1/2/4/8
    cooperating workers, each leg against a fresh store in a temp
    output directory.  Three correctness gates ride along: every leg's
    CSV digest must be identical (distribution never changes bytes),
    every multi-worker leg's fleet audit must report zero duplicate
    simulations, and a failed leg aborts the record.

    The speedup ceiling is ``min(workers, cpu_count)``: the engines
    are CPU-bound numpy loops, so worker processes beyond the core
    count only add lease/poll overhead.  The record keeps
    ``cpu_count`` so a reader never compares a 1-core container's
    numbers against a workstation's.
    """
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git": git_revision(),
        "label": label,
        "sweep": " ".join(DISTRIBUTED_SWEEP),
        "cpu_count": os.cpu_count(),
        "note": ("speedup is bounded by min(workers, cpu_count); on a "
                 "single-core host the legs only measure coordination "
                 "overhead, not parallelism"),
        "legs": [],
    }
    for workers in DISTRIBUTED_WORKER_COUNTS:
        print(f"measuring {' '.join(DISTRIBUTED_SWEEP)} with "
              f"{workers} worker(s)...", flush=True)
        leg = _run_sweep_leg(workers)
        record["legs"].append(leg)
        print(f"  {workers} worker(s): {leg['seconds']} s, "
              f"{leg.get('duplicate_simulations', 0)} duplicate(s)")
    base = record["legs"][0]["seconds"]
    for leg in record["legs"]:
        leg["speedup_vs_single"] = round(base / leg["seconds"], 2)
    digests = {leg["csv_sha256"] for leg in record["legs"]}
    record["csv_identical_across_legs"] = len(digests) == 1
    if len(digests) != 1:
        raise AssertionError(
            f"distributed legs produced differing CSVs: {digests}")
    duplicates = sum(leg.get("duplicate_simulations", 0)
                     for leg in record["legs"])
    record["total_duplicate_simulations"] = duplicates
    print(f"csv identical across legs: "
          f"{record['csv_identical_across_legs']}, "
          f"{duplicates} duplicate simulation(s) total")
    if SWEEPS_OUTPUT.exists():
        document = json.loads(SWEEPS_OUTPUT.read_text())
    else:
        document = {"history": []}
    document["history"].append(record)
    SWEEPS_OUTPUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"appended record to {SWEEPS_OUTPUT}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default=None,
                        help="free-form tag for this record")
    parser.add_argument("--engines", nargs="+",
                        default=["count", "ensemble", "count-ensemble",
                                 "count-ensemble-jit"],
                        help="engines to measure, applied to the "
                             "matrix AND the --scaling rows (default: "
                             "count ensemble count-ensemble "
                             "count-ensemble-jit)")
    parser.add_argument("--full", action="store_true",
                        help="run every engine on the full 100-trial "
                             "workload (slow: the count engine takes "
                             "about 80 s)")
    parser.add_argument("--scaling", action="store_true",
                        help="also measure the large-n rows (n = 10^5 "
                             "for both ensembles, n = 10^6 for the "
                             "count ensemble) under a fixed per-trial "
                             "interaction cap")
    parser.add_argument("--dry-run", action="store_true",
                        help="CI smoke mode: one small count-ensemble "
                             "measurement, cross-checked but not "
                             "recorded")
    parser.add_argument("--service", action="store_true",
                        help="measure the HTTP simulation service "
                             "(cold vs warm req/s, p50/p95 latency, "
                             "coalescing at 64 concurrent identical "
                             "requests) and append to "
                             "BENCH_service.json instead")
    parser.add_argument("--byzantine", action="store_true",
                        help="measure the byzantine machinery "
                             "(rounds/s for the message-passing "
                             "engine, byzantine-injection overhead "
                             "vs clean on the count engine) and "
                             "append to BENCH_byzantine.json instead")
    parser.add_argument("--distributed", action="store_true",
                        help="measure distributed sweep execution "
                             "(default-scale figure-4 wall time at "
                             "1/2/4/8 workers, duplicate audit, CSV "
                             "byte-identity) and append to "
                             "BENCH_sweeps.json instead")
    args = parser.parse_args(argv)

    if args.service:
        return service_report(label=args.label)
    if args.byzantine:
        return byzantine_report(label=args.label)
    if args.distributed:
        return distributed_report(label=args.label)
    unknown = sorted(set(args.engines) - set(ENGINE_NAMES))
    if unknown:
        parser.error(f"unknown engine(s) {unknown}; "
                     f"choose from {ENGINE_NAMES}")

    if args.dry_run:
        # Import/shape smoke check on the n = 10^4 workload: measure()
        # raises if the engine's telemetry disagrees with its results.
        outcome = measure("count-ensemble", 10)
        print(f"dry run ok: count-ensemble settled "
              f"{outcome['settled']}/10 trials at n={WORKLOAD['n']}, "
              f"{outcome['interactions_per_second']:.3g} "
              "interactions/s (not recorded)")
        return 0

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git": git_revision(),
        "label": args.label,
        "kernels": kernels_metadata(),
        "engines": {},
    }
    for engine in args.engines:
        trials = (WORKLOAD["trials"] if args.full
                  else QUICK_TRIALS.get(engine, WORKLOAD["trials"]))
        print(f"measuring {engine} ({trials} trials)...", flush=True)
        record["engines"][engine] = measure(engine, trials)
        per_sec = record["engines"][engine]["interactions_per_second"]
        print(f"  {engine}: {per_sec:.3g} interactions/s "
              f"in {record['engines'][engine]['seconds']} s")
    if {"count", "ensemble"} <= record["engines"].keys():
        record["speedup_ensemble_vs_count"] = round(
            record["engines"]["ensemble"]["interactions_per_second"]
            / record["engines"]["count"]["interactions_per_second"], 2)
        print(f"ensemble vs count: "
              f"{record['speedup_ensemble_vs_count']}x per interaction")

    if args.scaling:
        record["scaling"] = measure_scaling(args.engines)

    if OUTPUT.exists():
        document = json.loads(OUTPUT.read_text())
    else:
        document = {"workload": WORKLOAD, "history": []}
    document["history"].append(record)
    OUTPUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"appended record to {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
