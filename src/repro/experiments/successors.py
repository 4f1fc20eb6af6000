"""Successors: AVC vs. phase-clocked exact-majority descendants.

The paper's average-and-conquer (AVC) protocol settled the
``O(log^2 n)``-time exact-majority question in 2015; the next
generation of protocols reached the same guarantee with
``O(log n)``-ish *state* budgets by replacing AVC's value-averaging
with phase-clocked cancellation/doubling tournaments.  This sweep
runs AVC head-to-head against two such successors from the registry:

* ``phase-doubling`` — Berenbrink et al.'s
  cancellation/doubling tournament (arXiv:1805.05157): opinions carry
  power-of-two weights, equal-weight opposites cancel, and a shared
  leaderless clock paces the doubling rounds;
* ``log-state`` — a role-partitioned ``O(log n)``-state protocol in
  the style of Ben-Nun et al. (arXiv:2011.12633): cancelled pairs
  retire into a clock junta that paces the survivors' tournament.

For each population size ``n`` every protocol is sized for that
population (``levels = ceil(log2 n)``; AVC keeps the paper's
``m = 63`` workhorse) and we report mean parallel time-to-stabilize
together with the protocol's state count ``s`` — the time-vs-``n``
and time-vs-``s`` trade-off in one table.  All engines are exact, so
``error_fraction`` must be 0.0 for every row.

Protocols are resolved **by name** through
:mod:`repro.protocols.registry`, exactly as the JSON wire form does —
the sweep doubles as an end-to-end exercise of the registry path, and
its run-store keys are shared with any client that requests the same
points by name.
"""

from __future__ import annotations

import argparse
import math

from ..protocols import registry
from ..runstore import Orchestrator
from ..sim.run import RunSpec
from .config import Scale, resolve_scale
from .io import format_table, write_csv
from .plotting import ascii_chart
from .runner import (
    add_sweep_arguments,
    add_telemetry_arguments,
    finish_sweep,
    sweep_orchestrator,
    telemetry_session,
)

__all__ = ["successor_specs", "successors_rows", "main"]

#: Root seed; every (n, protocol) point derives its own stream.
DEFAULT_SEED = 20180514


def successor_specs(n: int) -> tuple[tuple[str, dict], ...]:
    """Registry ``(name, params)`` pairs for a population of ``n``.

    The successors are sized for ``n`` (``levels = ceil(log2 n)``, the
    smallest level budget whose total token weight can represent any
    initial margin); AVC uses the paper's fixed ``m = 63`` instance.
    """
    levels = max(1, math.ceil(math.log2(n)))
    return (
        ("avc", {"m": 63, "d": 1}),
        ("phase-doubling", {"levels": levels, "theta": 4}),
        ("log-state", {"levels": levels, "phase_len": 4}),
    )


def successors_rows(scale: Scale, *, seed: int = DEFAULT_SEED,
                    engine: str = "auto", progress=None,
                    orchestrator: Orchestrator | None = None
                    ) -> list[dict]:
    """One row per (n, protocol), augmented with the state count.

    With an ``orchestrator``, every point is served from the run store
    when cached and checkpointed to the sweep journal while computing;
    without one the rows are computed identically, just not persisted.
    """
    orch = Orchestrator() if orchestrator is None else orchestrator
    rows = []
    for point_index, n in enumerate(scale.successors_populations):
        for proto_index, (name, params) in enumerate(successor_specs(n)):
            protocol = registry.create(name, params)
            if progress is not None:
                progress(f"successors: n={n} protocol={protocol.name} "
                         f"s={protocol.num_states}")
            row = orch.spec_point(RunSpec(
                protocol, n=n, epsilon=scale.successors_epsilon,
                num_trials=scale.successors_trials,
                seed=seed + 1000 * point_index + proto_index,
                engine=engine))
            # In place, not dict(row): in work-queue mode `row` is a
            # placeholder filled by drain(), and the store hands out
            # fresh copies, so augmenting it is safe either way.
            row["num_states"] = protocol.num_states
            rows.append(row)
    orch.drain()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro successors", description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default=None,
                        help="smoke | default | paper")
    parser.add_argument("--smoke", action="store_true",
                        help="shorthand for --scale smoke")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--engine", default="auto",
                        help="engine (or auto) for every run; the "
                             "default picks an exact engine per point")
    add_sweep_arguments(parser, workers=True)
    add_telemetry_arguments(parser)
    args = parser.parse_args(argv)

    scale_name = "smoke" if args.smoke else args.scale
    scale = resolve_scale(scale_name)
    progress = lambda msg: print(f"  [{msg}]", flush=True)  # noqa: E731
    with telemetry_session(args, session=f"successors_{scale.name}"):
        orchestrator, output_dir = sweep_orchestrator(
            f"successors_{scale.name}", args, progress=progress)
        rows = successors_rows(scale, seed=args.seed,
                               engine=args.engine, progress=progress,
                               orchestrator=orchestrator)
        columns = ("n", "protocol", "num_states", "mean_parallel_time",
                   "std_parallel_time", "error_fraction", "trials",
                   "settled_fraction", "engine")
        print(format_table(rows, columns=columns,
                           title=f"Successors (scale={scale.name}, "
                                 f"eps={scale.successors_epsilon})"))
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            kind = row["protocol"].split("(")[0]
            series.setdefault(kind, []).append(
                (row["n"], row["mean_parallel_time"]))
        print()
        print(ascii_chart(series, title="Successors: parallel "
                                        "time-to-stabilize vs n",
                          x_label="n", y_label="time"))
        path = write_csv(f"{output_dir}/successors_{scale.name}.csv",
                         rows)
        print(f"\nwrote {path}")
        print(finish_sweep(orchestrator))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
