"""Figure 3: 3-state vs 4-state vs n-state AVC at margin one agent.

Reproduces both panels of the paper's Figure 3.  For each population
size ``n`` (odd, with ``eps = 1/n`` — the majority decided by a single
agent) and each protocol we report:

* **left panel** — mean parallel convergence time,
* **right panel** — the fraction of runs converging to the wrong
  final state (non-zero only for the approximate 3-state protocol).

Protocol/engine choices:

* three-state and four-state run on the exact null-skipping engine
  (the 4-state protocol at ``eps = 1/n`` needs ``Theta(n)`` parallel
  time = ``Theta(n^2)`` interactions, almost all null — skipping them
  is what makes ``n = 100001`` runnable);
* "n-state AVC" uses ``s = n + 1`` states (``m = n - 2``, ``d = 1``):
  the paper's odd ``n`` values make exactly-``n`` states inadmissible
  for ``d = 1`` since ``s = m + 3`` must be even, so we take the
  nearest admissible count.  It runs on ``engine="auto"`` by default,
  which advances all trials of a point at once on an exact vectorized
  ensemble: the compiled count ensemble from n = 17 when a kernel
  backend is usable, the token ensemble below that or without one
  (see ``docs/engines.md``).  Pass ``avc_engine="ensemble"`` (or
  ``"count-ensemble"``) to pin an ensemble, ``"count"`` for the
  sequential exact engine, or ``"batch"`` for the approximate
  vectorized engine at paper scale.

Expected shape (see EXPERIMENTS.md for measured values): the 4-state
protocol's time grows linearly in ``n`` (orders of magnitude above the
rest by ``n = 10^4``), the 3-state and AVC times stay
poly-logarithmic and comparable, and the 3-state error fraction is
large (close to 1/2 at ``eps = 1/n``) while AVC and 4-state never err.
"""

from __future__ import annotations

import argparse

from ..core.avc import AVCProtocol
from ..protocols.four_state import FourStateProtocol
from ..protocols.three_state import ThreeStateProtocol
from ..runstore import Orchestrator, RunStore
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

__all__ = ["avc_n_state", "figure3_rows", "main"]

#: Root seed; every (n, protocol) point derives its own stream.
DEFAULT_SEED = 20150715


def avc_n_state(n: int, d: int = 1) -> AVCProtocol:
    """The "n-state" AVC instance for a population of ``n`` agents.

    Returns the protocol with the smallest admissible state count
    ``>= n`` for the given ``d`` (``n + 1`` for odd ``n``, ``d = 1``).
    """
    s = n
    while True:
        m = s - 2 * d - 1
        if m >= 1 and m % 2 == 1:
            return AVCProtocol(m=m, d=d)
        s += 1


def _protocols_for(n: int, avc_engine: str):
    return (
        (ThreeStateProtocol(), "null-skipping"),
        (FourStateProtocol(), "null-skipping"),
        (avc_n_state(n), avc_engine),
    )


def figure3_rows(scale: Scale, *, seed: int = DEFAULT_SEED,
                 avc_engine: str = "auto", progress=None,
                 orchestrator: Orchestrator | None = None) -> list[dict]:
    """Compute both Figure 3 panels; one row per (n, protocol).

    With an ``orchestrator``, every point is served from the run store
    when cached and checkpointed to the sweep journal while computing;
    without one the rows are computed identically, just not persisted.
    """
    orch = Orchestrator() if orchestrator is None else orchestrator
    rows = []
    for point_index, n in enumerate(scale.figure3_populations):
        epsilon = 1.0 / n
        for proto_index, (protocol, engine) in enumerate(
                _protocols_for(n, avc_engine)):
            if progress is not None:
                progress(f"figure3: n={n} protocol={protocol.name}")
            row = orch.spec_point(RunSpec(
                protocol, n=n, epsilon=epsilon,
                num_trials=scale.figure3_trials,
                seed=seed + 1000 * point_index + proto_index,
                engine=engine))
            rows.append(row)
    orch.drain()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro figure3", description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default=None,
                        help="smoke | default | paper")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--avc-engine", default="auto",
                        choices=("auto", "ensemble", "count", "batch",
                                 "agent"),
                        help="engine for the n-state AVC runs (auto: "
                             "the fastest exact engine for the point, "
                             "a vectorized ensemble here)")
    add_sweep_arguments(parser, workers=True)
    add_telemetry_arguments(parser)
    args = parser.parse_args(argv)

    scale = resolve_scale(args.scale)
    progress = lambda msg: print(f"  [{msg}]", flush=True)  # noqa: E731
    with telemetry_session(args, session=f"figure3_{scale.name}"):
        orchestrator, output_dir = sweep_orchestrator(
            f"figure3_{scale.name}", args, progress=progress)
        rows = figure3_rows(scale, seed=args.seed,
                            avc_engine=args.avc_engine,
                            progress=progress, orchestrator=orchestrator)
        columns = ("n", "protocol", "mean_parallel_time",
                   "error_fraction", "std_parallel_time", "trials",
                   "settled_fraction", "engine")
        print(format_table(rows, columns=columns,
                           title=f"Figure 3 (scale={scale.name}, "
                                 f"eps=1/n)"))
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            kind = row["protocol"].split("(")[0]
            series.setdefault(kind, []).append(
                (row["n"], row["mean_parallel_time"]))
        print()
        print(ascii_chart(series, title="Figure 3 (left): parallel "
                                        "convergence time vs n",
                          x_label="n", y_label="time"))
        path = write_csv(f"{output_dir}/figure3_{scale.name}.csv", rows)
        print(f"\nwrote {path}")
        print(finish_sweep(orchestrator))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
