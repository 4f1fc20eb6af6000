"""Figure 4: AVC convergence time vs margin ``eps`` and state count ``s``.

Reproduces both panels of the paper's Figure 4 with a single sweep:
for each state count ``s`` (the paper's list runs 4, 6, 12, ...,
16340) and each margin ``eps`` we measure the mean parallel
convergence time of ``AVCProtocol.with_num_states(s)`` on a fixed
population.

* **left panel** — time vs ``eps``, one curve per ``s``: curves shift
  down as ``s`` grows, each showing the ``Theta(1/eps)`` ramp for
  small ``eps`` (until ``s`` is comparable to ``n``, where the curve
  flattens);
* **right panel** — the same points plotted against the product
  ``s * eps``: the curves collapse, supporting the ``Theta~(1/(s eps))``
  dominant term of Theorem 4.1.

Margins are chosen log-spaced with the agent-advantage rounded to odd
integers (the populations are odd, so the split stays integral).

Every point runs on ``engine="auto"`` by default: with a compiled
kernel backend the ``s = 4`` row takes null skipping and the rest the
compiled count ensemble; without one ``s <= 16`` takes null skipping
and the larger ``s`` the token ensemble (see ``docs/engines.md``).
All of them are exact.
"""

from __future__ import annotations

import argparse
import math

from ..core.avc import AVCProtocol
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

__all__ = ["margin_advantages", "figure4_rows", "main"]

DEFAULT_SEED = 20150716


def margin_advantages(n: int, per_decade: int) -> list[int]:
    """Log-spaced odd agent advantages from 1 to ``~n/2``.

    ``per_decade`` controls the grid density.  The maximum advantage
    keeps both input counts positive.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError(f"population must be odd and >= 5, got {n}")
    largest = n // 2 if (n // 2) % 2 == 1 else n // 2 - 1
    decades = math.log10(largest) if largest > 1 else 0.0
    count = max(2, int(round(decades * per_decade)) + 1)
    advantages = []
    for k in range(count):
        raw = 10 ** (decades * k / (count - 1)) if count > 1 else 1.0
        advantage = int(round(raw))
        if advantage % 2 == 0:
            advantage += 1
        advantage = min(advantage, largest)
        if advantage not in advantages:
            advantages.append(advantage)
    return advantages


def figure4_rows(scale: Scale, *, seed: int = DEFAULT_SEED,
                 engine: str = "auto", progress=None,
                 orchestrator: Orchestrator | None = None) -> list[dict]:
    """One row per (s, eps) point, including the ``s * eps`` column."""
    orch = Orchestrator() if orchestrator is None else orchestrator
    n = scale.figure4_population
    advantages = margin_advantages(n, scale.figure4_margins_per_decade)
    rows = []
    for s_index, s in enumerate(scale.figure4_num_states):
        protocol = AVCProtocol.with_num_states(s)
        for a_index, advantage in enumerate(advantages):
            epsilon = advantage / n
            if progress is not None:
                progress(f"figure4: s={s} eps={epsilon:.2e}")
            row = orch.spec_point(RunSpec(
                protocol, n=n, epsilon=epsilon,
                num_trials=scale.figure4_trials,
                seed=seed + 10_000 * s_index + a_index,
                engine=engine))
            row["s"] = s
            row["s_times_epsilon"] = s * epsilon
            rows.append(row)
    orch.drain()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro figure4", description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default=None,
                        help="smoke | default | paper")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--engine", default="auto",
                        choices=("auto", "ensemble", "count", "batch"),
                        help="auto picks the fastest exact engine per "
                             "point; ensemble advances all trials of a "
                             "point at once (exact); batch trades "
                             "exactness for speed at paper scale")
    add_sweep_arguments(parser, workers=True)
    add_telemetry_arguments(parser)
    args = parser.parse_args(argv)

    scale = resolve_scale(args.scale)
    with telemetry_session(args, session=f"figure4_{scale.name}"):
        return _run_sweep(args, scale)


def _run_sweep(args, scale: Scale) -> int:
    progress = lambda msg: print(f"  [{msg}]", flush=True)  # noqa: E731
    orchestrator, output_dir = sweep_orchestrator(
        f"figure4_{scale.name}", args, progress=progress)
    rows = figure4_rows(scale, seed=args.seed, engine=args.engine,
                        progress=progress, orchestrator=orchestrator)
    columns = ("s", "epsilon", "s_times_epsilon", "mean_parallel_time",
               "std_parallel_time", "trials", "error_fraction")
    print(format_table(
        rows, columns=columns,
        title=f"Figure 4 (scale={scale.name}, n={scale.figure4_population})"))
    left_series: dict[str, list[tuple[float, float]]] = {}
    right_series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        label = f"s={row['s']}"
        left_series.setdefault(label, []).append(
            (row["epsilon"], row["mean_parallel_time"]))
        right_series.setdefault(label, []).append(
            (row["s_times_epsilon"], row["mean_parallel_time"]))
    print()
    print(ascii_chart(left_series,
                      title="Figure 4 (left): time vs eps, per s",
                      x_label="eps", y_label="time"))
    print()
    print(ascii_chart(right_series,
                      title="Figure 4 (right): time vs s*eps "
                            "(curves collapse)",
                      x_label="s*eps", y_label="time"))
    path = write_csv(f"{output_dir}/figure4_{scale.name}.csv", rows)
    print(f"\nwrote {path}")
    print(finish_sweep(orchestrator))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
