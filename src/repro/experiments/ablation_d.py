"""abl-d: does the number of intermediate levels ``d`` matter?

Section 6 of the paper: "The above experiments were performed setting
d = 1 ... The multiple levels of 1 and -1 are necessary in the
analysis; however, setting d > 1 does not significantly affect the
running time of the protocol in the experiments."

This ablation fixes ``m`` and the population and sweeps ``d``.  Note
that raising ``d`` also raises the state count ``s = m + 2d + 1``, so
a flat curve here genuinely isolates ``d`` (states added as levels
buy nothing, unlike states added as weights via ``m``).
"""

from __future__ import annotations

import argparse

from ..core.avc import AVCProtocol
from ..runstore import Orchestrator
from ..sim.run import RunSpec
from .config import Scale, resolve_scale
from .io import format_table, write_csv
from .runner import (
    add_sweep_arguments,
    add_telemetry_arguments,
    finish_sweep,
    sweep_orchestrator,
    telemetry_session,
)

__all__ = ["ablation_d_rows", "main"]

DEFAULT_SEED = 20150717


def ablation_d_rows(scale: Scale, *, seed: int = DEFAULT_SEED,
                    progress=None,
                    orchestrator: Orchestrator | None = None) -> list[dict]:
    """One row per ``d``, at margin one agent (the hardest input)."""
    orch = Orchestrator() if orchestrator is None else orchestrator
    n = scale.ablation_d_population
    epsilon = 1.0 / n
    rows = []
    for index, d in enumerate(scale.ablation_d_levels):
        protocol = AVCProtocol(m=scale.ablation_d_m, d=d)
        if progress is not None:
            progress(f"ablation-d: d={d} (s={protocol.num_states})")
        row = orch.spec_point(RunSpec(
            protocol, n=n, epsilon=epsilon,
            num_trials=scale.ablation_d_trials,
            seed=seed + index, engine="count"))
        row["d"] = d
        row["m"] = scale.ablation_d_m
        row["s"] = protocol.num_states
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro ablation-d", description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_sweep_arguments(parser)
    add_telemetry_arguments(parser)
    args = parser.parse_args(argv)

    scale = resolve_scale(args.scale)
    with telemetry_session(args, session=f"ablation_d_{scale.name}"):
        return _run_sweep(args, scale)


def _run_sweep(args, scale: Scale) -> int:
    progress = lambda msg: print(f"  [{msg}]", flush=True)  # noqa: E731
    orchestrator, output_dir = sweep_orchestrator(
        f"ablation_d_{scale.name}", args, progress=progress)
    rows = ablation_d_rows(scale, seed=args.seed, progress=progress,
                           orchestrator=orchestrator)
    columns = ("d", "m", "s", "n", "epsilon", "mean_parallel_time",
               "std_parallel_time", "trials", "error_fraction")
    print(format_table(rows, columns=columns,
                       title=f"d-ablation (scale={scale.name})"))
    path = write_csv(f"{output_dir}/ablation_d_{scale.name}.csv", rows)
    print(f"\nwrote {path}")
    print(finish_sweep(orchestrator))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
