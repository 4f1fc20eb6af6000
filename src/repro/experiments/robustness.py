"""Robustness: recovery from injected faults, protocol by protocol.

The paper's protocols are self-stabilizing in different degrees: AVC
and the four-state protocol decide *exactly* and re-converge after
transient corruption (Lemma A.1's argument — unanimous configurations
are absorbing and every reachable configuration leads back to one),
while the three-state protocol is approximate and can be pushed to the
wrong answer.  This experiment quantifies that story with the
:mod:`repro.faults` subsystem: for each per-interaction fault rate we
inject faults for a fixed window (the *horizon*, in parallel-time
units) and measure

* **recovery time** — parallel time from the end of the fault window
  to settlement, averaged over settled runs (rate ``0.0`` is the
  fault-free baseline, where this is ordinary convergence time),
* **residual error** — the fraction of runs that end on the wrong (or
  no) decision despite the protocol's dynamics.

Three fault kinds, selected with ``--fault-kind``:

* ``flip`` — uniform transient state corruption at the given
  per-interaction rate;
* ``churn`` — agent crashes and joins, each at half the given rate,
  so the expected population drift is zero while its variance grows;
* ``drop`` — message-level faults: dropped interactions at the given
  rate plus one-way (initiator-only) deliveries at half of it.

Every point runs through the sweep orchestrator: points are cached by
the fingerprint of (protocol, population, fault model, seed, ...), so
re-invocations complete from the run store and ``--resume`` replays
chunk checkpoints after a crash.
"""

from __future__ import annotations

import argparse

from ..core.avc import AVCProtocol
from ..faults import FaultSpec
from ..protocols.four_state import FourStateProtocol
from ..protocols.three_state import ThreeStateProtocol
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

__all__ = ["FAULT_KINDS", "fault_spec_for", "robustness_rows", "main"]

#: Root seed; every (rate, protocol) point derives its own stream.
DEFAULT_SEED = 20150901

FAULT_KINDS = ("flip", "churn", "drop")


def fault_spec_for(kind: str, rate: float,
                   horizon: int) -> FaultSpec | None:
    """The :class:`FaultSpec` for one sweep cell; ``None`` at rate 0.

    Rate ``0.0`` deliberately returns ``None`` rather than a null
    spec: the fault-free baseline then shares its fingerprint with
    ordinary majority runs, so a warm run store serves it without
    re-simulation.
    """
    if rate == 0.0:
        return None
    if kind == "flip":
        return FaultSpec(flip_prob=rate, horizon=horizon)
    if kind == "churn":
        return FaultSpec(crash_prob=rate / 2, join_prob=rate / 2,
                         horizon=horizon)
    if kind == "drop":
        return FaultSpec(drop_prob=rate, oneway_prob=rate / 2,
                         horizon=horizon)
    raise ValueError(
        f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")


def _protocols():
    return (AVCProtocol(m=15, d=1), FourStateProtocol(),
            ThreeStateProtocol())


def _advantage(n: int) -> int:
    """A 10% initial advantage, rounded to keep ``count_a`` integral."""
    adv = max(1, int(0.1 * n))
    if (n + adv) % 2:
        adv += 1
    return adv


def robustness_rows(scale: Scale, *, fault_kind: str = "flip",
                    seed: int = DEFAULT_SEED, progress=None,
                    orchestrator: Orchestrator | None = None
                    ) -> list[dict]:
    """Compute the robustness sweep; one row per (rate, protocol).

    With an ``orchestrator``, every point is served from the run store
    when cached and checkpointed to the sweep journal while computing;
    without one the rows are computed identically, just not persisted.
    """
    if fault_kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {fault_kind!r}; choose from "
            f"{FAULT_KINDS}")
    orch = Orchestrator() if orchestrator is None else orchestrator
    n = scale.robustness_population
    epsilon = _advantage(n) / n
    horizon = int(scale.robustness_horizon * n)
    rows = []
    for rate_index, rate in enumerate(scale.robustness_rates):
        faults = fault_spec_for(fault_kind, rate, horizon)
        describe = ("fault-free" if faults is None
                    else f"{fault_kind}@{rate:g}")
        for proto_index, protocol in enumerate(_protocols()):
            if progress is not None:
                progress(f"robustness: {describe} "
                         f"protocol={protocol.name}")
            row = orch.spec_point(RunSpec(
                protocol, n=n, epsilon=epsilon,
                num_trials=scale.robustness_trials,
                seed=seed + 1000 * rate_index + proto_index,
                faults=faults, max_steps=scale.robustness_budget),
                kind="robustness-point", describe=describe)
            # In place, not dict(row, ...): in work-queue mode `row`
            # is a placeholder filled by drain(), and the store hands
            # out fresh copies, so augmenting it is safe either way.
            row["fault_kind"] = fault_kind
            row["fault_rate"] = rate
            rows.append(row)
    orch.drain()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro robustness", description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default=None,
                        help="smoke | default | paper")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--fault-kind", default="flip",
                        choices=FAULT_KINDS,
                        help="which fault class to sweep")
    add_sweep_arguments(parser, workers=True)
    add_telemetry_arguments(parser)
    args = parser.parse_args(argv)

    scale = resolve_scale(args.scale)
    progress = lambda msg: print(f"  [{msg}]", flush=True)  # noqa: E731
    sweep = f"robustness_{args.fault_kind}_{scale.name}"
    with telemetry_session(args, session=sweep):
        orchestrator, output_dir = sweep_orchestrator(
            sweep, args, progress=progress)
        rows = robustness_rows(scale, fault_kind=args.fault_kind,
                               seed=args.seed, progress=progress,
                               orchestrator=orchestrator)
        columns = ("fault_rate", "protocol", "mean_recovery_time",
                   "residual_error", "settled_fraction",
                   "mean_fault_events", "std_recovery_time",
                   "mean_parallel_time", "trials", "n", "fault_kind",
                   "fault_model", "engine")
        print(format_table(rows, columns=columns,
                           title=f"Robustness ({args.fault_kind}, "
                                 f"scale={scale.name}, "
                                 f"n={scale.robustness_population})"))
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            if row["mean_recovery_time"] is None:
                continue
            kind = row["protocol"].split("(")[0]
            series.setdefault(kind, []).append(
                (row["fault_rate"], row["mean_recovery_time"]))
        print()
        # Linear x: the sweep includes the fault-free rate 0.0.
        print(ascii_chart(series, log_x=False,
                          title=f"Recovery time vs {args.fault_kind} "
                                "rate",
                          x_label="rate", y_label="time"))
        path = write_csv(f"{output_dir}/{sweep}.csv", rows,
                         columns=columns)
        print(f"\nwrote {path}")
        print(finish_sweep(orchestrator))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
