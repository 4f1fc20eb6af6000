"""Byzantine robustness: where exactness breaks as ``f`` grows.

The paper's protocols are *exact* under fair scheduling: AVC and the
four-state baseline always output the true initial majority.  That
guarantee assumes every agent follows the protocol.  This experiment
measures what survives when ``f`` of the ``n`` agents are byzantine —
they present adversarially chosen states in every meeting and never
update their own (:mod:`repro.faults`, ``byzantine_f`` /
``byzantine_mode``) — sweeping ``f`` from 0 to beyond the initial
margin for AVC and the four-state protocol side by side.

Two adversaries, selected with ``--mode``:

* ``stubborn`` — every byzantine agent permanently claims the initial
  *minority* input, the strongest fixed lie against an exact-majority
  protocol;
* ``adaptive`` — byzantine agents watch the live counts and claim the
  input of whichever opinion is currently *trailing*, maximizing
  disruption against cancellation-based dynamics.

The adversary is armed for the robustness sweep's fault window (the
horizon, in parallel-time units) and then released, so the sweep
measures what Lemma A.1's self-stabilization argument can and cannot
absorb: after the window closes the protocol re-converges to *some*
unanimous configuration, and the question is whether the honest
majority's signal survived the corruption.  (An adversary armed
forever trivially wins at any ``f >= 1`` — byzantine agents never
update, so like voter-model zealots they drag every run to their
preferred absorbing state eventually; the horizon is what makes the
breakdown a function of ``f``.)  The breakdown shows up as
``residual_error`` climbing from 0 once the lies injected during the
window overwhelm the initial advantage, with AVC's averaging dynamics
and the four-state baseline breaking at visibly different budgets.

The sweep deliberately reuses the robustness sweep's geometry (same
population, advantage, trials, budget, and per-point seed formula), so
the ``f = 0`` control points carry *identical fingerprints* to
``python -m repro robustness``'s rate-0.0 controls for AVC and the
four-state protocol: a warm run store serves them without
re-simulation, in either direction.

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
from ..runstore import Orchestrator
from ..sim.run import RunSpec
from .config import Scale, resolve_scale
from .io import format_table, write_csv
from .plotting import ascii_chart
from .robustness import DEFAULT_SEED, _advantage
from .runner import (
    add_sweep_arguments,
    add_telemetry_arguments,
    finish_sweep,
    sweep_orchestrator,
    telemetry_session,
)

__all__ = ["BYZANTINE_MODES", "byzantine_spec_for", "byzantine_rows",
           "main"]

BYZANTINE_MODES = ("stubborn", "adaptive")


def byzantine_spec_for(f: int, mode: str,
                       horizon: int) -> FaultSpec | None:
    """The :class:`FaultSpec` for one sweep cell; ``None`` at ``f=0``.

    ``f = 0`` deliberately returns ``None`` rather than a null spec:
    the honest baseline then shares its fingerprint with ordinary
    majority runs — and with the robustness sweep's rate-0.0 controls —
    so a warm run store serves it without re-simulation.
    """
    if f == 0:
        return None
    return FaultSpec(byzantine_f=f, byzantine_mode=mode,
                     horizon=horizon)


def _protocols():
    # The first two robustness-sweep protocols, in the same order, so
    # the f=0 seeds (seed + proto_index) coincide with the robustness
    # rate-0 controls point for point.  The three-state baseline is
    # excluded: it is only approximate even with zero adversaries, so
    # it has no exactness to break.
    return (AVCProtocol(m=15, d=1), FourStateProtocol())


def byzantine_rows(scale: Scale, *, mode: str = "stubborn",
                   seed: int = DEFAULT_SEED, progress=None,
                   orchestrator: Orchestrator | None = None
                   ) -> list[dict]:
    """Compute the byzantine sweep; one row per (f, protocol).

    With an ``orchestrator``, every point is served from the run store
    when cached and checkpointed to the sweep journal while computing;
    without one the rows are computed identically, just not persisted.
    """
    if mode not in BYZANTINE_MODES:
        raise ValueError(
            f"unknown byzantine mode {mode!r}; choose from "
            f"{BYZANTINE_MODES}")
    orch = Orchestrator() if orchestrator is None else orchestrator
    n = scale.robustness_population
    advantage = _advantage(n)
    epsilon = advantage / n
    horizon = int(scale.robustness_horizon * n)
    rows = []
    for f_index, f in enumerate(scale.byzantine_budgets):
        faults = byzantine_spec_for(f, mode, horizon)
        describe = ("fault-free" if faults is None
                    else f"byzantine-{mode}@f={f}")
        for proto_index, protocol in enumerate(_protocols()):
            if progress is not None:
                progress(f"byzantine: {describe} "
                         f"protocol={protocol.name}")
            row = orch.spec_point(RunSpec(
                protocol, n=n, epsilon=epsilon,
                num_trials=scale.robustness_trials,
                seed=seed + 1000 * f_index + proto_index,
                faults=faults, max_steps=scale.robustness_budget),
                kind="robustness-point", describe=describe)
            # In place, not dict(row, ...): in work-queue mode `row`
            # is a placeholder filled by drain(), and the store hands
            # out fresh copies, so augmenting it is safe either way.
            row["byzantine_f"] = f
            row["byzantine_mode"] = mode
            row["advantage"] = advantage
            rows.append(row)
    orch.drain()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro byzantine", description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default=None,
                        help="smoke | default | paper")
    parser.add_argument("--smoke", action="store_true",
                        help="shorthand for --scale smoke")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", default="stubborn",
                        choices=BYZANTINE_MODES,
                        help="which adversary to sweep")
    add_sweep_arguments(parser, workers=True)
    add_telemetry_arguments(parser)
    args = parser.parse_args(argv)

    scale = resolve_scale("smoke" if args.smoke else args.scale)
    progress = lambda msg: print(f"  [{msg}]", flush=True)  # noqa: E731
    sweep = f"byzantine_{args.mode}_{scale.name}"
    with telemetry_session(args, session=sweep):
        orchestrator, output_dir = sweep_orchestrator(
            sweep, args, progress=progress)
        rows = byzantine_rows(scale, mode=args.mode, seed=args.seed,
                              progress=progress,
                              orchestrator=orchestrator)
        columns = ("byzantine_f", "protocol", "residual_error",
                   "settled_fraction", "mean_recovery_time",
                   "std_recovery_time", "mean_fault_events",
                   "mean_parallel_time", "trials", "n", "advantage",
                   "byzantine_mode", "fault_model", "engine")
        print(format_table(
            rows, columns=columns,
            title=f"Byzantine exactness breakdown ({args.mode}, "
                  f"scale={scale.name}, "
                  f"n={scale.robustness_population}, "
                  f"advantage={rows[0]['advantage']})"))
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            kind = row["protocol"].split("(")[0]
            series.setdefault(kind, []).append(
                (float(row["byzantine_f"]), row["residual_error"]))
        print()
        # Linear x: the sweep includes the honest baseline f=0.
        print(ascii_chart(series, log_x=False, log_y=False,
                          title=f"Residual error vs byzantine f "
                                f"({args.mode})",
                          x_label="f", y_label="error"))
        path = write_csv(f"{output_dir}/{sweep}.csv", rows,
                         columns=columns)
        print(f"\nwrote {path}")
        print(finish_sweep(orchestrator))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
