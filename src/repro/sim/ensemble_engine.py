"""Ensemble engine: exact simulation of many trials at once.

Paper-scale sweeps need hundreds of independent trials per ``(n, eps,
s)`` point.  Each trial is an independent copy of the *same* Markov
chain, so instead of looping trials in Python we advance all of them
simultaneously: the ensemble state is a ``(T, n)`` token matrix (one
row of agent states per trial) plus a ``(T, s)`` counts matrix, and
every *round* performs a window of interactions per live trial with a
fixed number of vectorized numpy operations.

Sampling, per trial row:

1. one uniform draw from ``[0, n(n-1))`` encodes the initiator token
   ``u`` and the responder token ``v`` (``u, v = divmod(r, n - 1)``);
2. the responder is sampled *without replacement* by skipping the
   initiator's token (``v += v >= u``) — tokens on the complete graph
   are exchangeable, so no shuffle is needed;
3. the states are two *gathers* from the token matrix (``i =
   agents[row, u]``, ``j = agents[row, v]``) — no cumulative sums or
   binary searches;
4. the transition goes through the protocol's dense ``s x s`` index
   tables; token cells are fancy-assigned and counts updated with
   ``np.add.at`` scatter ops (duplicate indices accumulate).

Each round *speculatively* samples a window of consecutive
interactions per row from its current configuration.  Null
interactions leave the configuration unchanged, so a row's
speculative draws are exactly its sequential draws up to and
including its first productive interaction; the rest is discarded.
A row therefore advances by ``min(window, geometric null-run + 1)``
interactions per round — the vectorized analogue of the null-skipping
engine's geometric jumps, without per-pair productivity weights —
and the window adapts to the observed null rate.  Trials keep
individual step clocks, so reported convergence steps are exact.

This is the :class:`~repro.sim.count_engine.CountEngine` chain,
trial-for-trial: the per-row distribution of ``(i, j)`` is ``c_i (c_j
- [i = j]) / (n (n - 1))``, so results are exact in distribution.
Converged rows are recorded and *compacted* out of the
matrices, so the live ensemble shrinks as trials finish and late
stragglers run at small-``T`` cost.

Convergence is tracked with O(1)-per-interaction unanimity class
counts (per changed row: agents with undecided / output-0 / output-1
states), which is why the vectorized path requires
``unanimity_settles = True`` — true for AVC, the three- and
four-state baselines, and the voter model.  For other protocols use
:meth:`EnsembleEngine.run` (exact, any protocol) or the count engine.

Throughput: gather-based sampling costs a few tens of nanoseconds per
drawn interaction plus a constant per-round dispatch overhead shared
by all ``T`` rows — well under a microsecond per interaction for
ensembles of ~64+ trials, several times past the count engine's
Python loop (measured ~7x on AVC s=66, n=10^4, 100 trials).
"""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np

from ..errors import InvalidParameterError, SimulationError
from ..faults import FaultRuntime, active_faults
from ..protocols.base import PopulationProtocol, State
from ..rng import ensure_rng
from ..telemetry.context import current as current_telemetry
from .engine import Engine, check_budget_sanity
from .ensemble_common import (
    class_tables,
    emit_chunk_telemetry,
    emit_fault_telemetry,
    flat_transition_tables,
)
from .results import RunResult

__all__ = ["EnsembleEngine"]

#: Block size for the scalar (single-run) compatibility path.
_BLOCK = 8192

#: Bounds for the adaptive speculative-sampling window (interactions
#: drawn per row per round in the vectorized path).
_MIN_WINDOW = 4
_MAX_WINDOW = 256


class EnsembleEngine(Engine):
    """Exact vectorized multi-trial simulation (complete graph only).

    The engine has two entry points:

    * :meth:`run_ensemble` — the vectorized path: ``T`` independent
      trials advanced together from one initial configuration,
      returning one :class:`RunResult` per trial.  Requires
      ``unanimity_settles`` protocols; recorders and event observers
      are not supported (there is no single trajectory to record).
    * :meth:`run` (inherited) — the standard single-run API, exact for
      any protocol and supporting observers/recorders; provided for
      validation and interface completeness.  For fast single runs
      prefer the count engine.

    ``run_trials(..., engine="ensemble")`` routes whole trial batches
    through :meth:`run_ensemble`; see :mod:`repro.sim.run`.
    """

    name = "ensemble"
    supports_faults = True
    supports_byzantine = True

    # ------------------------------------------------------------------
    # Vectorized ensemble path
    # ------------------------------------------------------------------

    def run_ensemble(self, initial_counts: Mapping[State, int], *,
                     num_trials: int,
                     rng=None,
                     max_steps: int | None = None,
                     max_parallel_time: float | None = None,
                     expected: int | None = None,
                     faults=None) -> list[RunResult]:
        """Simulate ``num_trials`` independent executions at once.

        Every trial starts from ``initial_counts`` and runs until it
        settles or the per-trial interaction budget is exhausted.
        Returns the per-trial results in trial order.  The ensemble
        draws from a single generator; with a fixed seed the whole
        batch is reproducible, and each trial's chain is exactly the
        count-engine chain in distribution.
        """
        protocol = self.protocol
        if num_trials < 1:
            raise InvalidParameterError(
                f"num_trials must be >= 1, got {num_trials}")
        if not getattr(protocol, "unanimity_settles", False):
            raise SimulationError(
                f"{protocol.name}: the vectorized ensemble path requires "
                "unanimity_settles protocols; use EnsembleEngine.run() or "
                "CountEngine for generic settledness predicates")
        base = protocol.counts_to_vector(initial_counts)
        n = int(base.sum())
        if n < 2:
            raise InvalidParameterError(
                f"population must have at least 2 agents, got {n}")
        budget = self._resolve_budget(n, max_steps, max_parallel_time)
        check_budget_sanity(budget)
        generator = ensure_rng(rng)
        runtime = None
        active = active_faults(faults)
        if active is not None:
            # Adversarial schedulers need the explicit-agents engine;
            # everything else is injected vectorized below.
            runtime = FaultRuntime.build(active, protocol,
                                         expected=expected,
                                         scheduler_ok=False,
                                         byzantine_ok=True, n=n)
        # Telemetry records per-chunk aggregates only — the hot loop
        # just bumps two local ints per vectorized round.
        telemetry = current_telemetry()
        started = time.perf_counter() if telemetry.enabled else 0.0
        rounds = 0
        drawn = 0

        s = protocol.num_states
        table_x, table_y, nonnull, _ = flat_transition_tables(protocol)
        # Output class per state: 0 = undecided, 1 = output 0, 2 = output 1.
        state_class, class_matrix = class_tables(protocol)
        base_class = np.bincount(state_class, weights=base,
                                 minlength=3).astype(np.int64)

        def row_result(steps, settled, decision, vector, productive,
                       events=None):
            return RunResult(
                protocol_name=protocol.name,
                engine_name=self.name,
                n=n,
                steps=int(steps),
                settled=settled,
                decision=decision,
                expected=expected,
                final_counts=protocol.vector_to_counts(vector),
                productive_steps=int(productive),
                continuous_time=None,
                frozen=False,
                fault_events=events,
            )

        def class_decision(class_counts):
            return 1 if class_counts[2] > 0 else 0

        results: list[RunResult | None] = [None] * num_trials
        if ((base_class[0] == 0
                and (base_class[1] == 0) != (base_class[2] == 0))
                and (runtime is None or runtime.hold_until == 0)):
            # Already settled: every trial converges at step 0.  (A
            # fault window that can unsettle the configuration holds
            # the trials in the arena instead — see repro.faults.)
            result = row_result(0, True, class_decision(base_class), base,
                                0, runtime.events() if runtime else None)
            results = [result] * num_trials
            if telemetry.enabled:
                self._emit_chunk_telemetry(
                    telemetry, time.perf_counter() - started, n,
                    results, rounds, drawn)
            return results

        if runtime is not None:
            return self._run_ensemble_faulted(
                runtime, base, n, num_trials, budget, generator,
                telemetry, started, row_result)

        counts = np.tile(base, (num_trials, 1))          # (T, s) live matrix
        # Token matrix: agents[r, t] is the state of token t in trial
        # r.  On the complete graph the tokens are exchangeable, so a
        # uniform token draw hits a uniform agent and no shuffle is
        # needed; two gathers replace the cumulative-sum search a
        # count-vector representation would require.  int32 keeps the
        # matrix compact (states are capped at 4096 by run.py).
        agents = np.tile(np.repeat(np.arange(s, dtype=np.int32), base),
                         (num_trials, 1))                # (T, n) tokens
        trial_ids = np.arange(num_trials)
        productive = np.zeros(num_trials, dtype=np.int64)
        steps_r = np.zeros(num_trials, dtype=np.int64)   # per-trial clock
        live = num_trials
        span = n * (n - 1)
        row_idx = np.arange(live)[None, :]   # broadcast row selector
        counts_flat = counts.reshape(-1)     # view; tracks updates
        window = _MIN_WINDOW

        # Each round speculatively samples a window of ``window``
        # consecutive interactions for every live row from its
        # *current* configuration.  Null interactions leave it
        # unchanged, so a row's speculative draws are exactly its
        # sequential draws up to and including its first productive
        # interaction; everything after it is discarded (the
        # distribution over the next pair changed).  Each row thus
        # advances by min(window, its geometric null-run + 1)
        # interactions per round, amortizing the fixed numpy dispatch
        # cost of a round across many null steps — the vectorized
        # analogue of the null-skipping engine's geometric jumps,
        # without needing per-pair productivity weights.
        while live:
            remaining = budget - steps_r     # >= 1 for every live row
            w = min(window, int(remaining.max()))
            rounds += 1
            drawn += w * live
            raw = generator.integers(0, span, size=(w, live),
                                     dtype=np.int64)
            u, v = np.divmod(raw, n - 1)
            # Responder without replacement: v indexes the n - 1
            # tokens left after removing the initiator's token u.
            v += v >= u
            i = agents[row_idx, u]
            j = agents[row_idx, v]
            pair = i * s + j
            changed = nonnull[pair]          # (w, live)

            hit = changed.any(axis=0)
            first = np.where(hit, np.argmax(changed, axis=0), w)
            # A row consumes its null prefix plus (budget permitting)
            # the productive interaction that ends it.
            apply_mask = hit & (first < remaining)
            consumed = np.where(apply_mask, first + 1,
                                np.minimum(w, remaining))
            steps_r += consumed

            idx = np.flatnonzero(apply_mask)
            settled_live = np.zeros(live, dtype=bool)
            if idx.size:
                productive[idx] += 1
                at = first[idx]
                old_i = i[at, idx].astype(np.int64)
                old_j = j[at, idx].astype(np.int64)
                hot = old_i * s + old_j
                new_i = table_x[hot]
                new_j = table_y[hot]
                idx2 = np.concatenate([idx, idx])
                agents[idx2, np.concatenate([u[at, idx], v[at, idx]])] \
                    = np.concatenate([new_i, new_j])
                base_flat = idx * s
                # Count updates through flat indices; duplicate cells
                # within a row accumulate correctly.
                np.subtract.at(
                    counts_flat,
                    np.concatenate([base_flat + old_i,
                                    base_flat + old_j]),
                    1)
                np.add.at(
                    counts_flat,
                    np.concatenate([base_flat + new_i,
                                    base_flat + new_j]),
                    1)

                # Only rows that changed can have settled; their
                # per-class agent counts come from one small matmul.
                cls = counts[idx] @ class_matrix
                done_sub = ((cls[:, 0] == 0)
                            & ((cls[:, 1] == 0) != (cls[:, 2] == 0)))
                for where in np.flatnonzero(done_sub):
                    pos = idx[where]
                    results[trial_ids[pos]] = row_result(
                        steps_r[pos], True, class_decision(cls[where]),
                        counts[pos], productive[pos])
                settled_live[idx[done_sub]] = True

            exhausted = steps_r >= budget
            retire = settled_live | exhausted
            if retire.any():
                for pos in np.flatnonzero(exhausted & ~settled_live):
                    # Budget exhausted with the trial still undecided.
                    results[trial_ids[pos]] = row_result(
                        budget, False, None, counts[pos], productive[pos])
                keep = ~retire
                counts = counts[keep]
                agents = agents[keep]
                trial_ids = trial_ids[keep]
                productive = productive[keep]
                steps_r = steps_r[keep]
                live = len(trial_ids)
                if not live:
                    break
                row_idx = np.arange(live)[None, :]
                counts_flat = counts.reshape(-1)
            # Track ~2x the mean consumed run length so most rows find
            # their next productive interaction within the window.
            window = int(np.clip(2.0 * consumed.mean(),
                                 _MIN_WINDOW, _MAX_WINDOW))
        if telemetry.enabled:
            self._emit_chunk_telemetry(
                telemetry, time.perf_counter() - started, n,
                results, rounds, drawn)
        return results  # type: ignore[return-value]

    def _run_ensemble_faulted(self, runtime, base, n, num_trials, budget,
                              generator, telemetry, started, row_result):
        """Vectorized ensemble loop with mask-based fault injection.

        The clean path's speculation stays exact here because every
        fault event is a *configuration change*: a window's draws are
        valid exactly up to the first tick whose configuration differs
        from the one they were drawn from, and faults — like productive
        interactions — end that prefix.  Dropped meetings, one-way
        faults on null pairs, byzantine meetings whose lie induces a
        null transition, and floor-suppressed crashes leave the
        configuration intact, so speculation runs straight through
        them.  Byzantine corruption is applied as a masked rewrite of
        the presented pair before the transition gather (see the
        ``byz_f`` branch below).

        Two extra pieces of bookkeeping versus the clean loop:

        * ``n_live`` — per-row live population under churn; pairs are
          then drawn as floats scaled by each row's own ``n(n-1)``.
        * the *hold boundary* — rows below ``runtime.hold_until`` cap
          their consumption at it, so a trial that settles inside the
          fault window retires at exactly ``hold_until`` (matching the
          sequential engines tick for tick).
        """
        protocol = self.protocol
        s = protocol.num_states
        # nonnull_ow: under a one-way fault only the initiator
        # transitions, so the pair is productive iff its state changes.
        table_x, table_y, nonnull_full, nonnull_ow = \
            flat_transition_tables(protocol)
        _, class_matrix = class_tables(protocol)

        flip_p = runtime.flip_prob
        crash_p = runtime.crash_prob
        join_p = runtime.join_prob
        drop_p = runtime.drop_prob
        ow_p = runtime.oneway_prob
        byz_f = runtime.byz_f
        horizon = runtime.horizon
        hold_until = runtime.hold_until
        floor = runtime.floor
        churn = runtime.churn

        rounds = 0
        drawn = 0
        results: list[RunResult | None] = [None] * num_trials
        counts = np.tile(base, (num_trials, 1))
        agents = np.tile(np.repeat(np.arange(s, dtype=np.int32), base),
                         (num_trials, 1))
        trial_ids = np.arange(num_trials)
        productive = np.zeros(num_trials, dtype=np.int64)
        steps_r = np.zeros(num_trials, dtype=np.int64)
        n_live = np.full(num_trials, n, dtype=np.int64)
        ev_kinds = ["flips", "crashes", "joins", "drops", "oneway"]
        if byz_f:
            # Only byzantine runs carry the byzantine counters, so
            # pre-byzantine fault models keep their exact event dicts.
            ev_kinds += ["byzantine_lies", "byzantine_meetings"]
        ev = {kind: np.zeros(num_trials, dtype=np.int64)
              for kind in ev_kinds}
        live = num_trials
        row_sel = np.arange(live)[None, :]
        counts_flat = counts.reshape(-1)
        window = _MIN_WINDOW

        def finish(pos, steps, settled, decision):
            events = {kind: int(ev[kind][pos]) for kind in ev}
            for kind, value in events.items():
                setattr(runtime, kind, getattr(runtime, kind) + value)
            results[trial_ids[pos]] = row_result(
                steps, settled, decision, counts[pos], productive[pos],
                events)

        while live:
            remaining = budget - steps_r
            if hold_until:
                cap_r = np.where(steps_r < hold_until,
                                 np.minimum(hold_until - steps_r,
                                            remaining),
                                 remaining)
            else:
                cap_r = remaining
            w = min(window, int(cap_r.max()))
            rounds += 1
            drawn += w * live

            if churn:
                span_r = n_live * (n_live - 1)
                raw = (generator.random((w, live))
                       * span_r[None, :]).astype(np.int64)
                np.minimum(raw, span_r[None, :] - 1, out=raw)
                u, v = np.divmod(raw, (n_live - 1)[None, :])
            else:
                raw = generator.integers(0, n * (n - 1), size=(w, live),
                                         dtype=np.int64)
                u, v = np.divmod(raw, n - 1)
            v += v >= u
            i = agents[row_sel, u]
            j = agents[row_sel, v]
            pair = i * s + j

            if horizon is None:
                armed = None  # armed forever
            else:
                armed = ((steps_r[None, :] + np.arange(w)[:, None])
                         < horizon)

            def bernoulli(p):
                if p <= 0.0:
                    return None
                mask = generator.random((w, live)) < p
                if armed is not None:
                    mask &= armed
                return mask

            drop_ev = bernoulli(drop_p)
            ow_ev = bernoulli(ow_p)
            if ow_ev is not None and drop_ev is not None:
                ow_ev &= ~drop_ev  # a dropped meeting cannot be one-way
            flip_ev = bernoulli(flip_p)
            crash_ev = bernoulli(crash_p)
            join_ev = bernoulli(join_p)

            if byz_f:
                # Hypergeometric possession per meeting: initiator
                # byzantine with probability f/n, responder with
                # (f - [initiator byzantine])/(n - 1) — the fixed
                # corrupted-subset adversary in distribution (tokens
                # are exchangeable), and exactly the scalar engines'
                # chain.  Drawn as a separate batch after the fault
                # masks so pre-byzantine streams stay bit-identical.
                b1 = generator.random((w, live)) * n < byz_f
                b2 = (generator.random((w, live)) * (n - 1)
                      < byz_f - b1.astype(np.int64))
                if armed is not None:
                    b1 &= armed
                    b2 &= armed
                # One lie per live row, valid for the whole window:
                # speculation only consumes draws up to the first
                # configuration change, so the counts the adaptive
                # adversary reads are current for every consumed tick.
                lie_r = runtime.byzantine_lie_rows(counts)
                pres = (np.where(b1, lie_r[None, :], i) * s
                        + np.where(b2, lie_r[None, :], j))
                # A byzantine participant presents the lie but never
                # updates its own state.
                ni = np.where(b1, i, table_x[pres])
                nj = np.where(b2, j, table_y[pres])
                if ow_ev is not None:
                    nj = np.where(ow_ev, j, nj)
                inter_change = (ni != i) | (nj != j)
            else:
                ni = nj = None
                inter_change = nonnull_full[pair]
                if ow_ev is not None:
                    inter_change = np.where(ow_ev, nonnull_ow[pair],
                                            inter_change)
            if drop_ev is not None:
                inter_change &= ~drop_ev
            config_change = inter_change
            for mask in (flip_ev, crash_ev, join_ev):
                if mask is not None:
                    config_change = config_change | mask

            hit = config_change.any(axis=0)
            first = np.where(hit, np.argmax(config_change, axis=0), w)
            apply_mask = hit & (first < cap_r)
            consumed = np.where(apply_mask, first + 1,
                                np.minimum(w, cap_r))
            steps_pre = steps_r
            steps_r = steps_r + consumed

            if drop_ev is not None or ow_ev is not None or byz_f:
                prefix = np.arange(w)[:, None] < consumed[None, :]
                if drop_ev is not None:
                    ev["drops"] += (drop_ev & prefix).sum(axis=0)
                if ow_ev is not None:
                    ev["oneway"] += (ow_ev & prefix).sum(axis=0)
                if byz_f:
                    meet = b1 | b2
                    if drop_ev is not None:
                        meet &= ~drop_ev  # dropped meetings carry no lie
                    meet &= prefix
                    ev["byzantine_meetings"] += meet.sum(axis=0)
                    ev["byzantine_lies"] += np.where(
                        meet,
                        b1.astype(np.int64) + b2.astype(np.int64),
                        0).sum(axis=0)

            idx = np.flatnonzero(apply_mask)
            if idx.size:
                at = first[idx]
                # 1) the interaction (unless dropped; one-way rows keep
                #    the responder's state)
                old_i = i[at, idx].astype(np.int64)
                old_j = j[at, idx].astype(np.int64)
                if byz_f:
                    # ni/nj already fold in the lies and one-way mask.
                    new_i = ni[at, idx]
                    new_j = nj[at, idx]
                else:
                    hot = old_i * s + old_j
                    new_i = table_x[hot]
                    new_j = table_y[hot]
                    if ow_ev is not None:
                        new_j = np.where(ow_ev[at, idx], old_j, new_j)
                dropped_at = (drop_ev[at, idx] if drop_ev is not None
                              else np.zeros(idx.size, dtype=bool))
                prod = (~dropped_at) & ((new_i != old_i)
                                        | (new_j != old_j))
                rows_p = idx[prod]
                if rows_p.size:
                    productive[rows_p] += 1
                    atp = first[rows_p]
                    rows2 = np.concatenate([rows_p, rows_p])
                    agents[rows2,
                           np.concatenate([u[atp, rows_p],
                                           v[atp, rows_p]])] \
                        = np.concatenate([new_i[prod],
                                          new_j[prod]]).astype(np.int32)
                    base_flat = rows_p * s
                    np.subtract.at(
                        counts_flat,
                        np.concatenate([base_flat + old_i[prod],
                                        base_flat + old_j[prod]]),
                        1)
                    np.add.at(
                        counts_flat,
                        np.concatenate([base_flat + new_i[prod],
                                        base_flat + new_j[prod]]),
                        1)
                # 2) flips
                if flip_ev is not None:
                    rows_f = idx[flip_ev[at, idx]]
                    if rows_f.size:
                        ev["flips"][rows_f] += 1
                        position = (generator.random(rows_f.size)
                                    * n_live[rows_f]).astype(np.int64)
                        old = agents[rows_f, position].astype(np.int64)
                        new = runtime.sample_flip_states(generator,
                                                         rows_f.size)
                        moved = new != old
                        rows_m = rows_f[moved]
                        if rows_m.size:
                            agents[rows_m, position[moved]] \
                                = new[moved].astype(np.int32)
                            np.subtract.at(counts_flat,
                                           rows_m * s + old[moved], 1)
                            np.add.at(counts_flat,
                                      rows_m * s + new[moved], 1)
                # 3) crashes (floor-guarded, swap-remove the last token)
                if crash_ev is not None:
                    rows_k = idx[crash_ev[at, idx]]
                    rows_k = rows_k[n_live[rows_k] > floor]
                    if rows_k.size:
                        ev["crashes"][rows_k] += 1
                        position = (generator.random(rows_k.size)
                                    * n_live[rows_k]).astype(np.int64)
                        old = agents[rows_k, position].astype(np.int64)
                        agents[rows_k, position] \
                            = agents[rows_k, n_live[rows_k] - 1]
                        n_live[rows_k] -= 1
                        np.subtract.at(counts_flat, rows_k * s + old, 1)
                # 4) joins (grow the token matrix when at capacity)
                if join_ev is not None:
                    rows_j = idx[join_ev[at, idx]]
                    if rows_j.size:
                        capacity = agents.shape[1]
                        need = int(n_live[rows_j].max()) + 1
                        if need > capacity:
                            grow = max(need - capacity,
                                       max(8, capacity // 4))
                            agents = np.concatenate(
                                [agents,
                                 np.zeros((agents.shape[0], grow),
                                          dtype=np.int32)], axis=1)
                        new = runtime.sample_join_states(generator,
                                                         rows_j.size)
                        agents[rows_j, n_live[rows_j]] \
                            = new.astype(np.int32)
                        n_live[rows_j] += 1
                        ev["joins"][rows_j] += 1
                        np.add.at(counts_flat, rows_j * s + new, 1)

            # Settledness: rows that changed, plus rows crossing the
            # hold boundary this round (their settled verdict becomes
            # terminal exactly at hold_until).
            settled_live = np.zeros(live, dtype=bool)
            check = idx
            if hold_until:
                boundary = np.flatnonzero((steps_pre < hold_until)
                                          & (steps_r >= hold_until))
                check = np.union1d(idx, boundary)
            if check.size:
                cls = counts[check] @ class_matrix
                done_sub = ((cls[:, 0] == 0)
                            & ((cls[:, 1] == 0) != (cls[:, 2] == 0))
                            & (steps_r[check] >= hold_until))
                for where in np.flatnonzero(done_sub):
                    pos = check[where]
                    finish(pos, steps_r[pos], True,
                           1 if cls[where, 2] > 0 else 0)
                    settled_live[pos] = True
            exhausted = steps_r >= budget
            retire = settled_live | exhausted
            if retire.any():
                for pos in np.flatnonzero(exhausted & ~settled_live):
                    finish(pos, budget, False, None)
                keep = ~retire
                counts = counts[keep]
                agents = agents[keep]
                trial_ids = trial_ids[keep]
                productive = productive[keep]
                steps_r = steps_r[keep]
                n_live = n_live[keep]
                for kind in ev:
                    ev[kind] = ev[kind][keep]
                live = len(trial_ids)
                if not live:
                    break
                row_sel = np.arange(live)[None, :]
                counts_flat = counts.reshape(-1)
            window = int(np.clip(2.0 * consumed.mean(),
                                 _MIN_WINDOW, _MAX_WINDOW))

        if telemetry.enabled:
            self._emit_chunk_telemetry(
                telemetry, time.perf_counter() - started, n,
                results, rounds, drawn)
            emit_fault_telemetry(self, telemetry, results, runtime)
        return results  # type: ignore[return-value]

    def _emit_chunk_telemetry(self, telemetry, wall: float, n: int,
                              results, rounds: int, drawn: int) -> None:
        emit_chunk_telemetry(self, telemetry, wall, n, results, rounds,
                             drawn)

    # ------------------------------------------------------------------
    # Scalar compatibility path (Engine.run)
    # ------------------------------------------------------------------

    def _simulate(self, counts, n, rng, max_steps, tracker, recorder):
        """Single-trial loop sampling the same chain as the ensemble.

        Exact for any protocol (settledness goes through the standard
        tracker); O(s) per interaction, so it exists for validation
        and API symmetry rather than speed.
        """
        check_budget_sanity(max_steps)
        lookup = self._transition_lookup()
        span = n * (n - 1)
        steps = 0
        productive = 0
        while steps < max_steps:
            block = min(_BLOCK, max_steps - steps)
            raw = rng.integers(0, span, size=block, dtype=np.int64)
            first_targets, second_targets = (
                part.tolist() for part in divmod(raw, n - 1))
            for u, v in zip(first_targets, second_targets):
                steps += 1
                acc = 0
                for i, count in enumerate(counts):
                    acc += count
                    if u < acc:
                        break
                # Responder without replacement: skip the last i-token.
                if v >= acc - 1:
                    v += 1
                acc2 = 0
                for j, count in enumerate(counts):
                    acc2 += count
                    if v < acc2:
                        break
                new_i, new_j = lookup(i, j)
                if new_i == i and new_j == j:
                    continue
                productive += 1
                counts[i] -= 1
                counts[j] -= 1
                counts[new_i] += 1
                counts[new_j] += 1
                tracker.update(i, j, new_i, new_j)
                if recorder is not None:
                    recorder.maybe_record(steps, counts)
                if tracker.settled():
                    return steps, productive, False, None
        return steps, productive, False, None

    def _simulate_faulted(self, counts, n, rng, max_steps, tracker,
                          recorder, runtime):
        # The scalar path shares the count engine's faulted loop (same
        # chain, Fenwick-backed); the vectorized injection lives in
        # _run_ensemble_faulted.
        from .count_engine import simulate_faulted_counts

        return simulate_faulted_counts(self, counts, n, rng, max_steps,
                                       tracker, recorder, runtime)
