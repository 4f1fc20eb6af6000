"""Count-ensemble engine: exact ``O(T*s)``-memory vectorized simulation.

The token-matrix :class:`~repro.sim.ensemble_engine.EnsembleEngine`
stores a ``(T, n)`` matrix, so paper-scale sweeps stall around
``n = 10^5`` on memory and bandwidth.  This engine advances the same
``T`` independent trials on the ``(T, s)`` *count* matrix alone —
persistent memory is independent of ``n`` — and batches interactions
with a collision-bounded round that applies ``Theta(sqrt(n))`` exact
interactions per row per round.

**Sampling.**  Each interaction is one uniform draw from
``[0, n(n-1))``; ``a, b = divmod(r, n - 1)`` and ``b += b >= a`` give
the ordered (initiator, responder) *agent positions* — the responder
sampled without replacement from the remaining ``n - 1`` agents.  On
the complete graph agents are exchangeable, so each round fixes the
canonical sorted-token labelling: position ``p`` holds the state whose
cumulative count first exceeds ``p``.  Positions decode to states
through the round-start cumulative sums — the two-stage categorical
draw of the count chain, realized as one merged binary search.

**Collision-bounded batching.**  Within a round, every draw that
touches agents untouched by earlier draws commutes with them: its
decode against the round-start configuration is its decode against the
true current configuration.  A row therefore applies, in bulk, all
interactions up to its first *collision* — the first draw that
re-touches an agent — and the colliding interaction itself is applied
too, with the re-touched agent resolved to its post-transition state
via its previous occurrence.  The number of interactions a row
consumes is a stopping time of its draw sequence (budget caps are
deterministic, and "draw k re-touches an agent" depends only on draws
``<= k``), so discarded draws are independent of the applied prefix
and the next round restarts the chain exactly (strong Markov).  By the
birthday bound a row consumes ``~sqrt(pi*n/8)`` interactions per
round, which also subsumes null-run skipping: null interactions never
end a batch.

Per round, per row: draws are interleaved into ``2w`` position slots;
a single ``np.sort`` of the combined key ``position * W2 + slot``
yields the sorted positions *and* their originating slots (keys are
unique, so stability is free); adjacent equal positions locate each
row's first collision and each slot's previous occurrence; one
``np.searchsorted`` merge of the sorted positions against the
cumulative counts decodes every slot's state; transitions go through
the flat ``s*s`` tables and are applied with masked ``np.bincount``
scatter-adds.  Unanimity is absorbing for ``unanimity_settles``
protocols, so settling inside a batch is detected at the round end and
the exact settling step recovered by replaying that row's (short)
applied sequence — once per trial lifetime.

Transient per-round buffers are ``O(T*sqrt(n))`` (~25 MB at
``T = 100, n = 10^6``); nothing ``(T, n)``-shaped is ever allocated.
Measured ~7x the token ensemble's interactions/s at ``n = 10^5``
(s = 66, T = 100), with the gap growing in ``n``.

Faults (state corruption, churn, interaction faults) compose on the
count representation with the same windowed one-config-change-per-
round loop as the token engine, decoding positions through per-row
cumulative sums; adversarial schedulers require explicit agents and
are rejected with the standard capability error.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping

import numpy as np

from ..errors import InvalidParameterError, SimulationError
from ..faults import FaultRuntime, active_faults
from ..protocols.base import State
from ..rng import ensure_rng
from ..telemetry.context import current as current_telemetry
from .count_engine import CountEngine
from .engine import check_budget_sanity
from .ensemble_common import (
    class_tables,
    emit_chunk_telemetry,
    emit_fault_telemetry,
    flat_transition_tables,
)
from .results import RunResult

__all__ = ["CountEnsembleEngine"]

#: Bounds for the adaptive batch window (interactions drawn per row per
#: round).  The cap tracks the birthday bound ``~sqrt(n)`` so transient
#: buffers stay ``O(T*sqrt(n))``.
_MIN_WINDOW = 8
_MAX_WINDOW_CAP = 4096

#: Window bounds for the (non-batched) faulted loop, which advances one
#: configuration change per row per round like the token engine.
_FAULT_MIN_WINDOW = 4
_FAULT_MAX_WINDOW = 256


def _max_window(n: int) -> int:
    return max(64, min(_MAX_WINDOW_CAP, int(3.0 * math.sqrt(n))))


class _RoundScratch:
    """Reused ``(live, W)`` work arrays for the clean window loop.

    One round allocates ~10 arrays of up to ``T * 2w`` elements; over
    the hundreds of rounds of a paper-scale run the allocator traffic
    is measurable.  Rows only shrink (trials retire) and the window is
    bounded by ``_max_window``, so a single growable allocation serves
    every round.  ``view`` returns exact-shape views that keep
    within-row contiguity — all the sort/searchsorted steps need.
    Values written each round fully overwrite the region read, so
    reuse cannot leak state between rounds (bit-identity is pinned by
    the seed-7 baseline tests).
    """

    _ARRAYS = ("pos", "key", "ps", "order", "prev_sorted", "prev_time",
               "states_time")

    def __init__(self):
        self.rows = 0
        self.cap = 0

    def view(self, live: int, W: int):
        if live > self.rows or W > self.cap:
            self.rows = max(live, self.rows)
            self.cap = max(W, self.cap)
            shape = (self.rows, self.cap)
            for name in self._ARRAYS:
                setattr(self, name, np.empty(shape, dtype=np.int64))
            self.dup = np.empty(shape, dtype=bool)
            self.later = np.empty(shape, dtype=np.int64)
            self.slots = np.arange(self.cap, dtype=np.int64)
        return self


class CountEnsembleEngine(CountEngine):
    """Exact vectorized multi-trial simulation on count vectors.

    Entry points mirror :class:`EnsembleEngine`:

    * :meth:`run_ensemble` — the vectorized path: ``T`` trials on a
      ``(T, s)`` count matrix, ``O(T*s)`` persistent memory regardless
      of ``n``.  Requires ``unanimity_settles`` protocols; recorders
      and event observers are not supported.
    * :meth:`run` (inherited from :class:`CountEngine`) — the standard
      single-run API: the Fenwick-tree loop, exact for any protocol.

    ``run_trials(..., engine="count-ensemble")`` routes whole trial
    batches through :meth:`run_ensemble`, and ``engine="auto"`` picks
    this engine (or its compiled twin) over the token ensemble from a
    measured population crossover (see
    :func:`repro.sim.engines.route`).
    """

    name = "count-ensemble"

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
        settles or the per-trial interaction budget is exhausted;
        results are returned in trial order.  Each trial's chain is
        exactly the count-engine chain in distribution.
        """
        protocol = self.protocol
        if num_trials < 1:
            raise InvalidParameterError(
                f"num_trials must be >= 1, got {num_trials}")
        if not getattr(protocol, "unanimity_settles", False):
            raise SimulationError(
                f"{protocol.name}: the vectorized ensemble path requires "
                "unanimity_settles protocols; use CountEnsembleEngine.run() "
                "or CountEngine for generic settledness predicates")
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
            # everything else composes on the count matrix below.
            runtime = FaultRuntime.build(active, protocol,
                                         expected=expected,
                                         scheduler_ok=False)
        telemetry = current_telemetry()
        started = time.perf_counter() if telemetry.enabled else 0.0

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

        if ((base_class[0] == 0
                and (base_class[1] == 0) != (base_class[2] == 0))
                and (runtime is None or runtime.hold_until == 0)):
            # Already settled: every trial converges at step 0.  (A
            # fault window that can unsettle the configuration holds
            # the trials in the arena instead — see repro.faults.)
            decision = 1 if base_class[2] > 0 else 0
            result = row_result(0, True, decision, base, 0,
                                runtime.events() if runtime else None)
            results = [result] * num_trials
            if telemetry.enabled:
                emit_chunk_telemetry(self, telemetry,
                                     time.perf_counter() - started, n,
                                     results, 0, 0)
            return results

        if runtime is not None:
            return self._run_ensemble_faulted(
                runtime, base, n, num_trials, budget, generator,
                telemetry, started, row_result, state_class,
                class_matrix)

        return self._run_ensemble_clean(
            base, n, num_trials, budget, generator, telemetry, started,
            row_result, state_class, class_matrix)

    # ------------------------------------------------------------------
    # Clean path: collision-bounded exact batching
    # ------------------------------------------------------------------

    def _run_ensemble_clean(self, base, n, num_trials, budget, generator,
                            telemetry, started, row_result, state_class,
                            class_matrix):
        protocol = self.protocol
        s = protocol.num_states
        table_x, table_y, nonnull, _ = flat_transition_tables(protocol)
        sc_list = state_class.tolist()
        tx_list = table_x.tolist()
        ty_list = table_y.tolist()

        rounds = 0
        drawn = 0
        results: list[RunResult | None] = [None] * num_trials
        counts = np.tile(base, (num_trials, 1))          # (T, s) int64
        trial_ids = np.arange(num_trials)
        productive = np.zeros(num_trials, dtype=np.int64)
        steps_r = np.zeros(num_trials, dtype=np.int64)
        live = num_trials
        counts_flat = counts.reshape(-1)
        span = n * (n - 1)
        w_cap = _max_window(n)
        # Start near the birthday bound E[batch] ~ sqrt(pi*n/8).
        window = int(np.clip(int(0.9 * math.sqrt(n)), _MIN_WINDOW, w_cap))
        tiled_states = np.tile(np.arange(s, dtype=np.int64), num_trials)
        scratch = _RoundScratch()

        while live:
            remaining = budget - steps_r         # >= 1 for every live row
            w = min(window, int(remaining.max()))
            W = 2 * w
            rounds += 1
            drawn += w * live
            sc = scratch.view(live, W)

            # --- draw: w ordered (initiator, responder) positions/row.
            # dtype pinned to int64: span = n(n-1) overflows 32-bit
            # integers past n ~ 2**15.5 on platforms with a 32-bit
            # default integer.
            raw = generator.integers(0, span, size=(live, w),
                                     dtype=np.int64)
            a, b = np.divmod(raw, n - 1)
            b += b >= a                          # without replacement
            pos = sc.pos[:live, :W]
            pos[:, 0::2] = a
            pos[:, 1::2] = b

            # --- combined-key sort: one plain sort yields the sorted
            # positions AND each sorted entry's originating time slot
            # (keys are unique, so no stable argsort is needed).
            W2 = 1 << (W - 1).bit_length()
            lg = W2.bit_length() - 1
            key = sc.key[:live, :W]
            np.left_shift(pos, lg, out=key)
            np.bitwise_or(key, sc.slots[:W], out=key)
            key.sort(axis=1)
            ps = sc.ps[:live, :W]                # sorted positions
            np.right_shift(key, lg, out=ps)
            order = sc.order[:live, :W]          # slot of each entry
            np.bitwise_and(key, W2 - 1, out=order)

            # --- first collision per row: adjacent equal positions;
            # the sort orders equal positions by slot, so the later
            # occurrence of each duplicate pair is order[:, 1:].
            dup = sc.dup[:live, :W - 1]
            np.equal(ps[:, 1:], ps[:, :-1], out=dup)
            later = sc.later[:live, :W - 1]
            later[...] = W
            np.copyto(later, order[:, 1:], where=dup)
            t_star = later.min(axis=1)           # first re-touching slot
            mc = t_star >> 1                     # clean interactions
            nclean = np.minimum(mc, remaining)
            coll = (t_star < W) & (mc < remaining)
            consumed = nclean + coll

            # --- previous occurrence of each slot's position, in time
            # order (needed to resolve the colliding interaction).
            prev_sorted = sc.prev_sorted[:live, :W]
            prev_sorted[:, 0] = -1
            tail = prev_sorted[:, 1:]
            tail[...] = -1
            np.copyto(tail, order[:, :-1], where=dup)
            prev_time = sc.prev_time[:live, :W]
            np.put_along_axis(prev_time, order, prev_sorted, axis=1)

            # --- merge decode: all 2w slot states from the round-start
            # cumulative counts in one global searchsorted.
            cum = counts.cumsum(axis=1)
            row_off = (np.arange(live, dtype=np.int64) * n)[:, None]
            bnd = np.searchsorted((ps + row_off).ravel(),
                                  (cum + row_off).ravel())
            rs = (np.arange(live, dtype=np.int64) * W)[:, None]
            cnt = np.diff(bnd.reshape(live, s), axis=1, prepend=rs)
            states_sorted = np.repeat(tiled_states[:live * s],
                                      cnt.ravel()).reshape(live, W)
            states_time = sc.states_time[:live, :W]
            np.put_along_axis(states_time, order, states_sorted, axis=1)

            i = states_time[:, 0::2]
            j = states_time[:, 1::2]
            pair = i * s + j
            ni = table_x[pair]
            nj = table_y[pair]
            mask = np.arange(w, dtype=np.int64)[None, :] < nclean[:, None]
            changed = nonnull[pair] & mask
            round_prod = changed.sum(axis=1)

            # --- bulk apply of the collision-free prefix: transitions
            # on disjoint agents commute, so masked bincounts (with a
            # dummy overflow bucket) accumulate all deltas at once.
            fb = (np.arange(live, dtype=np.int64) * s)[:, None]
            dump = live * s
            minus = np.bincount(
                np.concatenate([np.where(changed, fb + i, dump).ravel(),
                                np.where(changed, fb + j, dump).ravel()]),
                minlength=dump + 1)[:dump]
            plus = np.bincount(
                np.concatenate([np.where(changed, fb + ni, dump).ravel(),
                                np.where(changed, fb + nj, dump).ravel()]),
                minlength=dump + 1)[:dump]
            counts_before = counts.copy()
            counts_flat += plus
            counts_flat -= minus

            # --- the colliding interaction is applied too (the cut
            # must include it to stay a stopping time): a re-touched
            # slot resolves to the post-state of its previous
            # occurrence's interaction.
            coll_states = None
            rows_c = np.flatnonzero(coll)
            if rows_c.size:
                e = t_star[rows_c] & ~np.int64(1)

                def slot_state(slot):
                    p = prev_time[rows_c, slot]
                    pc = np.maximum(p, 0)
                    post = np.where((pc & 1).astype(bool),
                                    nj[rows_c, pc >> 1],
                                    ni[rows_c, pc >> 1])
                    return np.where(p >= 0, post,
                                    states_time[rows_c, slot])

                ci = slot_state(e)
                cj = slot_state(e + 1)
                cpair = ci * s + cj
                cni = table_x[cpair]
                cnj = table_y[cpair]
                fbc = rows_c * s
                np.subtract.at(counts_flat,
                               np.concatenate([fbc + ci, fbc + cj]), 1)
                np.add.at(counts_flat,
                          np.concatenate([fbc + cni, fbc + cnj]), 1)
                prod_c = (cni != ci) | (cnj != cj)
                round_prod[rows_c] += prod_c
                coll_states = np.full((live, 4), -1, dtype=np.int64)
                coll_states[rows_c, 0] = ci
                coll_states[rows_c, 1] = cj
                coll_states[rows_c, 2] = cni
                coll_states[rows_c, 3] = cnj

            productive += round_prod
            steps_r += consumed

            # --- settling: unanimity is absorbing for
            # unanimity_settles protocols, so a round-end check cannot
            # miss it; the exact settling step and configuration come
            # from replaying that row's short applied sequence (once
            # per trial lifetime).
            cls = counts @ class_matrix
            done = ((cls[:, 0] == 0)
                    & ((cls[:, 1] == 0) != (cls[:, 2] == 0)))
            settled_live = np.zeros(live, dtype=bool)
            for posn in np.flatnonzero(done):
                steps0 = int(steps_r[posn] - consumed[posn])
                prod0 = int(productive[posn] - round_prod[posn])
                c = counts_before[posn].copy()
                c0, c1, c2 = (c @ class_matrix).tolist()
                seq = zip(i[posn, :nclean[posn]].tolist(),
                          j[posn, :nclean[posn]].tolist())
                if coll_states is not None and coll[posn]:
                    seq = list(seq) + [(-1, -1)]
                prods = 0
                step = 0
                settled_at = None
                for oi, oj in seq:
                    step += 1
                    if oi < 0:
                        oi, oj, vni, vnj = coll_states[posn].tolist()
                    else:
                        hot = oi * s + oj
                        vni = tx_list[hot]
                        vnj = ty_list[hot]
                    if vni == oi and vnj == oj:
                        continue
                    prods += 1
                    c[oi] -= 1
                    c[oj] -= 1
                    c[vni] += 1
                    c[vnj] += 1
                    for old in (oi, oj):
                        k = sc_list[old]
                        if k == 0:
                            c0 -= 1
                        elif k == 1:
                            c1 -= 1
                        else:
                            c2 -= 1
                    for new in (vni, vnj):
                        k = sc_list[new]
                        if k == 0:
                            c0 += 1
                        elif k == 1:
                            c1 += 1
                        else:
                            c2 += 1
                    if c0 == 0 and (c1 == 0) != (c2 == 0):
                        settled_at = step
                        break
                if settled_at is None:
                    # Unreachable for absorbing unanimity; fall back to
                    # the round-end verdict rather than crash.
                    settled_at = int(consumed[posn])
                    c = counts[posn]
                    prods = int(round_prod[posn])
                results[trial_ids[posn]] = row_result(
                    steps0 + settled_at, True, 1 if c2 > 0 else 0, c,
                    prod0 + prods)
                settled_live[posn] = True

            exhausted = steps_r >= budget
            retire = settled_live | exhausted
            if retire.any():
                for posn in np.flatnonzero(exhausted & ~settled_live):
                    results[trial_ids[posn]] = row_result(
                        budget, False, None, counts[posn],
                        productive[posn])
                keep = ~retire
                counts = counts[keep]
                trial_ids = trial_ids[keep]
                productive = productive[keep]
                steps_r = steps_r[keep]
                live = len(trial_ids)
                if not live:
                    break
                counts_flat = counts.reshape(-1)
            # Track slightly past the mean consumed batch so most rows
            # reach their collision within the window.
            window = int(np.clip(int(1.3 * consumed.mean()) + 2,
                                 _MIN_WINDOW, w_cap))

        if telemetry.enabled:
            emit_chunk_telemetry(self, telemetry,
                                 time.perf_counter() - started, n,
                                 results, rounds, drawn)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Faulted path: windowed loop on counts
    # ------------------------------------------------------------------

    def _run_ensemble_faulted(self, runtime, base, n, num_trials, budget,
                              generator, telemetry, started, row_result,
                              state_class, class_matrix):
        """Vectorized faulted loop on the count matrix.

        Structure and semantics mirror the token engine's
        ``_run_ensemble_faulted`` — a window's draws are valid exactly
        up to each row's first configuration change (productive
        interaction or injected fault), so one change is applied per
        row per round — but agent positions decode to states through
        per-row cumulative counts instead of a token matrix, and churn
        adjusts the count rows directly.  Fault victims are drawn by
        position from the post-interaction configuration, matching the
        sequential per-tick order (interaction, flip, crash, join).
        """
        protocol = self.protocol
        s = protocol.num_states
        table_x, table_y, nonnull_full, nonnull_ow = \
            flat_transition_tables(protocol)

        flip_p = runtime.flip_prob
        crash_p = runtime.crash_prob
        join_p = runtime.join_prob
        drop_p = runtime.drop_prob
        ow_p = runtime.oneway_prob
        horizon = runtime.horizon
        hold_until = runtime.hold_until
        floor = runtime.floor
        churn = runtime.churn

        rounds = 0
        drawn = 0
        results: list[RunResult | None] = [None] * num_trials
        counts = np.tile(base, (num_trials, 1))
        trial_ids = np.arange(num_trials)
        productive = np.zeros(num_trials, dtype=np.int64)
        steps_r = np.zeros(num_trials, dtype=np.int64)
        n_live = np.full(num_trials, n, dtype=np.int64)
        ev = {kind: np.zeros(num_trials, dtype=np.int64)
              for kind in ("flips", "crashes", "joins", "drops", "oneway")}
        live = num_trials
        counts_flat = counts.reshape(-1)
        window = _FAULT_MIN_WINDOW

        def finish(pos, steps, settled, decision):
            events = {kind: int(ev[kind][pos]) for kind in ev}
            for kind, value in events.items():
                setattr(runtime, kind, getattr(runtime, kind) + value)
            results[trial_ids[pos]] = row_result(
                steps, settled, decision, counts[pos], productive[pos],
                events)

        def decode_rows(rows, position):
            """States of uniform ``position`` draws in ``rows``' current
            configurations (vectorized over the few affected rows)."""
            cum = np.cumsum(counts[rows], axis=1)
            return (cum <= position[:, None]).sum(axis=1)

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

            # Merge decode of both position draws against the
            # round-start cumulative counts (valid up to each row's
            # first configuration change, like every draw here).  Rows
            # are offset by a shared stride so one global searchsorted
            # covers per-row populations of different sizes.
            cum = counts.cumsum(axis=1)
            stride = int(n_live.max())
            off = np.arange(live, dtype=np.int64) * stride
            cum_flat = (cum + off[:, None]).ravel()
            sub = np.arange(live, dtype=np.int64)[None, :] * s
            i = np.searchsorted(cum_flat, (u + off[None, :]).ravel(),
                                side="right").reshape(w, live) - sub
            j = np.searchsorted(cum_flat, (v + off[None, :]).ravel(),
                                side="right").reshape(w, live) - sub
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

            if drop_ev is not None or ow_ev is not None:
                prefix = np.arange(w)[:, None] < consumed[None, :]
                if drop_ev is not None:
                    ev["drops"] += (drop_ev & prefix).sum(axis=0)
                if ow_ev is not None:
                    ev["oneway"] += (ow_ev & prefix).sum(axis=0)

            idx = np.flatnonzero(apply_mask)
            if idx.size:
                at = first[idx]
                # 1) the interaction (unless dropped; one-way rows keep
                #    the responder's state)
                old_i = i[at, idx]
                old_j = j[at, idx]
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
                        old = decode_rows(rows_f, position)
                        new = runtime.sample_flip_states(generator,
                                                         rows_f.size)
                        moved = new != old
                        rows_m = rows_f[moved]
                        if rows_m.size:
                            np.subtract.at(counts_flat,
                                           rows_m * s + old[moved], 1)
                            np.add.at(counts_flat,
                                      rows_m * s + new[moved], 1)
                # 3) crashes (floor-guarded)
                if crash_ev is not None:
                    rows_k = idx[crash_ev[at, idx]]
                    rows_k = rows_k[n_live[rows_k] > floor]
                    if rows_k.size:
                        ev["crashes"][rows_k] += 1
                        position = (generator.random(rows_k.size)
                                    * n_live[rows_k]).astype(np.int64)
                        old = decode_rows(rows_k, position)
                        n_live[rows_k] -= 1
                        np.subtract.at(counts_flat, rows_k * s + old, 1)
                # 4) joins
                if join_ev is not None:
                    rows_j = idx[join_ev[at, idx]]
                    if rows_j.size:
                        new = runtime.sample_join_states(generator,
                                                         rows_j.size)
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
                trial_ids = trial_ids[keep]
                productive = productive[keep]
                steps_r = steps_r[keep]
                n_live = n_live[keep]
                for kind in ev:
                    ev[kind] = ev[kind][keep]
                live = len(trial_ids)
                if not live:
                    break
                counts_flat = counts.reshape(-1)
            window = int(np.clip(2.0 * consumed.mean(),
                                 _FAULT_MIN_WINDOW, _FAULT_MAX_WINDOW))

        if telemetry.enabled:
            emit_chunk_telemetry(self, telemetry,
                                 time.perf_counter() - started, n,
                                 results, rounds, drawn)
            emit_fault_telemetry(self, telemetry, results, runtime)
        return results  # type: ignore[return-value]
