"""Engines that route their hot loops through compiled kernels.

Each class subclasses its numpy twin and overrides exactly one inner
loop; validation, budget resolution, fault handling, guards, and
result assembly are inherited, so capability errors (adversarial
schedulers, bulk-path blockers) and the faulted paths are *the same
code* as the numpy engines.  The compiled loops are bit-exact: RNG
draws come from numpy's own routines with identical call shapes and
order (drawn in Python, or inside the batch kernel through numpy's
bounded-integer fill on the same bit generator), so a JIT
engine returns byte-identical results to its twin for every seed —
pinned baselines, KS suites, and runstore fingerprints all extend
unchanged (the requested engine name keys the cache; see
``docs/engines.md``).

Construction requires a usable kernel backend (raises
:class:`ImportError` otherwise); the registry factories in
:mod:`repro.sim.engines` check availability first and fall back to
the numpy twin with an ``engine.fallback`` telemetry event, so
``engine="count-ensemble-jit"`` is safe to request anywhere.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..convergence import UnanimitySettleTracker
from ..count_engine import _BLOCK, CountEngine
from ..count_ensemble_engine import (
    CountEnsembleEngine,
    _MIN_WINDOW,
    _max_window,
)
from ..engine import check_budget_sanity
from ..engines import ENSEMBLE_MAX_STATES
from ..ensemble_common import emit_chunk_telemetry
from . import MAX_KERNEL_N, MAX_KERNEL_TRIALS, _KernelTablesMixin, load

__all__ = ["JitCountEngine", "JitCountEnsembleEngine"]


class _JitCountLoopMixin(_KernelTablesMixin):
    """The fused Fenwick sample+update block, compiled.

    The fast path applies when nothing needs per-interaction Python
    callbacks: no recorder, the plain O(1) unanimity tracker (not the
    generic or observing ones), and a state space small enough for the
    dense transition table.  Anything else inherits the numpy loop —
    which draws the identical RNG stream, so either path returns the
    same result.
    """

    def _simulate(self, counts, n, rng, max_steps, tracker, recorder):
        if (recorder is not None
                or type(tracker) is not UnanimitySettleTracker
                or self.protocol.num_states > ENSEMBLE_MAX_STATES):
            return super()._simulate(counts, n, rng, max_steps,
                                     tracker, recorder)
        check_budget_sanity(max_steps)
        ptab, state_class = self._kernel_tables()
        count_block = self._kernels.count_block
        vec = np.array(counts, dtype=np.int64)
        out = np.zeros(3, dtype=np.int64)
        steps = 0
        productive = 0
        span = n * (n - 1)
        div_buf = np.empty(_BLOCK, dtype=np.int64)
        mod_buf = np.empty(_BLOCK, dtype=np.int64)
        while steps < max_steps:
            block = min(_BLOCK, max_steps - steps)
            # Identical RNG call shapes/order to CountEngine._simulate.
            raw = rng.integers(0, span, size=block, dtype=np.int64)
            q = div_buf if block == _BLOCK else div_buf[:block]
            r = mod_buf if block == _BLOCK else mod_buf[:block]
            np.floor_divide(raw, n - 1, out=q)
            np.remainder(raw, n - 1, out=r)
            count_block(q, r, vec, ptab, state_class, out)
            steps += int(out[0])
            productive += int(out[1])
            if out[2]:
                break
        counts[:] = vec.tolist()
        tracker.reset(counts)
        return steps, productive, False, None


class JitCountEngine(_JitCountLoopMixin, CountEngine):
    """:class:`CountEngine` with the sample+update loop compiled."""

    name = "count-jit"

    def __init__(self, protocol, *, backend: str | None = None):
        super().__init__(protocol)
        self._kernels = load(backend)


class JitCountEnsembleEngine(_JitCountLoopMixin, CountEnsembleEngine):
    """:class:`CountEnsembleEngine` with the clean trial loop compiled.

    One kernel call runs a whole clean chunk (draws, window steps,
    retirement, window adaptation); the faulted windowed loop, the
    single-run path's guards, and every capability error are inherited
    numpy code.
    """

    name = "count-ensemble-jit"

    def __init__(self, protocol, *, backend: str | None = None):
        super().__init__(protocol)
        self._kernels = load(backend)

    def _run_ensemble_clean(self, base, n, num_trials, budget, generator,
                            telemetry, started, row_result, state_class,
                            class_matrix):
        if (n > MAX_KERNEL_N or num_trials > MAX_KERNEL_TRIALS):
            # Beyond the kernel contracts (far past paper scale): the
            # numpy loop is bit-identical, just slower.
            return super()._run_ensemble_clean(
                base, n, num_trials, budget, generator, telemetry,
                started, row_result, state_class, class_matrix)
        ptab, cls_arr = self._kernel_tables()
        w_cap = _max_window(n)
        window = int(np.clip(int(0.9 * math.sqrt(n)), _MIN_WINDOW,
                             w_cap))
        counts = np.tile(np.asarray(base, dtype=np.int64),
                         (num_trials, 1))
        steps, productive, settled, decision = (
            np.empty(num_trials, dtype=np.int64) for _ in range(4))
        totals = np.zeros(2, dtype=np.int64)
        # The whole trial loop -- draws from ``generator`` included --
        # in one call; the numpy path's stream and results, exactly.
        self._kernels.ensemble_batch(
            generator, counts, n, int(budget), window, _MIN_WINDOW, w_cap,
            ptab, cls_arr, steps, productive, settled, decision, totals)
        results = [
            row_result(steps[t], bool(settled[t]),
                       int(decision[t]) if settled[t] else None,
                       counts[t], productive[t])
            for t in range(num_trials)]
        if telemetry.enabled:
            emit_chunk_telemetry(self, telemetry,
                                 time.perf_counter() - started, n,
                                 results, int(totals[0]), int(totals[1]))
        return results
