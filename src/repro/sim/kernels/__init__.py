"""Compiled kernel backend for the hot simulation loops.

The hottest paths in the repo — the count-ensemble engine's whole
clean trial loop and the count engine's Fenwick-tree sample+update
loop — have compiled twins registered as ``count-ensemble-jit`` /
``count-jit`` (see :mod:`repro.sim.engines`).  The null-skipping
trial loop (``null_skip_run``) has no engine name of its own:
``null-skipping`` and ``continuous-time`` call it whenever a backend
is usable and keep their Python loop otherwise.  One backend provides them:

``cext``
    A dependency-free C translation unit compiled on demand with the
    system C compiler and bound through ctypes
    (:mod:`.cext_backend`).

It is bit-exact against the numpy engines: every RNG draw comes from
numpy's own routines on the same generator (identical streams).  When
the backend is unusable (no compiler, or a failed load-time check of
its draws) the JIT engine names resolve to the numpy implementations
and an ``engine.fallback`` telemetry event records why — behaviour
(including every pinned baseline) is unchanged, only slower.

``REPRO_JIT`` overrides detection: ``off``/``0``/``none`` disables the
backend, ``cext`` forces it (an unusable forced backend falls back
like absence).
"""

from __future__ import annotations

import os

__all__ = [
    "BACKENDS",
    "MAX_KERNEL_N",
    "MAX_KERNEL_TRIALS",
    "JIT_UPGRADES",
    "available",
    "default_backend",
    "fallback_reason",
    "jit_engine_name",
    "load",
    "pack_transition_blocks",
    "pack_transition_table",
    "reset_backend_cache",
    "warm_up",
    "warm_up_for_spec",
]

#: Usable kernel backends, in probe order.
BACKENDS = ("cext",)

#: Population bound for the compiled loops: positions must fit the
#: packed hash entries' 34-bit field and ``n(n-1)`` must stay below
#: 2^52 for the ensemble round's exact double divmod and for null
#: skipping's success probability ``W / (n(n-1))``, a division of two
#: exact doubles.  Beyond it (far past paper scale) the engine
#: inherits the numpy/Python path.
MAX_KERNEL_N = 1 << 26

#: Row bound for the compiled ensemble batch (its per-row buffers).
#: Chunk sizes are ENSEMBLE_CHUNK_TRIALS = 128, so this never binds in
#: practice.
MAX_KERNEL_TRIALS = 1 << 15

#: ``"auto"`` upgrades: numpy engine name -> JIT twin.  The token
#: ensemble is absent: it has no compiled kernel.
JIT_UPGRADES = {
    "count": "count-jit",
    "count-ensemble": "count-ensemble-jit",
}

#: Engines without a ``-jit`` name whose inner loop runs compiled
#: when a backend is usable (``auto`` may route to any of them).
_COMPILED_LOOP_ENGINES = frozenset(("auto", "null-skipping",
                                    "continuous-time"))

_state: dict = {"probed": False, "backend": None, "reason": None,
                "mods": {}}


def reset_backend_cache() -> None:
    """Forget probe results (tests flip ``REPRO_JIT`` / fake imports)."""
    _state.update(probed=False, backend=None, reason=None, mods={})


def _env_choice() -> str | None:
    return os.environ.get("REPRO_JIT", "").strip().lower() or None


def _try_load(backend: str):
    """``(kernels, error_message)`` for one backend, memoized."""
    cached = _state["mods"].get(backend)
    if cached is not None:
        return cached
    try:
        if backend == "cext":
            from . import cext_backend
            result = (cext_backend.load(), None)
        else:
            result = (None, f"unknown kernel backend {backend!r}")
    except Exception as exc:  # KernelBuildError, OSError
        result = (None, f"{backend}: {exc}")
    _state["mods"][backend] = result
    return result


def _probe() -> None:
    if _state["probed"]:
        return
    choice = _env_choice()
    if choice in ("off", "0", "none", "false"):
        _state.update(probed=True, backend=None,
                      reason="kernel backends disabled by REPRO_JIT")
        return
    order = (choice,) if choice in BACKENDS else BACKENDS
    errors = []
    for backend in order:
        kernels, error = _try_load(backend)
        if kernels is not None:
            _state.update(probed=True, backend=backend, reason=None)
            return
        errors.append(error)
    _state.update(probed=True, backend=None,
                  reason="no usable kernel backend (install a C "
                         "compiler): " + "; ".join(errors))


def default_backend() -> str | None:
    """The preferred usable backend name, or ``None``.

    The first call pays the probe (a cached C build and its load-time
    check); later calls are a dict lookup.
    """
    _probe()
    return _state["backend"]


def fallback_reason() -> str:
    """Why no backend is usable (only meaningful when none is)."""
    _probe()
    return _state["reason"] or "kernel backend available"


def available() -> dict[str, bool]:
    """Usability per backend name, actually attempting each load."""
    return {backend: _try_load(backend)[0] is not None
            for backend in BACKENDS}


def load(backend: str | None = None):
    """The kernel namespace for ``backend`` (default: the probed one).

    Raises :class:`ImportError` when the requested backend — or, with
    ``backend=None``, every backend — is unusable.
    """
    if backend is None:
        backend = default_backend()
        if backend is None:
            raise ImportError(fallback_reason())
    kernels, error = _try_load(backend)
    if kernels is None:
        raise ImportError(error)
    return kernels


def pack_transition_table(table_x, table_y, state_class):
    """Pack the flat transition tables into one int64 per state pair.

    Entry layout (mirrored by the ``PT_*`` macros in ``_kernels.c``):
    bits 0..15 successor initiator state,
    16..31 successor responder state, 32 the productive flag, and
    33..35 / 36..38 / 39..41 the biased ``delta + 2`` unanimity-class
    count deltas for classes 0 / 1 / 2.  One load per interaction
    replaces two successor lookups plus four class lookups in the
    kernels' apply loops.  Requires ``s <= 4096`` (the registry-wide
    dense-table bound), so successor states fit their 16-bit fields.
    """
    s = len(state_class)
    return pack_transition_blocks(
        [(slice(0, s), table_x.reshape(s, s), table_y.reshape(s, s))],
        state_class)


def pack_transition_blocks(blocks, state_class):
    """:func:`pack_transition_table` from ``(rows, out_x, out_y)``
    blocks of initiator rows that cover every row once, as
    :meth:`~repro.protocols.base.PopulationProtocol.iter_transition_rows`
    yields them.

    Only one block's temporaries are alive at a time, so packing from a
    protocol's row blocks adds little beyond the packed table itself.
    """
    import numpy as np

    cls = np.ascontiguousarray(state_class, dtype=np.int64)
    s = cls.shape[0]
    packed = np.empty((s, s), dtype=np.int64)
    j = np.arange(s, dtype=np.int64)
    members = [(bit, (cls == c).astype(np.int64))
               for bit, c in ((33, 0), (36, 1), (39, 2))]
    for rows, out_x, out_y in blocks:
        xi = np.asarray(out_x, dtype=np.int64)
        yj = np.asarray(out_y, dtype=np.int64)
        i = np.arange(rows.start, rows.stop, dtype=np.int64)[:, None]
        block = packed[rows]
        np.left_shift(yj, 16, out=block)
        block |= xi
        block |= ((xi != i) | (yj != j)).astype(np.int64) << 32
        for bit, member in members:
            delta = member[xi] + member[yj] - member[i] - member[j]
            block |= (delta + 2) << bit
    return packed.reshape(-1)


class _KernelTablesMixin:
    """Shared per-engine cache of the packed kernel tables.

    Packed straight from the protocol's row blocks, so the memoized
    ``s x s`` :meth:`transition_matrix` pair is used when it already
    exists but never built for this: at s = 1002 the pair is 16 MB
    beside the 8 MB packed table.
    """

    def _kernel_tables(self):
        cached = getattr(self, "_kernel_tables_cache", None)
        if cached is None:
            import numpy as np

            from ..ensemble_common import class_tables

            state_class, _ = class_tables(self.protocol)
            cls = np.ascontiguousarray(state_class, dtype=np.int64)
            cached = (pack_transition_blocks(
                self.protocol.iter_transition_rows(), cls), cls)
            self._kernel_tables_cache = cached
        return cached


def jit_engine_name(name: str) -> str:
    """``name``'s JIT twin when a backend is usable, else ``name``."""
    upgraded = JIT_UPGRADES.get(name)
    if upgraded is None:
        return name
    return upgraded if default_backend() is not None else name


def warm_up(backend: str | None = None) -> str | None:
    """Build/load the kernels now; return the backend name or None.

    Loading compiles the C library on a cold cache and runs its
    load-time draw check, so pool workers call this once and never pay
    either inside a job.  Never raises: an unusable backend returns
    ``None``.
    """
    try:
        return load(backend).backend
    except ImportError:
        return None


def warm_up_for_spec(spec) -> None:
    """Pool-initializer hook: warm the kernels a spec will use.

    Called once per worker process (never per chunk).  Only engines
    that can run a compiled loop trigger a warm-up: the JIT engines,
    null skipping and its continuous-time variant, and ``auto``; plain
    numpy specs cost one string check.
    """
    engine = getattr(spec, "engine", None)
    name = engine if isinstance(engine, str) else \
        getattr(engine, "name", "")
    if name.endswith("-jit") or name in _COMPILED_LOOP_ENGINES:
        warm_up()
