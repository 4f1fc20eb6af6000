"""C-extension kernel backend: compile on demand, bind via ctypes.

``_kernels.c`` is compiled once with the system C compiler into a
content-addressed shared object under the user cache directory (keyed
by a hash of the source and the numpy version, so editing the source
or upgrading numpy triggers a rebuild, and concurrent builders race
benignly through an atomic rename), then loaded with ctypes.  No
Python.h; the build needs a working ``cc`` plus numpy's own headers
and its static ``libnpyrandom.a``, whose bounded-integer, geometric
and gamma routines the compiled loops draw through so their streams
are ``Generator.integers``', ``.geometric``'s and ``.gamma``'s.

The wrappers below expose ``ensemble_batch``, ``ensemble_round``,
``null_skip_run``, ``count_block`` and ``batch_match``, taking
C-contiguous int64 numpy arrays.  No engine calls ``ensemble_round``
or ``batch_match``; they stay bound only because
``perfbench/layers.py`` wraps both by name.  Contracts (shapes, value
ranges) are documented in ``_kernels.c``; the wrappers assert only
what ctypes cannot survive without (dtype and contiguity).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["KernelBuildError", "build", "load"]

_SOURCE = Path(__file__).with_name("_kernels.c")


class KernelBuildError(RuntimeError):
    """The kernel shared object could not be compiled or loaded."""


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def _numpy_random_paths() -> tuple[Path, Path]:
    """numpy's C include directory and its static ``libnpyrandom.a``."""
    include = Path(np.get_include())
    library = Path(np.__file__).parent / "random" / "lib" / \
        "libnpyrandom.a"
    if not (include / "numpy" / "random" / "bitgen.h").exists() \
            or not library.exists():
        raise KernelBuildError(
            f"numpy {np.__version__} ships no bitgen.h or "
            f"libnpyrandom.a (looked under {include} and "
            f"{library.parent})")
    return include, library


def _cache_tag() -> str:
    """The ``.so`` cache key: the source, and the numpy whose random
    library gets linked in."""
    source = _SOURCE.read_bytes() + np.__version__.encode()
    return hashlib.sha256(source).hexdigest()[:16]


def build(force: bool = False) -> Path:
    """Compile ``_kernels.c`` (if needed) and return the ``.so`` path."""
    target = _cache_dir() / f"repro_kernels_{_cache_tag()}.so"
    if target.exists() and not force:
        return target
    include, library = _numpy_random_paths()
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
        os.close(fd)
    except OSError as exc:
        raise KernelBuildError(
            f"cannot create kernel cache dir {target.parent}: {exc}"
        ) from exc
    cc = os.environ.get("CC", "cc")
    # -ffp-contract=off keeps the window rule's double arithmetic
    # rounding exactly like numpy's.
    base_cmd = [cc, "-O3", "-fPIC", "-ffp-contract=off", "-shared",
                f"-I{include}", str(_SOURCE), str(library), "-lm",
                "-o", tmp]
    try:
        # -march=native first for the wide multiplies and cmovs; retry
        # plain -O3 for compilers/targets that reject the flag.
        attempts = [base_cmd[:1] + ["-march=native"] + base_cmd[1:],
                    base_cmd]
        last = None
        for cmd in attempts:
            last = subprocess.run(cmd, capture_output=True, text=True)
            if last.returncode == 0:
                break
        if last is None or last.returncode != 0:
            stderr = last.stderr.strip() if last is not None else ""
            raise KernelBuildError(
                f"kernel compilation failed with {cc!r}: {stderr}")
        os.replace(tmp, target)
    except FileNotFoundError as exc:
        raise KernelBuildError(
            f"C compiler {cc!r} not found") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_P = ctypes.c_void_p


def _ptr(array: np.ndarray) -> int:
    assert array.dtype == np.int64 and array.flags["C_CONTIGUOUS"], \
        f"kernel arrays must be C-contiguous int64, got {array.dtype}"
    return array.ctypes.data


def _check_draws(lib) -> None:
    """Raise unless the C draw paths reproduce numpy's samplers.

    The compiled loops draw through numpy's static bounded-integer,
    geometric and gamma routines; a numpy whose library and Python
    layer disagree (or a changed bit generator layout) would silently
    move every stream.  Compared: ``Generator.integers`` at 32-bit and
    64-bit bounds with odd counts (the buffered 32-bit half-words),
    ``Generator.geometric`` on both branches (search for p >= 1/3,
    inversion below), ``Generator.gamma`` at shapes below, at and above
    1, and the generator state after each.
    """
    def draw(seed, ours, theirs, what):
        mine = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for count in (1, 7, 64):
            bit_generator = mine.bit_generator
            with bit_generator.lock:
                out = ours(bit_generator.ctypes.bit_generator, count)
            if not np.array_equal(out, theirs(reference, count)):
                raise KernelBuildError(
                    f"compiled draws differ from {what} "
                    f"(numpy {np.__version__})")
        if mine.bit_generator.state != reference.bit_generator.state:
            raise KernelBuildError(
                "compiled draws leave a different generator state "
                f"than {what} (numpy {np.__version__})")

    def fill(function, dtype, *args):
        def ours(bit_generator, count):
            out = np.empty(count, dtype=dtype)
            function(bit_generator, *args, count, out.ctypes.data)
            return out
        return ours

    for span in (2, 3, 1001 * 1000, (1 << 20) * ((1 << 20) - 1)):
        draw(span, fill(lib.repro_bounded_fill, np.int64, span - 1),
             lambda rng, count, span=span: rng.integers(
                 0, span, size=count, dtype=np.int64),
             f"Generator.integers(0, {span})")
    for p in (1.0, 0.5, 1 / 3, 0.25, 1e-3, 2 / (1001 * 1000)):
        draw(17, fill(lib.repro_geometric_fill, np.int64, p),
             lambda rng, count, p=p: rng.geometric(p, size=count),
             f"Generator.geometric({p})")
    for shape in (0.5, 1.0, 3.0, 1e6):
        draw(23, fill(lib.repro_gamma_fill, np.float64, shape, 1e-3),
             lambda rng, count, shape=shape: rng.gamma(
                 shape, 1e-3, size=count),
             f"Generator.gamma({shape})")


def load():
    """Build/load the shared object; return the kernel namespace.

    Raises :class:`KernelBuildError` when no compiler is available,
    the build fails, or the compiled draws do not reproduce numpy's --
    callers treat that as "backend unusable" and fall back.
    """
    path = build()
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(
            f"cannot load kernel library {path}: {exc}") from exc

    lib.repro_bounded_fill.restype = None
    lib.repro_bounded_fill.argtypes = [_P, _I64, _I64, _P]
    lib.repro_geometric_fill.restype = None
    lib.repro_geometric_fill.argtypes = [_P, _F64, _I64, _P]
    lib.repro_gamma_fill.restype = None
    lib.repro_gamma_fill.argtypes = [_P, _F64, _F64, _I64, _P]
    lib.repro_null_skip_run.restype = _I64
    lib.repro_null_skip_run.argtypes = [
        _P, _I64, _I64, _I64, _I64, _P, _P, _P, _P, _I64, _P, _P]
    lib.repro_ensemble_batch.restype = _I64
    lib.repro_ensemble_batch.argtypes = [
        _P, _I64, _I64, _I64, _I64, _I64, _I64, _I64, _P, _P, _P,
        _P, _P, _P, _P, _P]
    lib.repro_ensemble_round.restype = _I64
    lib.repro_ensemble_round.argtypes = [
        _P, _I64, _I64, _I64, _I64, _P, _P, _P, _P,
        _P, _P, _P, _P, _P, _P]
    lib.repro_count_block.restype = None
    lib.repro_count_block.argtypes = [_P, _P, _I64, _P, _I64,
                                      _P, _P, _P]
    lib.repro_batch_match.restype = _I64
    lib.repro_batch_match.argtypes = [_P, _I64, _P, _P, _I64, _P]
    _check_draws(lib)

    def ensemble_batch(generator, counts, n, budget, window, w_min,
                       w_cap, ptab, cls, steps, productive, settled,
                       decision, totals):
        bit_generator = generator.bit_generator
        with bit_generator.lock:
            status = lib.repro_ensemble_batch(
                bit_generator.ctypes.bit_generator, counts.shape[0], n,
                counts.shape[1], budget, window, w_min, w_cap,
                _ptr(counts), _ptr(ptab), _ptr(cls), _ptr(steps),
                _ptr(productive), _ptr(settled), _ptr(decision),
                _ptr(totals))
        if status:
            raise MemoryError("ensemble batch work buffers")

    def null_skip_run(generator, counts, n, max_steps, track_time, ptab,
                      cls, pairs):
        """One null-skipping trial from ``counts`` (mutated in place);
        ``(steps, productive, frozen, elapsed)``."""
        out = np.zeros(3, dtype=np.int64)
        elapsed = ctypes.c_double(0.0)
        bit_generator = generator.bit_generator
        with bit_generator.lock:
            status = lib.repro_null_skip_run(
                bit_generator.ctypes.bit_generator, n, counts.shape[0],
                max_steps, track_time, _ptr(counts), _ptr(ptab),
                _ptr(cls), _ptr(pairs), pairs.shape[0], _ptr(out),
                ctypes.byref(elapsed))
        if status:
            raise MemoryError("null-skipping work buffer")
        return int(out[0]), int(out[1]), bool(out[2]), elapsed.value

    def ensemble_round(raw, counts, remaining, n, ptab, cls,
                       consumed, round_prod, settled, settle_step,
                       settle_prod, decision):
        live, w = raw.shape
        status = lib.repro_ensemble_round(
            _ptr(raw), live, w, n, counts.shape[1], _ptr(counts),
            _ptr(remaining), _ptr(ptab), _ptr(cls),
            _ptr(consumed), _ptr(round_prod), _ptr(settled),
            _ptr(settle_step), _ptr(settle_prod), _ptr(decision))
        if status:
            raise MemoryError("ensemble round work buffers")

    def count_block(q, r, counts, ptab, cls, out):
        lib.repro_count_block(_ptr(q), _ptr(r), len(q), _ptr(counts),
                              len(counts), _ptr(ptab), _ptr(cls),
                              _ptr(out))

    def batch_match(chosen, agents, dense, ptab):
        return int(lib.repro_batch_match(
            _ptr(chosen), len(chosen) // 2, _ptr(agents), _ptr(dense),
            len(dense), _ptr(ptab)))

    class _Kernels:
        backend = "cext"
        library_path = str(path)

    _Kernels.ensemble_batch = staticmethod(ensemble_batch)
    _Kernels.ensemble_round = staticmethod(ensemble_round)
    _Kernels.null_skip_run = staticmethod(null_skip_run)
    _Kernels.count_block = staticmethod(count_block)
    _Kernels.batch_match = staticmethod(batch_match)
    return _Kernels
