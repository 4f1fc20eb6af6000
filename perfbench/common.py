"""Checkout paths, host metadata, statistics and set-up timing."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 5


@dataclass
class Context:
    """What one benchmark run was asked to do, and where it may write."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path
    meta: dict = field(default_factory=dict)


def require_program() -> None:
    """Exit non-zero unless the program's source sits beside us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source under {SRC}; run the "
            "benchmark from the root of a repository checkout")


def prepare_environment(workdir: Path) -> None:
    """Keep every file the run and its children write in the checkout.

    The compiled kernel cache and the C compiler's temporaries would
    otherwise land under the home directory and ``/tmp``.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(tmp)
    os.environ.pop("REPRO_OUTPUT_DIR", None)
    paths = [str(SRC), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    prepare_paths()


def prepare_paths() -> None:
    """Make the program and the benchmark's modules importable."""
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _source_revision() -> str:
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # Not a git checkout: name the code by the hash of its sources.
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def host_metadata(workload: str, seed: int) -> dict:
    """The facts a reader needs to compare this run with another."""
    import numpy

    from repro.sim import kernels

    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "kernel_backend": kernels.warm_up(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_rev": _source_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def probe_setup(ctx: Context) -> float:
    """Median seconds from process start until work can be issued.

    Each sample starts a fresh interpreter running :mod:`probe`, which
    does the workload's set-up and prints ``ready``.  One untimed
    launch comes first: it writes the bytecode caches and builds the
    compiled kernels, which users pay once per machine.
    """
    size = "smoke" if ctx.smoke else "full"
    command = [sys.executable, str(HERE / "probe.py"), ctx.workload,
               size, str(ctx.workdir / "probe")]

    def launch() -> float:
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {line!r}")
        return elapsed

    launch()
    return statistics.median(launch() for _ in range(SETUP_SAMPLES))


def peak_rss_mb_self() -> float:
    """This process's peak resident set size in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size of a live process, in MB (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
