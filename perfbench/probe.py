"""Set-up probe: one workload's set-up in a fresh interpreter.

Usage: ``python perfbench/probe.py <workload> <full|smoke> <workdir>``.
Prints ``ready`` once the first unit of work could be issued; the
parent times the interval from launch to that line.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import prepare_paths


def main(argv) -> int:
    workload, size, workdir = argv
    prepare_paths()
    if workload == "figure-grids":
        import figure_grids as module
    elif workload == "auto-scaling":
        import auto_scaling as module
    else:
        raise SystemExit(f"probe: no set-up probe for {workload!r}")
    module.setup(Path(workdir), size == "smoke")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
