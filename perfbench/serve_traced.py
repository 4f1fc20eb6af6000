"""``python -m repro serve`` with the layer spans recorded.

Usage: ``python perfbench/serve_traced.py <spans.json> <serve args>``.
Serves exactly like ``repro serve <serve args>``; when the server
stops (SIGTERM), the spans go to ``<spans.json>`` and the service's
telemetry counters to ``<spans>.telemetry.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import prepare_paths


def main(argv) -> int:
    spans_path = Path(argv[0])
    prepare_paths()

    import layers
    from repro.service import cli
    from repro.service.service import SimulationService
    from spans import Tracer, patch_method

    tracer = Tracer()
    layers.install(tracer, service=True)
    services = []
    patch_method(tracer, SimulationService, "start", "service",
                 "service.start",
                 on_exit=lambda args, result, start, end:
                 services.append(args[0]))
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(spans_path, {})
        records = [record for service in services
                   for record in service.sink.records
                   if record["kind"] == "counter"]
        with open(spans_path.with_suffix(".telemetry.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(records, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
