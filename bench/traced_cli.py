"""Traced ffsynth CLI run.

    python3 bench/traced_cli.py SPANS.json <ffsynth arguments...>

Imports the package, wraps the layer functions listed in layers.py in
every ``ffsynth.*`` namespace that binds them, runs ``ffsynth.cli.main``
with the remaining arguments and, when it returns, writes the recorded
spans to SPANS.json.  The exit code is main's.
"""

import importlib
import json
import sys

from layers import probes
from tracer import Tracer, to_records

MODULES = (
    "analysis", "cli", "config", "device", "drives",
    "dynamics", "ffst", "itt", "sta", "zerocurves",
)


def run(spans_path: str, args: list[str]) -> int:
    ff = {name: importlib.import_module(f"ffsynth.{name}") for name in MODULES}
    package = [m for n, m in sys.modules.items() if n == "ffsynth" or n.startswith("ffsynth.")]
    tracer = Tracer()
    tracer.install(probes(ff), package)
    try:
        return ff["cli"].main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(to_records(tracer.spans), fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
