"""The benchmark's layer probes still find every function they trace.

``bench/layers.py`` names package functions, and the arguments its counts
read, by string.  A rename in the package would otherwise surface only as
a failing traced benchmark run (``bench/run_bench.py --trace 1``).
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

from ffsynth.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
MODULES = (
    "analysis", "cli", "config", "device", "drives",
    "dynamics", "ffst", "itt", "sta", "zerocurves",
)

DECEL_FAST = """\
schema_version: 1
scenario: decelerate
t_final: 1.1
grid:
  reference_steps: 4000
  control_steps: 4000
  scan_points: 4000
  cost_points: 1000
"""


@pytest.fixture
def installed(monkeypatch):
    """A tracer wrapped around every probed function, removed afterwards."""
    monkeypatch.syspath_prepend(BENCH)
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    ff = {name: importlib.import_module(f"ffsynth.{name}") for name in MODULES}
    package = [m for n, m in sys.modules.items() if n == "ffsynth" or n.startswith("ffsynth.")]
    probes = layers.probes(ff)
    t = tracer.Tracer()
    t.install(probes, package)
    try:
        yield t, probes
    finally:
        t.uninstall()


def test_every_probe_installs_and_uninstalls(installed):
    t, probes = installed
    for probe in probes:
        assert hasattr(getattr(probe.owner, probe.attr), "__wrapped__"), probe.name
    t.uninstall()
    for probe in probes:
        assert not hasattr(getattr(probe.owner, probe.attr), "__wrapped__"), probe.name


def test_traced_verify_run_reads_every_count(installed, tmp_path):
    t, _ = installed
    cfg = tmp_path / "run.yaml"
    cfg.write_text(DECEL_FAST, encoding="utf-8")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    names = {s.name for s in t.spans}
    for name in (
        "cli.run_single",
        "dynamics.integrate_schrodinger",
        "zerocurves.link_branches",
        "zerocurves.detect_gaps",
        "ffst.FfstPhaseModel",
        "itt.optimize_virtual_trajectory",
        "ffst.synthesize_control",
        "analysis.trajectory_shift_analysis",
    ):
        assert name in names, name
    assert [s.schedule for s in t.spans if s.name == "cli.run_single"] == [1.1]
    assert sum(s.name == "ffst.FfstPhaseModel" for s in t.spans) == 1
