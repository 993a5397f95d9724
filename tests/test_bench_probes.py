"""The benchmark's layer probes still find every function they trace, and
its gate still reads the tables a run writes.

``bench/layers.py`` names package functions, and the arguments its counts
read, by string.  A rename in the package would otherwise surface only as
a failing traced benchmark run (``bench/run_bench.py --trace 1``).
``bench/gate.py`` counts each arm's integration steps from the rows of its
population table, so a layout change that moved them would change what
the budget check sees.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from types import SimpleNamespace

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

# reference and control grids differ, so the step sum tells them apart
STA_FAST = """\
schema_version: 1
scenario: sta
t_final: 10.0
grid:
  reference_steps: 3000
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


def test_traced_full_run_reads_the_device_spans(installed, tmp_path):
    """A ``full`` run passes through both device probes: the reference
    sweep and the primary control are each mapped onto the flux axis and
    annotated once."""
    t, _ = installed
    layers = importlib.import_module("layers")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(DECEL_FAST, encoding="utf-8")
    assert main(["full", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    names = [s.name for s in t.spans]
    assert names.count("device.flux_schedule_for") == 2
    assert names.count("device.rwa_emulation_map") == 2
    metrics = layers.layer_metrics(t.spans)
    assert metrics["device.calls"] == 4
    assert metrics["device.map_s"] > 0.0


def test_traced_sta_run_reads_every_count(installed, tmp_path):
    """An ``sta`` run passes through the sta synthesis, the adiabatic
    target, the branch scan and the integrator, and the traced step count
    is the reference's plus every arm's, each arm once on its grid and
    once at twice the step for its error estimate.  Every arm is
    synthesized once by ``ffst.synthesize_control``, and each
    ``sta.synthesize_sta_control`` span holds one of those."""
    t, _ = installed
    layers = importlib.import_module("layers")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(STA_FAST, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sta", "--config", str(cfg), "--out", str(out)]) == 0
    names = {s.name for s in t.spans}
    for name in (
        "sta.synthesize_sta_control",
        "sta.adiabatic_target",
        "zerocurves.link_branches",
        "dynamics.integrate_schrodinger",
    ):
        assert name in names, name
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    arms = summary["fidelities"]
    assert set(arms) == {"sta", "unmodified"}
    want = summary["reference"]["n_steps"] + (4000 + 2000) * len(arms)
    assert summary["reference"]["n_steps"] == 3000
    assert layers.layer_metrics(t.spans)["dynamics.steps"] == want
    synth = [s.parent for s in t.spans if s.name == "ffst.synthesize_control"]
    assert len(synth) == len(arms)
    for outer in (s for s in t.spans if s.name == "sta.synthesize_sta_control"):
        assert synth.count(outer.id) == 1


@pytest.mark.parametrize(
    "command, text, primary",
    [("verify", DECEL_FAST, "itt"), ("sta", STA_FAST, "sta")],
    ids=["verify", "sta"],
)
def test_gate_reads_layout_4_steps(monkeypatch, tmp_path, command, text, primary):
    """``gate._steps`` reads each arm's step count, and the reference's,
    from a layout-4 ``populations_<arm>.tsv``, which has no time column;
    the gate passes the run."""
    monkeypatch.syspath_prepend(BENCH)
    gate = importlib.import_module("gate")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["output_schema"] == 4
    steps = dict.fromkeys(summary["fidelities"], 4000)
    steps["reference"] = summary["reference"]["n_steps"]
    assert len(steps) >= 3
    for label, n in steps.items():
        table = out / f"populations_{label}.tsv"
        assert table.read_text(encoding="utf-8").split("\n", 1)[0] == "p1\tp2"
        assert gate._steps(str(table)) == n, label
    floors = {summary["t_final"]: None}
    runs = gate.read_runs(str(out))
    assert gate.check_runs(SimpleNamespace(primary=primary), floors, runs) == []
