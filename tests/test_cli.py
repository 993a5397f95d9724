"""End-to-end command line runs against temporary reduced-resolution configs."""

from __future__ import annotations

import ast
import json
import os
import shlex
import subprocess
import sys
import weakref
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

import ffsynth
from ffsynth import analysis, cli, zerocurves
from ffsynth.cli import (
    TABLE_CHUNK_ROWS,
    _slew,
    _write_branches,
    _write_control,
    _write_table,
    main,
)
from ffsynth.dynamics import ReferenceTrajectory, TimeGrid
from ffsynth.ffst import FfstPhaseModel
from ffsynth.itt import VirtualTrajectory

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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

# the shape of configs/reference-sweep.yaml: the sweep at its own duration
REFERENCE_SWEEP = """\
schema_version: 1
scenario: accelerate
t_final: 1.0
baselines: []
grid:
  reference_steps: 4000
"""

STA_FAST = """\
schema_version: 1
scenario: sta
t_final: 10.0
grid:
  reference_steps: 4000
  control_steps: 4000
  scan_points: 4000
  cost_points: 1000
"""

ACCEL_SWEEP = """\
schema_version: 1
scenario: accelerate
t_final: [0.9, 0.95]
grid:
  reference_steps: 4000
  control_steps: 4000
  scan_points: 4000
"""

# config keys that no longer exist, and the error each one now raises
REMOVED_KEYS = [
    ("bridge: {width_bounds: [0.01, 0.05]}", "bridge.width_bounds: unknown key"),
    ("bridge: {center_slack: 0.05}", "bridge.center_slack: unknown key"),
    ("bridge: {mode: local}", "bridge.mode: unknown key"),
    ("bridge: {amp_max: 7.0}", "bridge.amp_max: unknown key"),
    ("bridge: {init: [[0.9, 0.02, 0.3]]}", "bridge.init: unknown key"),
    ("crossing_plan: {times: [0.5]}", "crossing_plan.times: unknown key"),
    ("crossing_plan: {kind: times}", "crossing_plan.kind: must be one of"),
    ("device: {ej_max: 30.0}", "device.ej_max: unknown key"),
    ("device: {ej_fixed: 27.7}", "device.ej_fixed: unknown key"),
    ("device: {ec: 0.203}", "device.ec: unknown key"),
    ("device: {ecc: 0.01}", "device.ecc: unknown key"),
    ("device: {d: 0.85}", "device.d: unknown key"),
    ("device: {omega2: 6.5}", "device.omega2: unknown key"),
    # the floor belongs to the invocation: --require-fidelity
    ("require_fidelity: 0.999", "require_fidelity: unknown key"),
]


def _config(tmp_path, text, name="run.yaml") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def decel_runs(tmp_path_factory):
    """One clean full run and one with an unreachable fidelity floor."""
    base = tmp_path_factory.mktemp("cli-decel")
    cfg = _config(base, DECEL_FAST)
    out_a = str(base / "a")
    out_b = str(base / "b")
    rc_a = main(["full", "--config", cfg, "--out", out_a])
    rc_b = main(
        ["full", "--config", cfg, "--out", out_b,
         "--require-fidelity", "0.99999999999"]
    )
    return rc_a, out_a, rc_b, out_b


def _percent_table(path: str, header: list[str], columns) -> None:
    """The ``%`` row writer the byte-field writer replaced, kept as its
    oracle: numbers through ``'%.17g' %``, text through ``'%s' %``."""
    cols = [np.asarray(c) for c in columns]
    is_text = [c.dtype.kind in "OSU" for c in cols]
    cols = [c if text else np.asarray(c, dtype=float) for c, text in zip(cols, is_text)]
    row_fmt = "\t".join("%s" if text else "%.17g" for text in is_text) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for start in range(0, len(cols[0]), TABLE_CHUNK_ROWS):
            block = [c[start : start + TABLE_CHUNK_ROWS].tolist() for c in cols]
            values = tuple(chain.from_iterable(zip(*block)))
            fh.write((row_fmt * len(block[0])) % values)


@pytest.mark.parametrize(
    "command, text, n_tables",
    [("full", DECEL_FAST, 9), ("sta", STA_FAST, 6)],
    ids=["full-decelerate", "sta"],
)
def test_tables_match_percent_writer(tmp_path, monkeypatch, command, text, n_tables):
    """A run writes every table byte for byte as the ``%`` row writer does."""
    cfg = _config(tmp_path, text)
    ours, oracle = tmp_path / "ours", tmp_path / "oracle"
    assert main([command, "--config", cfg, "--out", str(ours)]) == 0
    monkeypatch.setattr(cli, "_write_table", _percent_table)
    assert main([command, "--config", cfg, "--out", str(oracle)]) == 0
    names = sorted(name for name in os.listdir(ours) if name.endswith(".tsv"))
    assert len(names) == n_tables
    assert names == sorted(name for name in os.listdir(oracle) if name.endswith(".tsv"))
    for name in names:
        assert (ours / name).read_bytes() == (oracle / name).read_bytes(), name


class TestTableWriter:
    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, TABLE_CHUNK_ROWS - 1, TABLE_CHUNK_ROWS, TABLE_CHUNK_ROWS + 1,
         2 * TABLE_CHUNK_ROWS + 1],
    )
    def test_bytes_match_savetxt(self, tmp_path, n_rows):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e17, 3.0, -12.0,
                   0.1, 1.0 / 3.0, 2.0**53 + 1.0, -1.7976931348623157e308,
                   1e-5, 9.9999999999999991e-6, 1e-4, 9.9999999999999984e16, 1e16,
                   1e-305, 2.0**-25, 939042730525282.625, -0.001000404357910156250]
        values = np.resize(np.array(special), 3 * n_rows)
        n_rest = max(0, 3 * n_rows - len(special))
        values[len(special):] += np.linspace(-5.0, 5.0, n_rest)
        data = values.reshape(n_rows, 3)
        ours = tmp_path / "ours.tsv"
        _write_table(str(ours), ["t", "p1", "p2"], [data[:, 0], data[:, 1], data[:, 2]])
        ref = tmp_path / "ref.tsv"
        np.savetxt(str(ref), data, fmt="%.17g", delimiter="\t", header="t\tp1\tp2",
                   comments="")
        assert ours.read_bytes() == ref.read_bytes()

    def test_single_column(self, tmp_path):
        col = np.array([np.nan, -0.0, 1e17, 7.0])
        ours = tmp_path / "ours.tsv"
        _write_table(str(ours), ["x"], [col])
        ref = tmp_path / "ref.tsv"
        np.savetxt(str(ref), col[:, None], fmt="%.17g", delimiter="\t", header="x",
                   comments="")
        assert ours.read_bytes() == ref.read_bytes()

    def test_text_labels_match_row_writer(self, tmp_path):
        """Labels, non-ASCII and empty ones included, keep the bytes of
        ``'%s' %``; each distinct label is encoded once."""
        labels = np.array(["X", "", "\u03b2-branch", "Y", "\u00e9", "X"] * 700, dtype=object)
        values = np.linspace(-1.0, 1.0, len(labels))
        ours = tmp_path / "ours.tsv"
        _write_table(str(ours), ["label", "v", "tag"], [labels, values, labels])
        ref = tmp_path / "ref.tsv"
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write("label\tv\ttag\n")
            for label, v in zip(labels, values):
                fh.write("%s\t%.17g\t%s\n" % (label, v, label))
        assert ours.read_bytes() == ref.read_bytes()


    def test_branch_table_matches_row_writer(self, tmp_path, decel_a, accel):
        """``branches.tsv`` keeps the bytes of the per-row writer it replaced."""
        for scts in (decel_a.scts, accel.scts, []):
            ours = tmp_path / "ours.tsv"
            _write_branches(str(ours), scts)
            ref = tmp_path / "ref.tsv"
            with open(ref, "w", encoding="utf-8") as fh:
                fh.write("branch\tt\tf2\n")
                for b in scts:
                    for t, f in zip(b.times, ffsynth.wrap_phase(b.f2)):
                        fh.write("%s\t%.17g\t%.17g\n" % (b.branch_id, t, f))
            assert ours.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "name", ["decel_a", "decel_b", "accel", "sta10", "sta20", "sta30"]
    )
    def test_branch_table_has_a_row_per_branch_sample(self, tmp_path, request, name):
        bundle = request.getfixturevalue(name)
        scts = bundle.scts if hasattr(bundle, "scts") else bundle.branches
        path = tmp_path / "branches.tsv"
        _write_branches(str(path), scts)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == sum(len(b.times) for b in scts)

    def test_shift_table_matches_row_writer(self, tmp_path, decel_b):
        """``shifts.tsv`` keeps the bytes of the per-row writer it replaced,
        including the empty labels before either branch leads."""
        series = ffsynth.trajectory_shift_analysis(
            decel_b.report.trajectory, decel_b.scts, decel_b.model
        )
        assert "" in set(series.dominant) and "X" in set(series.dominant)
        ours = tmp_path / "ours.tsv"
        _write_table(
            str(ours),
            ["t", "overlap_x", "overlap_y", "dominant"],
            [series.times, series.overlap_x, series.overlap_y, series.dominant],
        )
        ref = tmp_path / "ref.tsv"
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write("t\toverlap_x\toverlap_y\tdominant\n")
            for t, ox, oy, dom in zip(
                series.times, series.overlap_x, series.overlap_y, series.dominant
            ):
                fh.write("%.17g\t%.17g\t%.17g\t%s\n" % (t, ox, oy, dom))
        assert ours.read_bytes() == ref.read_bytes()


#: What each stage adds to a run: its tables and its top-level summary keys.
#: The verify stage's tables are named after the scenario's arms.
STAGE_WRITES = {
    "reference": (
        {"populations_reference.tsv"},
        {"schema_version", "output_schema", "stage", "scenario", "t_ref", "t_final",
         "delta_omega0", "reference"},
    ),
    "map": ({"residual.tsv", "branches.tsv"}, {"branches", "gaps"}),
    "synthesize": ({"control.tsv"}, {"plan", "bridges", "cost", "bridge_mode"}),
    "verify": (
        set(),
        {"fidelities", "step_error", "norm_drift", "h_max_delta_omega",
         "max_abs_delta_omega", "max_abs_slew", "target_populations"},
    ),
    "device": ({"device_reference.tsv"}, {"device"}),
}

VERIFYING = ("reference", "map", "synthesize", "verify")

#: The stages each subcommand takes.
COMMAND_STAGES = {
    "reference": ("reference",),
    "map": ("reference", "map"),
    "synthesize": ("reference", "map", "synthesize"),
    "verify": VERIFYING,
    "sta": VERIFYING,
    "device": ("reference", "device"),
    "full": VERIFYING + ("device",),
}

#: Per scenario: its config, the verify stage's tables and keys beyond
#: STAGE_WRITES, and whether a full run's control maps onto the flux axis
#: (``device_control.tsv``).
RUN_CONFIGS = {
    "decelerate": (
        DECEL_FAST,
        {"populations_itt.tsv", "populations_naive.tsv",
         "populations_alpha-scaled.tsv", "shifts.tsv"},
        {"shift_analysis"},
        False,
    ),
    "sta": (
        STA_FAST, {"populations_sta.tsv", "populations_unmodified.tsv"}, set(), True
    ),
    "accelerate": (
        REFERENCE_SWEEP, {"populations_itt.tsv", "shifts.tsv"}, {"shift_analysis"}, True
    ),
}


def _expected_stages(command: str, scenario: str):
    """The stages a run takes, or None where the subcommand exits 2."""
    if command == "sta" and scenario != "sta":
        return None
    return COMMAND_STAGES[command]


@pytest.mark.parametrize("scenario", list(RUN_CONFIGS))
@pytest.mark.parametrize("command", list(COMMAND_STAGES))
def test_what_each_run_writes(tmp_path, capsys, command, scenario):
    """The tables and summary keys of every (subcommand, scenario) pair."""
    text, arm_tables, arm_keys, control_feasible = RUN_CONFIGS[scenario]
    out = tmp_path / "out"
    rc = main([command, "--config", _config(tmp_path, text), "--out", str(out)])
    stages = _expected_stages(command, scenario)
    if stages is None:
        assert rc == 2
        assert "the sta subcommand needs scenario: sta" in capsys.readouterr().err
        assert not out.exists()
        return
    assert rc == 0
    tables = set().union(*(STAGE_WRITES[s][0] for s in stages))
    keys = set().union(*(STAGE_WRITES[s][1] for s in stages))
    if "verify" in stages:
        tables |= arm_tables
        keys |= arm_keys
    if "synthesize" in stages and "device" in stages and control_feasible:
        tables.add("device_control.tsv")
    assert {p.name for p in out.iterdir()} == tables | {"summary.json"}
    assert set(_read_summary(str(out))) == keys


class TestReferenceStage:
    def test_run_and_summary(self, tmp_path, capsys):
        cfg = _config(tmp_path, REFERENCE_SWEEP)
        out = str(tmp_path / "out")
        rc = main(["reference", "--config", cfg, "--out", out])
        captured = capsys.readouterr()
        assert rc == 0
        assert "wrote" in captured.out

        summary = _read_summary(out)
        assert summary["stage"] == "reference"
        assert summary["scenario"] == "accelerate"
        assert summary["reference"]["n_steps"] == 4000
        assert summary["reference"]["norm_drift"] < 1e-9

        # the file is the canonical sorted two-space-indented rendering
        with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as fh:
            raw = fh.read()
        assert raw == json.dumps(summary, sort_keys=True, indent=2) + "\n"

    def test_population_table_round_trips(self, tmp_path):
        cfg = _config(tmp_path, REFERENCE_SWEEP)
        out = str(tmp_path / "out")
        assert main(["reference", "--config", cfg, "--out", out]) == 0

        path = os.path.join(out, "populations_reference.tsv")
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "t\tp1\tp2"
        data = np.loadtxt(path, skiprows=1)
        assert data.shape == (4001, 3)
        summary = _read_summary(out)
        assert data[-1, 1] == summary["reference"]["final_populations"][0]
        assert data[-1, 2] == summary["reference"]["final_populations"][1]

    def test_seed_free(self, tmp_path):
        cfg = _config(tmp_path, REFERENCE_SWEEP)
        out = str(tmp_path / "out")
        rc = main(["reference", "--config", cfg, "--out", out, "--seed-free"])
        assert rc == 0

    def test_seed_free_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        """A stage that draws from ``np.random`` fails ``--seed-free`` with
        exit 1, and passes without the flag."""
        reference = cli._reference

        def drawing(*args):
            np.random.random()
            return reference(*args)

        monkeypatch.setattr(cli, "_reference", drawing)
        cfg = _config(tmp_path, REFERENCE_SWEEP)
        out = str(tmp_path / "out")
        state = np.random.get_state()
        try:
            rc = main(["reference", "--config", cfg, "--out", out, "--seed-free"])
            assert rc == 1
            err = capsys.readouterr().err
            assert err == "seed-free assertion failed: RNG state changed\n"
            assert main(["reference", "--config", cfg, "--out", out]) == 0
        finally:
            np.random.set_state(state)

    def test_sta_reference_failure_names_stage(self, tmp_path, capsys):
        """A detuning whose square overflows used to warn from the eigenstate
        angles, an error under the suite's filter, before the reference
        integration failed; the overflow only takes chi_dot to its limit -0."""
        cfg = _config(tmp_path, STA_FAST + "delta_omega0: 1.0e+300\n")
        rc = main(["sta", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "reference integration at stage 'sta'" in capsys.readouterr().err

    def test_reference_failure_names_stage(self, tmp_path, capsys):
        """A reference integration that is not finite is reported as the
        reference's failure, with the stage and the sweep value."""
        cfg = _config(tmp_path, DECEL_FAST + "delta_omega0: 1.0e+300\n")
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "synthesis failed: reference integration at stage 'verify', "
            "t_final=1.1: integration produced a non-finite amplitude at time "
            "index 1 (t = 0.00025)\n"
        )
        assert not (out / "populations_reference.tsv").exists()


class TestVerifyStage:
    def test_clean_run_succeeds(self, decel_runs):
        rc_a, out_a, _, _ = decel_runs
        assert rc_a == 0
        summary = _read_summary(out_a)
        assert set(summary["fidelities"]) == {"itt", "naive", "alpha-scaled"}
        assert summary["fidelities"]["itt"] > 0.999
        assert summary["shift_analysis"]["count"] == 1
        assert "fidelity_ok" not in summary
        cost = summary["cost"]
        assert cost["max_evaluations"] == 2000
        assert cost["converged"] is (cost["evaluations"] < cost["max_evaluations"])
        assert len(cost["bridge_evaluations"]) == len(summary["bridges"])
        assert sum(cost["bridge_evaluations"]) == cost["evaluations"]
        assert cost["converged"] is all(cost["bridge_converged"])
        for name in (
            "control.tsv",
            "branches.tsv",
            "residual.tsv",
            "shifts.tsv",
            "populations_itt.tsv",
            "populations_naive.tsv",
            "populations_alpha-scaled.tsv",
        ):
            assert os.path.exists(os.path.join(out_a, name)), name

    def test_norm_drift_per_arm(self, decel_runs):
        """Each arm's ``norm_drift`` is the largest | |psi| - 1 | over its
        own population table."""
        _, out_a, _, _ = decel_runs
        drift = _read_summary(out_a)["norm_drift"]
        assert set(drift) == {"itt", "naive", "alpha-scaled"}
        assert set(_read_summary(out_a)["h_max_delta_omega"]) == set(drift)
        for label, value in drift.items():
            data = np.loadtxt(os.path.join(out_a, f"populations_{label}.tsv"), skiprows=1)
            want = np.max(np.abs(np.sqrt(data[:, 1] + data[:, 2]) - 1.0))
            assert abs(value - want) <= 1e-12, label

    def test_step_error_per_arm(self, decel_runs):
        """Every arm reports a step-doubling estimate next to its fidelity."""
        _, out_a, _, _ = decel_runs
        summary = _read_summary(out_a)
        error = summary["step_error"]
        assert set(error) == set(summary["fidelities"])
        assert all(0.0 <= v < 1e-3 for v in error.values()), error

    def test_target_populations_are_the_reference_row(self, decel_runs):
        """The target is the reference's final state; its populations are
        the last row of ``populations_reference.tsv``, to the bit."""
        _, out_a, _, _ = decel_runs
        summary = _read_summary(out_a)
        data = np.loadtxt(os.path.join(out_a, "populations_reference.tsv"), skiprows=1)
        assert summary["target_populations"] == data[-1, 1:].tolist()
        assert summary["reference"]["final_populations"] == data[-1, 1:].tolist()

    def test_h_max_delta_omega_per_arm(self, tmp_path, monkeypatch):
        """On accelerate-chain each arm's ``h_max_delta_omega`` is its grid
        step times its largest |delta_omega| over node and midpoint
        samples; the itt arm reads about 0.015."""
        verify = cli.verify_control
        arms = {}

        def recording(control, initial, target):
            arms[control.label] = control
            return verify(control, initial, target)

        monkeypatch.setattr(cli, "verify_control", recording)
        config = os.path.join(ROOT, "configs", "accelerate-chain.yaml")
        out = str(tmp_path / "out")
        assert main(["verify", "--config", config, "--out", out]) == 0
        value = _read_summary(out)["h_max_delta_omega"]
        assert set(value) == set(arms) == {"itt", "naive", "alpha-scaled"}
        for label, arm in arms.items():
            assert value[label] == arm.grid.h * np.max(np.abs(arm.delta_omega)), label
        assert 0.01 < value["itt"] < 0.02

    def test_floor_failure_exits_4(self, decel_runs):
        _, _, rc_b, out_b = decel_runs
        assert rc_b == 4
        summary = _read_summary(out_b)
        assert summary["require_fidelity"] == 0.99999999999
        assert summary["fidelity_ok"] is False

    def test_reruns_are_byte_identical(self, decel_runs):
        """The two runs write the same files and the same bytes in every
        table; only the summaries differ, by the floor of the second."""
        _, out_a, _, out_b = decel_runs
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        tables = [name for name in names if name.endswith(".tsv")]
        assert len(tables) == len(names) - 1 == 9
        for name in tables:
            with open(os.path.join(out_a, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(out_b, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name

    def test_drive_rates_per_arm(self, decel_runs):
        """The primary arm's ``max_abs_slew`` is the largest |d delta_omega /
        dt| of ``control.tsv``, by second-order differences;
        ``h_max_delta_omega`` is the grid step times ``max_abs_delta_omega``;
        the reference cosine sweep peaks at 30 and slews at about 30 pi."""
        _, out_a, _, _ = decel_runs
        summary = _read_summary(out_a)
        assert summary["output_schema"] == 3
        peak, slew = summary["max_abs_delta_omega"], summary["max_abs_slew"]
        assert set(peak) == set(slew) == set(summary["fidelities"])
        data = np.loadtxt(os.path.join(out_a, "control.tsv"), skiprows=1)
        h = summary["t_final"] / (len(data) - 1)
        assert slew["itt"] == np.max(np.abs(np.gradient(data[:, 1], h, edge_order=2)))
        assert peak["itt"] >= np.max(np.abs(data[:, 1]))
        h = data[1, 0] - data[0, 0]
        for label, value in summary["h_max_delta_omega"].items():
            assert value == pytest.approx(h * peak[label], rel=1e-12), label
        ref = summary["reference"]
        assert ref["max_abs_delta_omega"] == 30.0
        assert ref["max_abs_slew"] == pytest.approx(30.0 * np.pi, rel=1e-4)

    def test_control_table_shape(self, decel_runs):
        _, out_a, _, _ = decel_runs
        path = os.path.join(out_a, "control.tsv")
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split("\t")
        assert header == ["t", "delta_omega", "coupling", "f2"]
        data = np.loadtxt(path, skiprows=1)
        assert data.shape == (4001, 4)
        assert data[0, 3] == 0.0 and data[-1, 3] == 0.0


def test_sta_control_table_has_four_columns(tmp_path):
    """An sta run writes the same four control columns as every scenario."""
    cfg = _config(tmp_path, STA_FAST)
    out = str(tmp_path / "out")
    assert main(["sta", "--config", cfg, "--out", out]) == 0
    path = os.path.join(out, "control.tsv")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split("\t")
    assert header == ["t", "delta_omega", "coupling", "f2"]
    data = np.loadtxt(path, skiprows=1)
    assert data.shape == (4001, 4)
    summary = _read_summary(out)
    assert summary["output_schema"] == 3
    slope = np.gradient(data[:, 1], 10.0 / 4000, edge_order=2)
    assert summary["max_abs_slew"]["sta"] == np.max(np.abs(slope))


@pytest.mark.parametrize("bundle", ["decel_a", "accel", "sta20"])
def test_control_table_gives_back_dropped_columns(tmp_path, request, bundle):
    """The ``derivative``, ``alpha`` and ``lambda`` columns that layout 3
    drops come back from ``control.tsv`` bit for bit: the slope by
    second-order differences of ``delta_omega`` at step t_final / n, alpha
    and lambda by the magnification's closed forms at the table's times
    (alpha 1 and lambda t for sta, which runs in real time)."""
    run = request.getfixturevalue(bundle)
    path = tmp_path / "control.tsv"
    _write_control(str(path), run.control, run.vt.f2)
    t, delta_omega, coupling, f2 = np.loadtxt(path, skiprows=1, unpack=True)
    grid = run.control.grid
    t_final, n = grid.t_end, len(t) - 1
    assert n == grid.n_steps
    assert np.array_equal(t, grid.times)
    assert np.array_equal(coupling, run.control.coupling[::2])
    assert np.array_equal(f2, run.vt.f2)
    derivative = np.gradient(delta_omega, t_final / n, edge_order=2)
    assert np.array_equal(derivative, _slew(run.control))
    if hasattr(run, "prof"):
        k = (t_final - 1.0) / t_final
        alpha = 1.0 - k * (1.0 - np.cos(2.0 * np.pi * t / t_final))
        lam = t - k * (t - t_final / (2.0 * np.pi) * np.sin(2.0 * np.pi * t / t_final))
        assert np.array_equal(alpha, run.prof.alpha_at(grid.times))
        assert np.array_equal(lam, run.prof.lambda_at(grid.times))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: the decelerated itt control varies faster than "
    "the reference; on the shipped decelerate-single-shift its max "
    "|d delta_omega / dt| is 5,616 against the reference's 30 pi, about 94",
)
def test_decelerated_itt_varies_no_faster_than_reference(tmp_path):
    """The paper's claim for deceleration: the slowed-down control reaches
    the target while varying its parameters more slowly than the reference."""
    config = os.path.join(ROOT, "configs", "decelerate-single-shift.yaml")
    out = str(tmp_path / "out")
    if main(["verify", "--config", config, "--out", out]) != 0:
        pytest.fail("the shipped decelerate-single-shift config did not verify")
    summary = _read_summary(out)
    assert summary["max_abs_slew"]["itt"] <= summary["reference"]["max_abs_slew"]


@pytest.mark.parametrize("kind", ["vt-a", "vt-b"])
def test_decelerated_itt_slew_converges_with_the_grid(tmp_path, kind):
    """The bridges meet their branches with matching value and slope, so
    the itt control's largest slew is a property of the control, not of
    the grid; a kink at a window edge would grow it as 1/h."""
    slews = []
    for steps in (5000, 20000):
        text = DECEL_FAST.replace("control_steps: 4000", f"control_steps: {steps}")
        text += f"crossing_plan: {{kind: {kind}}}\nbaselines: []\n"
        out = str(tmp_path / f"out-{steps}")
        assert main(["verify", "--config", _config(tmp_path, text), "--out", out]) == 0
        slews.append(_read_summary(out)["max_abs_slew"]["itt"])
    assert slews[1] == pytest.approx(slews[0], rel=0.05)


def test_unscaled_itt_varies_like_the_reference(tmp_path):
    """With T_F = T the itt path follows one branch, which crosses the other
    between scan samples; a branch evaluated off the crossing root would
    make the control's slew jump there."""
    config = os.path.join(ROOT, "configs", "reference-sweep.yaml")
    out = str(tmp_path / "out")
    assert main(["verify", "--config", config, "--out", out]) == 0
    summary = _read_summary(out)
    reference = summary["reference"]["max_abs_slew"]
    assert summary["max_abs_slew"]["itt"] == pytest.approx(reference, rel=1e-4)


class TestSweepFanOut:
    def test_map_stage_sweep(self, tmp_path):
        cfg = _config(tmp_path, ACCEL_SWEEP)
        out = str(tmp_path / "out")
        rc = main(["map", "--config", cfg, "--out", out])
        assert rc == 0

        aggregate = _read_summary(out)
        assert aggregate["sweep"] == ["0.9", "0.95"]
        assert set(aggregate["runs"]) == {"0.9", "0.95"}
        for tf in ("0.9", "0.95"):
            sub = os.path.join(out, f"tf-{tf}")
            summary = _read_summary(sub)
            assert summary["t_final"] == float(tf)
            assert len(summary["branches"]) >= 2
            assert len(summary["gaps"]) >= 1
            assert os.path.exists(os.path.join(sub, "residual.tsv"))


    def test_failure_names_its_sweep_value(self, tmp_path, capsys):
        # speedups (0.9, 0.95) have no X/Y branch pair for the crossing
        # plan; the slowdown 1.1 between them still succeeds
        cfg = _config(
            tmp_path,
            "schema_version: 1\nscenario: decelerate\nt_ref: 1.0\n"
            "t_final: [0.9, 1.1, 0.95]\ncrossing_plan: {kind: vt-a}\n",
        )
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("synthesis failed: t_final=0.9: crossing plan 'vt-a'")
        assert "\nt_final=0.95: crossing plan 'vt-a'" in err
        assert "t_final=1.1" not in err
        assert (tmp_path / "out" / "tf-1.1" / "summary.json").exists()
        # the aggregate keeps the value that succeeded and names the others
        aggregate = _read_summary(str(tmp_path / "out"))
        assert aggregate["sweep"] == ["0.9", "1.1", "0.95"]
        assert set(aggregate["runs"]) == {"1.1"}
        assert aggregate["runs"]["1.1"]["fidelities"]["itt"] > 0.999
        assert set(aggregate["failed"]) == {"0.9", "0.95"}
        for message in aggregate["failed"].values():
            assert message.startswith("crossing plan 'vt-a' needs the two full-span")

    def test_path_ending_far_from_zero_exits_3(self, tmp_path, capsys):
        # the accelerate plan on a slowdown follows branch X alone, which
        # ends 1.6 rad from phase zero; the run used to exit 0 with an itt
        # fidelity below both baselines
        cfg = _config(
            tmp_path,
            "schema_version: 1\nscenario: accelerate\nt_ref: 1.0\nt_final: 1.1\n",
        )
        rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(
            "synthesis failed: path ends -1.607 rad from phase zero at t = T_F"
        )

    def test_fidelity_above_one_exits_3(self, tmp_path, monkeypatch, capsys):
        # a re-integration that scores F > 1 used to end in a traceback and
        # exit 1; the unitary step cannot, so the states it returns are
        # inflated by 1 % to reach the guard
        integrate = analysis.integrate_schrodinger

        def inflated(drive, initial, common_shift=None):
            traj = integrate(drive, initial, common_shift)
            return replace(traj, phi1=1.01 * traj.phi1, phi2=1.01 * traj.phi2)

        monkeypatch.setattr(analysis, "integrate_schrodinger", inflated)
        cfg = _config(
            tmp_path,
            "schema_version: 1\nscenario: accelerate\nt_ref: 1.0\nt_final: 0.6\n",
        )
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(
            "verification failed: arm 'itt' at stage 'verify', t_final=0.6: fidelity 1."
        )
        assert err.rstrip().endswith("outside [0, 1]")

    def test_fast_acceleration_verifies_at_most_1(self, tmp_path):
        """At T_F = 0.6 overlapping bridge windows leave a jump in the itt
        control; RK4 scored it F = 1.014 (exit 3), the unitary step scores
        it below 1, and its step-doubling estimate flags it."""
        cfg = _config(
            tmp_path,
            "schema_version: 1\nscenario: accelerate\nt_ref: 1.0\nt_final: 0.6\n",
        )
        out = str(tmp_path / "out")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        summary = _read_summary(out)
        assert 0.99 < summary["fidelities"]["itt"] <= 1.0
        assert summary["step_error"]["itt"] > 1e-6

    def test_non_finite_reintegration_exits_3(self, tmp_path, monkeypatch, capsys):
        def diverging(control, initial, target):
            raise ffsynth.IntegrationError(
                "integration produced a non-finite amplitude at time index 7"
            )

        monkeypatch.setattr(cli, "verify_control", diverging)
        cfg = _config(tmp_path, DECEL_FAST)
        rc = main(["full", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (
            "verification failed: arm 'itt' at stage 'full', t_final=1.1: "
            "integration produced a non-finite amplitude at time index 7\n"
        )

    def test_non_finite_residual_exits_3(self, tmp_path, monkeypatch, capsys):
        # one nan sample of D used to come out as nan roots linked into
        # both branches, with no gap reported
        class Poisoned(FfstPhaseModel):
            def sine_params(self, t):
                c, d, phi0 = super().sine_params(t)
                d = d.copy()
                d[2000] = np.nan
                return c, d, phi0

        monkeypatch.setattr(cli, "FfstPhaseModel", Poisoned)
        cfg = _config(tmp_path, DECEL_FAST)
        rc = main(["map", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        t = float(np.linspace(0.0, 1.1, 4001)[2000])
        assert err == (
            "synthesis failed: residual scan at stage 'map', t_final=1.1: "
            f"residual D is not finite at t = {t!r}\n"
        )
        assert not (tmp_path / "out" / "branches.tsv").exists()

    def test_non_finite_cost_sample_exits_3(self, tmp_path, monkeypatch, capsys):
        """A nan at a time the bridge cost samples (1,002 times) and neither
        the scan (4,001) nor ``residual.tsv`` (501) does used to surface as a
        non-finite cost at the seed's bridge parameters."""
        t_bad = float(np.linspace(0.0, 1.1, 1002)[500])
        for n in (4001, 501):
            assert t_bad not in np.linspace(0.0, 1.1, n)

        class Poisoned(FfstPhaseModel):
            def sine_params(self, t):
                c, d, phi0 = super().sine_params(t)
                return c, np.where(t == t_bad, np.nan, d), phi0

        monkeypatch.setattr(cli, "FfstPhaseModel", Poisoned)
        cfg = _config(tmp_path, DECEL_FAST.replace("cost_points: 1000", "cost_points: 1001"))
        out = tmp_path / "out"
        rc = main(["synthesize", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (
            "synthesis failed: residual scan at stage 'synthesize', t_final=1.1: "
            f"residual D is not finite at t = {t_bad!r}\n"
        )
        assert (out / "residual.tsv").exists()
        assert not (out / "control.tsv").exists()

    def test_non_finite_analysis_sample_exits_3(self, tmp_path, monkeypatch, capsys):
        """The shift analysis evaluates the branches at its own times (every
        10th control node, which no earlier stage samples): a nan there
        names the stage and the sweep value instead of escaping as a
        traceback."""
        times = TimeGrid(1.1, 4000).times[::10]
        t_bad = float(times[200])

        class Poisoned(FfstPhaseModel):
            def sine_params(self, t):
                c, d, phi0 = super().sine_params(t)
                if np.array_equal(t, times):
                    d = np.where(t == t_bad, np.nan, d)
                return c, d, phi0

        monkeypatch.setattr(cli, "FfstPhaseModel", Poisoned)
        cfg = _config(tmp_path, DECEL_FAST)
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (
            "verification failed: arm 'itt' at stage 'verify', t_final=1.1: "
            f"residual D is not finite at t = {t_bad!r}\n"
        )
        assert (out / "control.tsv").exists()
        assert not (out / "shifts.tsv").exists()

    def test_colliding_sweep_names_exit_2(self, tmp_path, capsys):
        cfg = _config(
            tmp_path, ACCEL_SWEEP.replace("[0.9, 0.95]", "[1.0000001, 1.0000002]")
        )
        out = tmp_path / "out"
        rc = main(["map", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "1.0000001" in err and "1.0000002" in err
        assert not out.exists()


class TestOneModelPerRun:
    @pytest.mark.parametrize(
        "command, text, builds", [("verify", DECEL_FAST, 1), ("sta", STA_FAST, 0)]
    )
    def test_residual_model_built_once(
        self, tmp_path, monkeypatch, command, text, builds
    ):
        built = []
        original = FfstPhaseModel.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(FfstPhaseModel, "__init__", counting)
        cfg = _config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(built) == builds


def test_corridor_search_scans_scan_points(tmp_path, monkeypatch):
    """``grid.scan_points`` sets the vt plans' corridor search as well; it
    used to scan 16,001 samples whatever the config said."""
    sizes = []
    lifts = zerocurves.branch_lifts
    monkeypatch.setattr(
        zerocurves, "branch_lifts", lambda b, t: sizes.append(len(t)) or lifts(b, t)
    )
    cfg = _config(tmp_path, DECEL_FAST)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert sizes == [4001]


class TestOneTrajectoryAtATime:
    @pytest.mark.parametrize(
        "command, text", [("verify", DECEL_FAST), ("sta", STA_FAST)],
        ids=["decelerate", "sta"],
    )
    def test_earlier_arms_are_freed(self, tmp_path, monkeypatch, command, text):
        """When an arm's verification starts, no earlier arm's re-integrated
        trajectory is still alive."""
        verify = cli.verify_control
        trajectories = []
        alive_at_entry = []

        def tracking(*args, **kwargs):
            alive_at_entry.append(sum(ref() is not None for ref in trajectories))
            report = verify(*args, **kwargs)
            trajectories.append(weakref.ref(report.trajectory))
            return report

        monkeypatch.setattr(cli, "verify_control", tracking)
        cfg = _config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(alive_at_entry) >= 2
        assert alive_at_entry == [0] * len(alive_at_entry)

    @pytest.mark.parametrize(
        "command, text", [("verify", DECEL_FAST), ("sta", STA_FAST)],
        ids=["decelerate", "sta"],
    )
    def test_reference_populations_are_freed(self, tmp_path, monkeypatch, command, text):
        """When the first arm's verification starts, no populations array
        (the reference's, written to ``populations_reference.tsv``) is
        still alive."""
        populations = ReferenceTrajectory.populations
        verify = cli.verify_control
        arrays = []
        alive_at_entry = []

        def recording(traj):
            pops = populations(traj)
            arrays.append(weakref.ref(pops))
            return pops

        def tracking(*args, **kwargs):
            alive_at_entry.append(sum(ref() is not None for ref in arrays))
            return verify(*args, **kwargs)

        monkeypatch.setattr(ReferenceTrajectory, "populations", recording)
        monkeypatch.setattr(cli, "verify_control", tracking)
        cfg = _config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(arrays) >= 1 and alive_at_entry
        assert alive_at_entry[0] == 0

    @pytest.mark.parametrize(
        "command, text", [("verify", DECEL_FAST), ("sta", STA_FAST)],
        ids=["decelerate", "sta"],
    )
    def test_virtual_trajectories_are_freed(self, tmp_path, monkeypatch, command, text):
        """When the first arm's verification starts, no virtual trajectory
        (its half-grid lift holds 2 n_steps + 1 samples) is still alive."""
        construct = VirtualTrajectory.__init__
        verify = cli.verify_control
        paths = []
        alive_at_entry = []

        def recording(self, *args, **kwargs):
            construct(self, *args, **kwargs)
            paths.append(weakref.ref(self))

        def tracking(*args, **kwargs):
            alive_at_entry.append(sum(ref() is not None for ref in paths))
            return verify(*args, **kwargs)

        monkeypatch.setattr(VirtualTrajectory, "__init__", recording)
        monkeypatch.setattr(cli, "verify_control", tracking)
        cfg = _config(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(paths) >= 1 and alive_at_entry
        assert alive_at_entry[0] == 0


class TestDeviceStage:
    def test_reference_sweep_maps_to_flux(self, tmp_path):
        cfg = _config(tmp_path, REFERENCE_SWEEP)
        out = str(tmp_path / "out")
        rc = main(["device", "--config", cfg, "--out", out])
        assert rc == 0

        summary = _read_summary(out)
        dev = summary["device"]
        assert dev["band_ghz"][1] == pytest.approx(6.776971346646059, abs=1e-9)
        assert dev["omega2_ghz"] == pytest.approx(6.504070895704025, abs=1e-9)
        assert dev["duration_ns"] == pytest.approx(17.68388256576615, abs=1e-9)
        assert 10.0 <= dev["duration_ns"] <= 1000.0
        assert os.path.exists(os.path.join(out, "device_reference.tsv"))
        assert "control_map" not in dev

    def test_sweep_outside_band_names_stage(self, tmp_path, capsys):
        """A reference sweep the device cannot reach is reported as the
        device map's failure, with the stage and the sweep value."""
        cfg = _config(tmp_path, REFERENCE_SWEEP + "delta_omega0: 100.0\n")
        out = tmp_path / "out"
        rc = main(["device", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(
            "synthesis failed: device map at stage 'device', t_final=1.0: "
            "target frequency 5.604070896 GHz"
        )
        assert err.rstrip().endswith("is outside the tunable band "
                                     "[6.232215614, 6.776971347] GHz")
        assert not (out / "summary.json").exists()

    def test_feasible_control_map(self, tmp_path):
        """The slow sta sweep stays inside the tunable band: its control is
        written to ``device_control.tsv``, its flux lies in [0, 1/2], and
        it is annotated like the sweep."""
        cfg = _config(tmp_path, STA_FAST)
        out = str(tmp_path / "out")
        assert main(["full", "--config", cfg, "--out", out]) == 0
        device = _read_summary(out)["device"]
        # the sta control starts on the sweep's detuning and never exceeds it
        assert device["control_rwa"]["max_abs_detuning"] == pytest.approx(30.0, abs=1e-9)
        control_map = device["control_map"]
        assert control_map["feasible"] is True
        lo, hi = control_map["flux_range"]
        assert 0.0 <= lo <= hi <= 0.5
        data = np.loadtxt(os.path.join(out, "device_control.tsv"), skiprows=1)
        assert data.shape == (4001, 2)
        assert (data[:, 1].min(), data[:, 1].max()) == (lo, hi)

    def test_infeasible_control_map(self, tmp_path):
        """The decelerated itt control overshoots the band: the run still
        succeeds, says why the map failed, writes no control table, and
        annotates the control's peak detuning, above the sweep's 30."""
        cfg = _config(tmp_path, DECEL_FAST)
        out = str(tmp_path / "out")
        assert main(["full", "--config", cfg, "--out", out]) == 0
        device = _read_summary(out)["device"]
        assert device["rwa"]["max_abs_detuning"] == 30.0
        assert device["control_rwa"]["max_abs_detuning"] == pytest.approx(47.03, abs=0.05)
        # the annotation and the arm's rate read the same samples
        peak = _read_summary(out)["max_abs_delta_omega"]["itt"]
        assert device["control_rwa"]["max_abs_detuning"] == peak
        control_map = device["control_map"]
        assert control_map["feasible"] is False
        assert "outside the tunable band" in control_map["reason"]
        assert set(control_map) == {"feasible", "reason"}
        assert not os.path.exists(os.path.join(out, "device_control.tsv"))
        assert os.path.exists(os.path.join(out, "device_reference.tsv"))


class TestFailureModes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = _config(tmp_path, "schema_version: 2\nscenario: warp\n")
        rc = main(["reference", "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "invalid configuration" in captured.err
        assert "scenario" in captured.err and "schema_version" in captured.err

    def test_huge_scan_exits_2(self, tmp_path, capsys):
        """A scan too large to allocate used to die in the scan with exit 1,
        the code reserved for a missed fidelity floor."""
        text = DECEL_FAST.replace("scan_points: 4000", "scan_points: 10000000000000")
        cfg = _config(tmp_path, text)
        out = tmp_path / "out"
        rc = main(["map", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "grid.scan_points: must be at most 1000000" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(["reference", "--config", str(tmp_path / "absent.yaml")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_sta_command_needs_sta_scenario(self, tmp_path, capsys):
        cfg = _config(tmp_path, DECEL_FAST)
        rc = main(["sta", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "scenario: sta" in capsys.readouterr().err

    def test_bad_floor_exits_2(self, tmp_path, capsys):
        cfg = _config(tmp_path, DECEL_FAST)
        rc = main(
            ["verify", "--config", cfg, "--out", str(tmp_path / "out"),
             "--require-fidelity", "2.0"]
        )
        assert rc == 2
        assert "(0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, text, scenario",
        [
            ("reference", DECEL_FAST, "decelerate"),
            ("map", DECEL_FAST, "decelerate"),
            ("synthesize", DECEL_FAST, "decelerate"),
            ("device", DECEL_FAST, "decelerate"),
        ],
        ids=["reference", "map", "synthesize", "device"],
    )
    def test_floor_without_verification_exits_2(
        self, tmp_path, capsys, source, command, text, scenario
    ):
        """A fidelity floor on a run that scores no fidelity used to be
        dropped without a word; it is rejected before anything is written.
        A config holds no floor: the floor belongs to the invocation."""
        args = ["--require-fidelity", "0.999"] if source == "flag" else []
        if source == "config":
            text += "require_fidelity: 0.999\n"
        cfg = _config(tmp_path, text)
        out = tmp_path / "out"
        rc = main([command, "--config", cfg, "--out", str(out), *args])
        assert rc == 2
        if source == "flag":
            message = (
                f"--require-fidelity: stage {command!r} of scenario {scenario!r} "
                "verifies no arm"
            )
        else:
            message = "require_fidelity: unknown key"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sta_t_ref_exits_2(self, tmp_path, capsys):
        # the sta reference runs over t_final; a t_ref would be ignored
        cfg = _config(tmp_path, STA_FAST + "t_ref: 5.0\n")
        out = tmp_path / "out"
        rc = main(["sta", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "t_ref: not used by scenario 'sta'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message", REMOVED_KEYS, ids=[m.split(":")[0] for _, m in REMOVED_KEYS]
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, line, message):
        cfg = _config(tmp_path, DECEL_FAST + line + "\n")
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def _readme_commands() -> list[str]:
    """The ``ffsynth`` lines of the code block in README's "Command line"."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("ffsynth ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(tmp_path, monkeypatch, line):
    """Every documented command runs as written, from the repository root,
    so none outlives its config or flag."""
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line)[1:]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


#: A whole run in a subprocess; ``{command}``, ``{config}`` and ``{out}``
#: are filled in by the test.
RUN = (
    "from ffsynth.cli import main; "
    "assert main([{command!r}, '--config', {config!r}, '--out', {out!r}]) == 0"
)


@pytest.mark.parametrize(
    "work, command, text",
    [
        ("import ffsynth.cli", None, None),
        # the magnification profile is closed form: no interpolant behind it
        (
            "from ffsynth import TimeGrid, build_magnification; "
            "p = build_magnification(1.0, TimeGrid(1.1, 100)); "
            "p.alpha_at(p.grid.times); p.lambda_at(p.grid.half_times)",
            None,
            None,
        ),
        # every stage: Hermite interpolants, branch roots, smoothstep
        # bridges and the simplex
        (RUN, "full", DECEL_FAST),
        (RUN, "sta", STA_FAST),
    ],
    ids=["cli", "magnification", "full-run", "sta-run"],
)
def test_import_loads_no_scipy(tmp_path, work, command, text):
    if text is not None:
        work = work.format(
            command=command, config=_config(tmp_path, text), out=str(tmp_path / "out")
        )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffsynth.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        f"import sys; {work}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_import_loads_no_exact_arithmetic():
    """The ``%.17g`` tables are built from Python integers, so importing the
    command line loads neither ``fractions`` nor ``decimal``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffsynth.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys; import ffsynth.cli; "
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_sources_import_no_scipy():
    """No module of the package names scipy in an import, at any depth."""
    package = os.path.dirname(os.path.abspath(ffsynth.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] == "scipy"
            ]
    assert found == []


def test_exports_resolve_and_are_sorted():
    """Every name in ``ffsynth.__all__`` resolves, once, in sorted order, so
    a stale export fails here rather than at a user's import."""
    names = ffsynth.__all__
    assert [n for n in names if not hasattr(ffsynth, n)] == []
    assert names == sorted(set(names))
