"""End-to-end command line runs against temporary reduced-resolution configs."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from ffsynth.cli import TABLE_CHUNK_ROWS, _write_table, main
from ffsynth.ffst import FfstPhaseModel

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

REFERENCE_ONLY = """\
schema_version: 1
scenario: reference-only
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


def _config(tmp_path, text, name="run.yaml") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def decel_runs(tmp_path_factory):
    """One clean verify run and one with an unreachable fidelity floor."""
    base = tmp_path_factory.mktemp("cli-decel")
    cfg = _config(base, DECEL_FAST)
    out_a = str(base / "a")
    out_b = str(base / "b")
    rc_a = main(["verify", "--config", cfg, "--out", out_a])
    rc_b = main(
        ["verify", "--config", cfg, "--out", out_b,
         "--require-fidelity", "0.99999999999"]
    )
    return rc_a, out_a, rc_b, out_b


class TestTableWriter:
    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, TABLE_CHUNK_ROWS - 1, TABLE_CHUNK_ROWS, TABLE_CHUNK_ROWS + 1,
         2 * TABLE_CHUNK_ROWS + 1],
    )
    def test_bytes_match_savetxt(self, tmp_path, n_rows):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e17, 3.0, -12.0,
                   0.1, 1.0 / 3.0, 2.0**53 + 1.0, -1.7976931348623157e308]
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


class TestReferenceStage:
    def test_run_and_summary(self, tmp_path, capsys):
        cfg = _config(tmp_path, REFERENCE_ONLY)
        out = str(tmp_path / "out")
        rc = main(["reference", "--config", cfg, "--out", out])
        captured = capsys.readouterr()
        assert rc == 0
        assert "wrote" in captured.out

        summary = _read_summary(out)
        assert summary["stage"] == "reference"
        assert summary["scenario"] == "reference-only"
        assert summary["reference"]["n_steps"] == 4000
        assert summary["reference"]["norm_drift"] < 1e-9

        # the file is the canonical sorted two-space-indented rendering
        with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as fh:
            raw = fh.read()
        assert raw == json.dumps(summary, sort_keys=True, indent=2) + "\n"

    def test_population_table_round_trips(self, tmp_path):
        cfg = _config(tmp_path, REFERENCE_ONLY)
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
        cfg = _config(tmp_path, REFERENCE_ONLY)
        out = str(tmp_path / "out")
        rc = main(["reference", "--config", cfg, "--out", out, "--seed-free"])
        assert rc == 0


class TestVerifyStage:
    def test_clean_run_succeeds(self, decel_runs):
        rc_a, out_a, _, _ = decel_runs
        assert rc_a == 0
        summary = _read_summary(out_a)
        assert set(summary["fidelities"]) == {"itt", "naive", "alpha-scaled"}
        assert summary["fidelities"]["itt"] > 0.999
        assert summary["shift_analysis"]["count"] == 1
        assert "fidelity_ok" not in summary
        for name in (
            "control.tsv",
            "branches.tsv",
            "beta_map.tsv",
            "shifts.tsv",
            "populations_itt.tsv",
            "populations_naive.tsv",
            "populations_alpha-scaled.tsv",
        ):
            assert os.path.exists(os.path.join(out_a, name)), name

    def test_floor_failure_exits_4(self, decel_runs):
        _, _, rc_b, out_b = decel_runs
        assert rc_b == 4
        summary = _read_summary(out_b)
        assert summary["require_fidelity"] == 0.99999999999
        assert summary["fidelity_ok"] is False

    def test_reruns_are_byte_identical(self, decel_runs):
        _, out_a, _, out_b = decel_runs
        for name in ("control.tsv", "populations_itt.tsv", "branches.tsv"):
            with open(os.path.join(out_a, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(out_b, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name

    def test_control_table_shape(self, decel_runs):
        _, out_a, _, _ = decel_runs
        path = os.path.join(out_a, "control.tsv")
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split("\t")
        assert header == [
            "t", "delta_omega", "derivative", "coupling", "f2", "alpha", "lambda",
        ]
        data = np.loadtxt(path, skiprows=1)
        assert data.shape == (4001, 7)
        assert data[0, 4] == 0.0 and data[-1, 4] == 0.0


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
            assert os.path.exists(os.path.join(sub, "beta_map.tsv"))


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


class TestDeviceStage:
    def test_reference_sweep_maps_to_flux(self, tmp_path):
        cfg = _config(tmp_path, REFERENCE_ONLY)
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


class TestFailureModes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = _config(tmp_path, "schema_version: 2\nscenario: warp\n")
        rc = main(["reference", "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "invalid configuration" in captured.err
        assert "scenario" in captured.err and "schema_version" in captured.err

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

    def test_wrong_bridge_count_exits_3(self, tmp_path, capsys):
        cfg = _config(
            tmp_path,
            DECEL_FAST
            + "bridge:\n  init: [[0.9, 0.02, 0.3], [1.0, 0.02, 0.3], [0.7, 0.02, 0.3]]\n",
        )
        rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("synthesis failed:")
        assert "initial parameters" in captured.err
