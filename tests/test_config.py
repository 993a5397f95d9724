"""Config parsing: defaults, strictness, and complete error collection."""

from __future__ import annotations

import glob
import importlib
import os

import pytest

from ffsynth import ConfigError, load_config, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MINIMAL = """
schema_version: 1
scenario: decelerate
t_final: 1.1
"""


def _errors_of(text: str) -> list[str]:
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value.errors


class TestDefaults:
    def test_minimal_decelerate(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scenario == "decelerate"
        assert cfg.t_ref == 1.0
        assert cfg.t_final == (1.1,)
        assert cfg.delta_omega0 == 30.0
        assert cfg.reference_steps is None
        assert cfg.control_steps is None
        assert cfg.scan_points == 16_000
        assert cfg.cost_points == 4_000
        assert cfg.plan_kind == "vt-a"
        assert cfg.baselines == ("naive", "alpha-scaled")
        assert cfg.require_fidelity is None
        assert cfg.out_dir == "out"
        assert cfg.g_ghz == 0.009
        assert cfg.schema_version == 1

    def test_accelerate_plans_automatically(self):
        cfg = parse_config("schema_version: 1\nscenario: accelerate\nt_final: 0.9")
        assert cfg.plan_kind == "auto"

    def test_sta_baseline_default(self):
        cfg = parse_config("schema_version: 1\nscenario: sta\nt_final: 20.0")
        assert cfg.baselines == ("unmodified",)

    def test_sweep_list(self):
        cfg = parse_config(
            "schema_version: 1\nscenario: sta\nt_final: [30.0, 20.0, 10.0]"
        )
        assert cfg.t_final == (30.0, 20.0, 10.0)

    def test_overrides(self):
        cfg = parse_config(
            """
schema_version: 1
scenario: decelerate
t_final: 1.1
grid: {control_steps: 4000, scan_points: 2000}
crossing_plan: {kind: vt-b}
baselines: [naive]
output: {directory: results}
device: {g_ghz: 0.012}
"""
        )
        assert cfg.control_steps == 4000
        assert cfg.plan_kind == "vt-b"
        assert cfg.baselines == ("naive",)
        assert cfg.out_dir == "results"
        assert cfg.g_ghz == 0.012


class TestErrorCollection:
    def test_all_problems_reported_at_once(self):
        errors = _errors_of(
            """
schema_version: 2
scenario: warp
t_final: [0.9, -1.0]
grid: {scan_points: 50, bogus: 3}
require_fidelity: 1.5
"""
        )
        joined = "\n".join(errors)
        assert len(errors) == 6
        assert "schema_version: this build understands version 1" in joined
        assert "scenario: must be one of" in joined
        assert "t_final[1]: must be positive, got -1.0" in joined
        assert "grid.scan_points: must be at least 100, got 50" in joined
        assert "grid.bogus: unknown key" in joined
        # the floor belongs to the invocation: --require-fidelity
        assert "require_fidelity: unknown key" in joined

    def test_message_lists_each_error(self):
        with pytest.raises(ConfigError, match="invalid configuration:") as excinfo:
            parse_config("schema_version: 1\nscenario: sta")
        assert "  - t_final: required field missing" in str(excinfo.value)

    def test_missing_schema_version(self):
        errors = _errors_of("scenario: accelerate\nt_final: 1.0")
        assert errors == ["schema_version: required field missing"]

    @pytest.mark.parametrize("value, kind", [('"1"', "str"), ("true", "bool")])
    def test_wrong_typed_schema_version_is_one_error(self, value, kind):
        errors = _errors_of(
            f"schema_version: {value}\nscenario: accelerate\nt_final: 1.0"
        )
        assert errors == [f"schema_version: expected an integer, got {kind}"]

    @pytest.mark.parametrize("scenario", ["reference-only", "device-map"])
    def test_removed_scenarios_rejected(self, scenario):
        # reference-only was accelerate at t_final = t_ref with no baselines,
        # and device-map is `ffsynth device` on such a config
        errors = _errors_of(f"schema_version: 1\nscenario: {scenario}\nt_final: 1.0")
        assert errors == [
            "scenario: must be one of ['accelerate', 'decelerate', 'sta'], "
            f"got {scenario!r}"
        ]

    def test_missing_scenario(self):
        assert "scenario: required field missing" in _errors_of("schema_version: 1")

    def test_unknown_top_level_key(self):
        assert "turbo: unknown key" in _errors_of(MINIMAL + "turbo: true")

    def test_boolean_is_not_a_number(self):
        assert "t_ref: expected a number, got bool" in _errors_of(
            MINIMAL + "t_ref: true"
        )

    def test_baseline_scenario_membership(self):
        errors = _errors_of(
            "schema_version: 1\nscenario: sta\nt_final: 20.0\nbaselines: [naive]"
        )
        assert any("not available for scenario 'sta'" in e for e in errors)

    def test_bad_bridge_mode(self):
        # the mode follows the scenario (itt.default_bridge_settings), so the
        # key is not accepted at all
        for mode in ("global", "local", "detached"):
            errors = _errors_of(MINIMAL + f"bridge: {{mode: {mode}}}")
            assert errors == ["bridge.mode: unknown key"]

    def test_bad_format(self):
        # no writer reads a format list, so the key is not accepted at all
        for formats in ("[csv]", "[json]"):
            errors = _errors_of(MINIMAL + f"output: {{formats: {formats}}}")
            assert "output.formats: unknown key" in errors

    @pytest.mark.parametrize("value", ["5.0", "1.0", "true"])
    def test_sta_rejects_t_ref(self, value):
        # the sta reference runs over each t_final, so a t_ref would go unused
        errors = _errors_of(
            f"schema_version: 1\nscenario: sta\nt_final: 10.0\nt_ref: {value}"
        )
        assert errors == [
            "t_ref: not used by scenario 'sta', whose reference runs over t_final"
        ]

    @pytest.mark.parametrize(
        "value, shown",
        [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf"), (str(10**400), str(10**400))],
        ids=["nan", "inf", "-inf", "10**400"],
    )
    @pytest.mark.parametrize(
        "text, path",
        [
            (MINIMAL + "t_ref: {}", "t_ref"),
            ("schema_version: 1\nscenario: decelerate\nt_final: {}", "t_final[0]"),
            ("schema_version: 1\nscenario: decelerate\nt_final: [1.1, {}]", "t_final[1]"),
            ("schema_version: 1\nscenario: sta\nt_final: {}", "t_final[0]"),
            (MINIMAL + "delta_omega0: {}", "delta_omega0"),
            (MINIMAL + "device: {{g_ghz: {}}}", "device.g_ghz"),
        ],
        ids=["t_ref", "t_final", "t_final-list", "sta-t_final", "delta_omega0", "g_ghz"],
    )
    def test_non_finite_number_rejected(self, text, path, value, shown):
        """A nan, an infinity or an integer beyond the float range in any
        float field is named, instead of failing later in the step budget,
        the reference or the device map."""
        assert _errors_of(text.format(value)) == [f"{path}: must be finite, got {shown}"]

    def test_device_positivity(self):
        errors = _errors_of(MINIMAL + "device: {g_ghz: -3}")
        assert errors == ["device.g_ghz: must be positive, got -3"]


class TestStepBudget:
    def test_explicit_step_counts_bounded(self):
        errors = _errors_of(
            MINIMAL + "grid: {reference_steps: 100001, control_steps: 200000}"
        )
        assert errors == [
            "grid.reference_steps: must be at most 100000, got 100001",
            "grid.control_steps: must be at most 100000, got 200000",
        ]

    def test_explicit_budget_edge_passes(self):
        cfg = parse_config(
            MINIMAL + "grid: {reference_steps: 100000, control_steps: 100000, "
            "scan_points: 1000000, cost_points: 1000000}"
        )
        assert cfg.reference_steps == cfg.control_steps == 100_000
        assert cfg.scan_points == cfg.cost_points == 1_000_000

    @pytest.mark.parametrize("key", ["scan_points", "cost_points"])
    @pytest.mark.parametrize("points", [1_000_001, 10_000_000_000_000])
    def test_sample_counts_bounded(self, key, points):
        """Past a million samples the linker's tie rounding is not argued
        for; a huge count used to fail allocating the scan."""
        errors = _errors_of(MINIMAL + f"grid: {{{key}: {points}}}")
        assert errors == [f"grid.{key}: must be at most 1000000, got {points}"]

    def test_long_default_grid_rejected(self):
        errors = _errors_of(
            "schema_version: 1\nscenario: sta\nt_final: [1500.0, 1525.0, 10.0]"
        )
        assert len(errors) == 1
        assert errors[0].startswith("t_final[1]: 1525.0 needs 101667 integration steps")

    def test_long_t_ref_rejected(self):
        errors = _errors_of(MINIMAL + "t_ref: 1550.0")
        assert len(errors) == 1
        assert errors[0].startswith("t_ref: 1550.0 needs 103334 integration steps")

    @pytest.mark.parametrize("steps", [50, 100001])
    def test_rejected_count_is_not_a_default_grid(self, steps):
        """A step count out of range is named alone; the duration it would
        have covered is not also checked against the default grid."""
        grid = f"grid: {{reference_steps: {steps}}}"
        errors = _errors_of(MINIMAL + "t_ref: 1550.0\n" + grid)
        assert len(errors) == 1
        assert errors[0].startswith("grid.reference_steps: must be at")

    def test_duration_1500_is_exactly_the_budget(self):
        assert parse_config(
            "schema_version: 1\nscenario: sta\nt_final: 1500.0"
        ).t_final == (1500.0,)
        assert parse_config(MINIMAL + "t_ref: 1500.0").t_ref == 1500.0

    def test_explicit_steps_allow_long_durations(self):
        cfg = parse_config(
            "schema_version: 1\nscenario: sta\nt_final: 1600.0\n"
            "grid: {reference_steps: 100000, control_steps: 100000}"
        )
        assert cfg.t_final == (1600.0,)

    def test_sta_reference_follows_t_final(self):
        # with only control_steps given, the sta reference still runs on the
        # default grid over t_final
        errors = _errors_of(
            "schema_version: 1\nscenario: sta\nt_final: 1600.0\n"
            "grid: {control_steps: 100000}"
        )
        assert len(errors) == 1 and errors[0].startswith("t_final[0]: 1600.0 needs")


class TestSweepNames:
    def test_colliding_names_rejected(self):
        errors = _errors_of(
            "schema_version: 1\nscenario: sta\nt_final: [1.0000001, 1.0000002]"
        )
        assert errors == [
            "t_final[1]: 1.0000002 and t_final[0] = 1.0000001 share the sweep "
            "name '1', so one run would overwrite the other"
        ]

    def test_exact_duplicates_rejected(self):
        errors = _errors_of("schema_version: 1\nscenario: sta\nt_final: [20, 10, 20]")
        assert len(errors) == 1
        assert errors[0].startswith("t_final[2]: 20.0 and t_final[0] = 20.0")

    def test_distinct_names_pass(self):
        cfg = parse_config(
            "schema_version: 1\nscenario: sta\nt_final: [1.00001, 1.00002]"
        )
        assert cfg.t_final == (1.00001, 1.00002)


class TestDocumentShape:
    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("scenario: [unbalanced")

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError, match="top level must be a mapping"):
            parse_config("- a\n- b")

    def test_empty_document(self):
        errors = _errors_of("")
        assert "schema_version: required field missing" in errors


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(MINIMAL, encoding="utf-8")
        assert load_config(str(path)).scenario == "decelerate"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.yaml"))


def test_shipped_and_benchmark_configs_parse(tmp_path, monkeypatch):
    """Every shipped config and every benchmark workload document is valid."""
    shipped = sorted(glob.glob(os.path.join(ROOT, "configs", "*.yaml")))
    assert shipped
    for path in shipped:
        load_config(path)

    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS.values():
        for seed in (0, 7):
            doc, _ = workloads.make_config(workload, seed, str(tmp_path / "out"))
            path = str(tmp_path / f"{workload.name}-{seed}.yaml")
            workloads.write_config(path, doc)
            assert load_config(path).scenario == doc["scenario"]
