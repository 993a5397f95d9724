"""Run configuration: YAML ingestion with strict, complete validation.

Configs are plain YAML with a declared schema version.  Parsing either
returns a fully validated RunConfig or raises ConfigError carrying every
problem found (unknown keys, type mismatches, domain violations), each
tagged with the dotted path of the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .drives import MAX_STEPS, default_step_count
from .itt import PLAN_KINDS

SCHEMA_VERSION = 1

SCENARIOS = ("accelerate", "decelerate", "sta", "reference-only", "device-map")
BASELINES = {
    "accelerate": ("naive", "alpha-scaled"),
    "decelerate": ("naive", "alpha-scaled"),
    "sta": ("unmodified",),
    "reference-only": (),
    "device-map": (),
}


def sweep_label(t_final: float) -> str:
    """Name of one sweep value in output directories and summary keys."""
    return "%g" % t_final


class ConfigError(ValueError):
    """All validation problems of one parse, joined and listed."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors)
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one pipeline invocation."""

    scenario: str
    t_ref: float
    t_final: tuple[float, ...]
    delta_omega0: float
    reference_steps: int | None
    control_steps: int | None
    scan_points: int
    cost_points: int
    plan_kind: str
    baselines: tuple[str, ...]
    require_fidelity: float | None
    out_dir: str
    g_ghz: float
    schema_version: int = SCHEMA_VERSION


class _Checker:
    """Accumulates errors while pulling typed values out of the mapping."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def expect_mapping(self, value, path: str) -> dict:
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.fail(path, f"expected a mapping, got {type(value).__name__}")
            return {}
        return value

    def reject_unknown(self, mapping: dict, allowed, path: str) -> None:
        for key in mapping:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else str(key), "unknown key")

    def number(self, mapping, key, path, default=None, required=False, positive=False):
        if key not in mapping or mapping[key] is None:
            if required:
                self.fail(f"{path}{key}", "required field missing")
            return default
        v = mapping[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(f"{path}{key}", f"expected a number, got {type(v).__name__}")
            return default
        if positive and v <= 0:
            self.fail(f"{path}{key}", f"must be positive, got {v}")
            return default
        return float(v)

    def integer(self, mapping, key, path, default=None, minimum=None):
        if key not in mapping or mapping[key] is None:
            return default
        v = mapping[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(f"{path}{key}", f"expected an integer, got {type(v).__name__}")
            return default
        if minimum is not None and v < minimum:
            self.fail(f"{path}{key}", f"must be at least {minimum}, got {v}")
            return default
        return v

    def text(self, mapping, key, path, default=None, required=False, choices=None):
        if key not in mapping or mapping[key] is None:
            if required:
                self.fail(f"{path}{key}", "required field missing")
            return default
        v = mapping[key]
        if not isinstance(v, str):
            self.fail(f"{path}{key}", f"expected a string, got {type(v).__name__}")
            return default
        if choices is not None and v not in choices:
            self.fail(f"{path}{key}", f"must be one of {list(choices)}, got {v!r}")
            return default
        return v


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"document is not valid YAML: {exc}"]) from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a mapping"])

    chk = _Checker()
    chk.reject_unknown(
        doc,
        {
            "schema_version",
            "scenario",
            "t_ref",
            "t_final",
            "delta_omega0",
            "grid",
            "crossing_plan",
            "bridge",
            "baselines",
            "require_fidelity",
            "output",
            "device",
        },
        "",
    )

    version = chk.integer(doc, "schema_version", "", default=None)
    if doc.get("schema_version") is None:
        chk.fail("schema_version", "required field missing")
    elif version is not None and version != SCHEMA_VERSION:
        chk.fail(
            "schema_version",
            f"this build understands version {SCHEMA_VERSION}, got {version}",
        )

    scenario = chk.text(doc, "scenario", "", required=True, choices=SCENARIOS)
    t_ref = chk.number(doc, "t_ref", "", default=1.0, positive=True)
    delta_omega0 = chk.number(doc, "delta_omega0", "", default=30.0)

    t_final_raw = doc.get("t_final")
    t_final: tuple[float, ...]
    if t_final_raw is None:
        if scenario in ("sta", "accelerate", "decelerate"):
            chk.fail("t_final", f"required for scenario {scenario!r}")
        t_final = (t_ref,) if t_ref else (1.0,)
    elif isinstance(t_final_raw, (int, float)) and not isinstance(t_final_raw, bool):
        t_final = (float(t_final_raw),)
    elif isinstance(t_final_raw, list) and t_final_raw:
        vals = []
        for i, v in enumerate(t_final_raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                chk.fail(f"t_final[{i}]", f"expected a number, got {type(v).__name__}")
            else:
                vals.append(float(v))
        t_final = tuple(vals) if vals else (1.0,)
    else:
        chk.fail("t_final", "expected a number or a non-empty list of numbers")
        t_final = (1.0,)
    first_named: dict[str, int] = {}
    for i, v in enumerate(t_final):
        if v <= 0:
            chk.fail(f"t_final[{i}]", f"must be positive, got {v}")
        name = sweep_label(v)
        if name in first_named:
            j = first_named[name]
            chk.fail(
                f"t_final[{i}]",
                f"{v!r} and t_final[{j}] = {t_final[j]!r} share the sweep name "
                f"{name!r}, so one run would overwrite the other",
            )
        else:
            first_named[name] = i

    grid = chk.expect_mapping(doc.get("grid"), "grid")
    chk.reject_unknown(
        grid, {"reference_steps", "control_steps", "scan_points", "cost_points"}, "grid"
    )
    reference_steps = chk.integer(grid, "reference_steps", "grid.", minimum=100)
    control_steps = chk.integer(grid, "control_steps", "grid.", minimum=100)
    scan_points = chk.integer(grid, "scan_points", "grid.", default=16_000, minimum=100)
    cost_points = chk.integer(grid, "cost_points", "grid.", default=4_000, minimum=100)
    for key, steps in (
        ("reference_steps", reference_steps),
        ("control_steps", control_steps),
    ):
        if steps is not None and steps > MAX_STEPS:
            chk.fail(f"grid.{key}", f"must be at most {MAX_STEPS}, got {steps}")
    # durations that get the default grid: the reference runs over t_ref
    # (over t_final for sta), the control over t_final
    defaulted = []
    if reference_steps is None and scenario != "sta":
        defaulted.append(("t_ref", t_ref))
    if t_final_raw is not None and (
        control_steps is None or (reference_steps is None and scenario == "sta")
    ):
        defaulted.extend((f"t_final[{i}]", v) for i, v in enumerate(t_final))
    for path, duration in defaulted:
        n_default = default_step_count(duration)
        if n_default > MAX_STEPS:
            chk.fail(
                path,
                f"{duration!r} needs {n_default} integration steps on the "
                f"default grid, above the budget of {MAX_STEPS}",
            )

    plan = chk.expect_mapping(doc.get("crossing_plan"), "crossing_plan")
    chk.reject_unknown(plan, {"kind"}, "crossing_plan")
    default_kind = "vt-a" if scenario == "decelerate" else "auto"
    plan_kind = chk.text(
        plan, "kind", "crossing_plan.", default=default_kind, choices=PLAN_KINDS
    )

    # bridge bounds come from itt.default_bridge_settings per scenario;
    # the section accepts no key; it stays so that an old key is named
    bridge = chk.expect_mapping(doc.get("bridge"), "bridge")
    chk.reject_unknown(bridge, (), "bridge")

    baselines_raw = doc.get("baselines")
    allowed_baselines = BASELINES.get(scenario or "", ())
    if baselines_raw is None:
        baselines = allowed_baselines
    elif not isinstance(baselines_raw, list):
        chk.fail("baselines", "expected a list of baseline names")
        baselines = ()
    else:
        names = []
        for i, v in enumerate(baselines_raw):
            if not isinstance(v, str):
                chk.fail(f"baselines[{i}]", f"expected a string, got {type(v).__name__}")
            elif v not in allowed_baselines:
                chk.fail(
                    f"baselines[{i}]",
                    f"not available for scenario {scenario!r}; "
                    f"allowed: {list(allowed_baselines)}",
                )
            else:
                names.append(v)
        baselines = tuple(names)

    require_fidelity = chk.number(doc, "require_fidelity", "")
    if require_fidelity is not None and not (0.0 < require_fidelity <= 1.0):
        chk.fail("require_fidelity", f"must be in (0, 1], got {require_fidelity}")

    output = chk.expect_mapping(doc.get("output"), "output")
    chk.reject_unknown(output, {"directory"}, "output")
    out_dir = chk.text(output, "directory", "output.", default="out")

    dev = chk.expect_mapping(doc.get("device"), "device")
    chk.reject_unknown(dev, {"g_ghz"}, "device")
    g_ghz = chk.number(dev, "g_ghz", "device.", default=0.009, positive=True)

    if chk.errors:
        raise ConfigError(chk.errors)

    return RunConfig(
        scenario=scenario,
        t_ref=t_ref,
        t_final=t_final,
        delta_omega0=delta_omega0,
        reference_steps=reference_steps,
        control_steps=control_steps,
        scan_points=scan_points,
        cost_points=cost_points,
        plan_kind=plan_kind,
        baselines=baselines,
        require_fidelity=require_fidelity,
        out_dir=out_dir,
        g_ghz=g_ghz,
        schema_version=SCHEMA_VERSION,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
