"""Run configuration: YAML ingestion with strict, complete validation.

Configs are plain YAML with a declared schema version.  Parsing either
returns a fully validated RunConfig or raises ConfigError carrying every
problem found (unknown keys, type mismatches, domain violations), each
tagged with the dotted path of the offending field.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import yaml

from .drives import MAX_STEPS, default_step_count
from .itt import COST_POINTS, PLAN_KINDS
from .zerocurves import SCAN_POINTS

SCHEMA_VERSION = 1

#: The tag of YAML's merge key ``<<``, which may repeat.
_MERGE = "tag:yaml.org,2002:merge"

#: Largest ``grid.scan_points`` and ``grid.cost_points``: the rounding
#: argument of ``zerocurves.NEAR_TIE`` covers up to a million samples.
MAX_POINTS = 1_000_000

SCENARIOS = ("accelerate", "decelerate", "sta")
BASELINES = {
    "accelerate": ("naive", "alpha-scaled"),
    "decelerate": ("naive", "alpha-scaled"),
    "sta": ("unmodified",),
}


#: The Python types each kind of ``_Checker.value`` accepts.
_TYPES = {"a number": (int, float), "an integer": int, "a string": str}


def _finite(v: int | float) -> bool:
    """Whether a YAML number is a finite float: nan, the infinities and
    integers beyond the float range are not."""
    return abs(v) <= sys.float_info.max


def sweep_label(t_final: float) -> str:
    """Name of one sweep value in output directories and summary keys."""
    return "%g" % t_final


class _Loader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that lists in ``repeated`` each mapping key given
    twice, where plain loading keeps the last value silently."""

    def __init__(self, stream) -> None:
        super().__init__(stream)
        self.repeated: list[str] = []

    def construct_mapping(self, node, deep=False):
        lines: dict = {}  # key -> the line it first appears on
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _MERGE:
                key, line = self.construct_object(key_node), key_node.start_mark.line + 1
                if key in lines:
                    self.repeated.append(
                        f"key {key!r} on line {line} repeats line {lines[key]}"
                    )
                lines.setdefault(key, line)
        return super().construct_mapping(node, deep=deep)


class ConfigError(ValueError):
    """All validation problems of one parse, joined and listed."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors)
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one pipeline invocation; ``require_fidelity``
    comes from the command line's ``--require-fidelity``, not the config."""

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
    out_dir: str
    g_ghz: float
    schema_version: int = SCHEMA_VERSION
    require_fidelity: float | None = None


class _Checker:
    """Accumulates errors while pulling typed values out of the mapping."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def unknown(self, mapping: dict, allowed, prefix: str = "") -> None:
        for key in mapping:
            if key not in allowed:
                self.fail(f"{prefix}{key}", "unknown key")

    def section(self, doc: dict, name: str, allowed) -> dict:
        """The mapping ``doc[name]`` with its unknown keys reported; an
        absent section, or one that is not a mapping, reads as empty."""
        value = doc.get(name)
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.fail(name, f"expected a mapping, got {type(value).__name__}")
            return {}
        self.unknown(value, allowed, f"{name}.")
        return value

    def value(
        self, v, path, kind, positive=False, minimum=None, maximum=None, choices=None
    ):
        """``v`` as ``kind`` ("a number", "an integer" or "a string") within
        its bounds, or None with the problem reported under ``path``."""
        if isinstance(v, bool) or not isinstance(v, _TYPES[kind]):
            problem = f"expected {kind}, got {type(v).__name__}"
        elif kind == "a number" and not _finite(v):
            problem = f"must be finite, got {v}"
        elif positive and v <= 0:
            problem = f"must be positive, got {v}"
        elif minimum is not None and v < minimum:
            problem = f"must be at least {minimum}, got {v}"
        elif maximum is not None and v > maximum:
            problem = f"must be at most {maximum}, got {v}"
        elif choices is not None and v not in choices:
            problem = f"must be one of {list(choices)}, got {v!r}"
        else:
            return float(v) if kind == "a number" else v
        self.fail(path, problem)
        return None

    def field(self, mapping, path, kind, default=None, required=False, **bounds):
        """The ``value`` of the field at dotted ``path`` in ``mapping``, or
        ``default`` when it is absent, null or rejected."""
        v = mapping.get(path.rsplit(".", 1)[-1])
        if v is None:
            if required:
                self.fail(path, "required field missing")
            return default
        v = self.value(v, path, kind, **bounds)
        return default if v is None else v


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config document."""
    loader = _Loader(text)
    try:
        doc = loader.get_single_data()
    except yaml.YAMLError as exc:
        raise ConfigError([f"document is not valid YAML: {exc}"]) from exc
    finally:
        loader.dispose()
    if loader.repeated:
        raise ConfigError(loader.repeated)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a mapping"])

    chk = _Checker()
    chk.unknown(
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
            "output",
            "device",
        },
    )

    version = chk.field(doc, "schema_version", "an integer", required=True)
    if version is not None and version != SCHEMA_VERSION:
        chk.fail(
            "schema_version",
            f"this build understands version {SCHEMA_VERSION}, got {version}",
        )

    scenario = chk.field(doc, "scenario", "a string", required=True, choices=SCENARIOS)
    if scenario == "sta" and doc.get("t_ref") is not None:
        # the sta reference runs over each t_final, so a t_ref would go unused
        chk.fail(
            "t_ref", "not used by scenario 'sta', whose reference runs over t_final"
        )
        t_ref = 1.0
    else:
        t_ref = chk.field(doc, "t_ref", "a number", default=1.0, positive=True)
    delta_omega0 = chk.field(doc, "delta_omega0", "a number", default=30.0)

    t_final_raw = doc.get("t_final")
    if isinstance(t_final_raw, (int, float)) and not isinstance(t_final_raw, bool):
        t_final_raw = [t_final_raw]
    # each usable sweep value with its path, for the step budget below
    sweep: list[tuple[str, float]] = []
    if t_final_raw is None:
        chk.fail("t_final", "required field missing")
    elif not isinstance(t_final_raw, list) or not t_final_raw:
        chk.fail("t_final", "expected a number or a non-empty list of numbers")
    else:
        named: dict[str, str] = {}  # sweep name -> the value that took it
        for i, v in enumerate(t_final_raw):
            path = f"t_final[{i}]"
            v = chk.value(v, path, "a number", positive=True)
            if v is None:
                continue
            name = sweep_label(v)
            if name in named:
                chk.fail(
                    path,
                    f"{v!r} and {named[name]} share the sweep name {name!r}, "
                    "so one run would overwrite the other",
                )
            else:
                named[name] = f"{path} = {v!r}"
                sweep.append((path, v))
    t_final = tuple(v for _, v in sweep)

    grid = chk.section(
        doc, "grid", {"reference_steps", "control_steps", "scan_points", "cost_points"}
    )
    steps = {"minimum": 100, "maximum": MAX_STEPS}
    points = {"minimum": 100, "maximum": MAX_POINTS}
    reference_steps = chk.field(grid, "grid.reference_steps", "an integer", **steps)
    control_steps = chk.field(grid, "grid.control_steps", "an integer", **steps)
    scan_points = chk.field(grid, "grid.scan_points", "an integer", SCAN_POINTS, **points)
    cost_points = chk.field(grid, "grid.cost_points", "an integer", COST_POINTS, **points)
    # durations with no step count given get the default grid: the reference
    # runs over t_ref (over t_final for sta), the control over t_final
    ref_default = grid.get("reference_steps") is None
    defaulted = []
    if ref_default and scenario != "sta":
        defaulted.append(("t_ref", t_ref))
    if grid.get("control_steps") is None or (ref_default and scenario == "sta"):
        defaulted.extend(sweep)
    for path, duration in defaulted:
        n_default = default_step_count(duration)
        if n_default > MAX_STEPS:
            chk.fail(
                path,
                f"{duration!r} needs {n_default} integration steps on the "
                f"default grid, above the budget of {MAX_STEPS}",
            )

    plan = chk.section(doc, "crossing_plan", {"kind"})
    default_kind = "vt-a" if scenario == "decelerate" else "auto"
    plan_kind = chk.field(
        plan, "crossing_plan.kind", "a string", default_kind, choices=PLAN_KINDS
    )

    # bridge bounds come from itt.default_bridge_settings per scenario;
    # the section accepts no key; it stays so that an old key is named
    chk.section(doc, "bridge", ())

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
            path = f"baselines[{i}]"
            if chk.value(v, path, "a string") is None:
                continue
            if v not in allowed_baselines:
                chk.fail(
                    path,
                    f"not available for scenario {scenario!r}; "
                    f"allowed: {list(allowed_baselines)}",
                )
            elif v in names:
                chk.fail(path, f"{v!r} is listed twice")
            else:
                names.append(v)
        baselines = tuple(names)

    output = chk.section(doc, "output", {"directory"})
    out_dir = chk.field(output, "output.directory", "a string", "out")
    if out_dir == "":
        chk.fail("output.directory", "must not be empty")

    dev = chk.section(doc, "device", {"g_ghz"})
    g_ghz = chk.field(dev, "device.g_ghz", "a number", 0.009, positive=True)

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
        out_dir=out_dir,
        g_ghz=g_ghz,
        schema_version=SCHEMA_VERSION,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
