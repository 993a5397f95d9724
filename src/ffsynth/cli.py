"""Command line front end: scaled-schedule synthesis and verification.

Every run solves the reference, then takes the stages that ``_STAGES``
lists for its subcommand, one function each:

  reference    nothing more
  map          sample the phase residual, extract branches and gaps
  synthesize   map, then plan the travel path, optimize bridges, emit the control
  verify       synthesize, then re-integrate every arm and score it
  sta          verify on the eigenstate-following pipeline (scenario: sta)
  device       map the reference sweep onto the flux axis
  full         verify, then the device mapping

Exit codes: 0 success, 1 random numbers drawn under ``--seed-free``,
2 configuration problem, 3 a failure of the reference integration,
synthesis, construction, verification (a re-integration that is not
finite or scores a fidelity above 1) or the reference sweep's device
map, 4 verified fidelity below ``--require-fidelity``.

All outputs are deterministic: rerunning a config produces byte-identical
tables and summaries.  Numbers are written with 17 significant digits,
the bytes of ``'%.17g' % v``: :func:`~ffsynth.numerics.format_g17` turns
each block of a table's rows into fixed-width byte fields padded with
NULs, and the block is written with the NULs deleted.

``summary.json`` names the table layout in ``output_schema``.  Layout 3
writes the residual's closed form instead of a map of it: ``residual.tsv``
holds (t, C, D, phi0) at 501 uniform times, from which ln|beta| at any
phase f2 is log(max(|C - D sin(f2 + phi0)|, 1e-14)).  Every scenario's
``control.tsv`` holds t, delta_omega, coupling and f2; the slope of
delta_omega and the magnification's alpha and lambda are closed forms of
those columns and of the config.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace

import numpy as np

from .analysis import VerificationError, trajectory_shift_analysis, verify_control
from .config import ConfigError, RunConfig, load_config, sweep_label
from .device import (
    FluxRangeError,
    coupling_strength,
    default_transmon_spec,
    flux_schedule_for,
    rwa_emulation_map,
)
from .drives import CosineSweepSpec, default_step_count, solve_reference
from .dynamics import IntegrationError, TimeGrid, TwoLevelState
from .ffst import (
    FfstPhaseModel,
    SynthesisError,
    alpha_scaled_control,
    build_magnification,
    naive_control,
    synthesize_control,
)
from .itt import (
    ConstructionError,
    OptimizerError,
    default_bridge_settings,
    optimize_virtual_trajectory,
    plan_travel,
)
from .numerics import format_g17
from .sta import StaPhaseModel, adiabatic_target, synthesize_sta_control
from .zerocurves import (
    ScanError,
    detect_gaps,
    link_branches,
    sample_params,
    wrap_phase,
    x_and_y,
)

#: The stages each subcommand takes after the reference, in order.
_STAGES = {
    "reference": (),
    "map": ("map",),
    "synthesize": ("map", "synthesize"),
    "verify": ("map", "synthesize", "verify"),
    "sta": ("map", "synthesize", "verify"),
    "device": ("device",),
    "full": ("map", "synthesize", "verify", "device"),
}


#: Rows formatted per write; bounds the text held in memory at once.
TABLE_CHUNK_ROWS = 4096

#: The table layout, ``output_schema`` in ``summary.json`` (see above).
OUTPUT_SCHEMA = 3


def _labels(c) -> np.ndarray:
    """A text column as UTF-8 bytes, each distinct label encoded once."""
    distinct, index = np.unique(c.astype(str), return_inverse=True)
    return np.array([label.encode() for label in distinct], dtype=bytes)[index]


def _write_table(path: str, header: list[str], columns) -> None:
    """Tab-separated table of whole columns, ``TABLE_CHUNK_ROWS`` rows at a
    time: numbers as ``%.17g``, byte-identical to
    ``np.savetxt(fmt="%.17g")``, and ``str`` columns as their UTF-8 bytes.

    Every cell becomes a byte field padded with NULs: :func:`format_g17`
    for a number, the encoded text for a ``str``, and a ``bytes`` value
    as it is.  A field's last byte is always a NUL, and the separator
    after the cell, a tab or the newline, overwrites it.  A block of rows
    is written as its fields with the NULs deleted.
    """
    with open(path, "wb") as fh:
        fh.write(("\t".join(header) + "\n").encode())
        for i in range(0, len(columns[0]), TABLE_CHUNK_ROWS):
            fields = []
            for c in columns:
                c = np.asarray(c[i : i + TABLE_CHUNK_ROWS])
                if c.dtype.kind in "OU":
                    c = _labels(c)
                if c.dtype.kind == "S":
                    # one more byte per label: the NUL for its separator
                    cells = c.astype(f"S{c.itemsize + 1}")[:, None].view(np.uint8)
                else:
                    cells = format_g17(c)
                cells[:, -1] = ord("\t")
                fields.append(cells)
            fields[-1][:, -1] = ord("\n")
            fh.write(np.concatenate(fields, axis=1).tobytes().translate(None, b"\0"))


def _write_summary(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _branch_record(b) -> dict:
    return {
        "id": b.branch_id,
        "t_start": float(b.t_start),
        "t_end": float(b.t_end),
        "start_phase": float(b.start_phase),
        "end_phase": float(b.end_phase),
        "full_span": bool(b.spans_full_domain()),
        "connected": bool(b.is_connected()),
    }


def _write_branches(path: str, scts) -> None:
    # the trailing [] lets a run without branches write just the header
    _write_table(
        path,
        ["branch", "t", "f2"],
        [
            np.repeat([b.branch_id for b in scts], [len(b.times) for b in scts]),
            np.concatenate([b.times for b in scts] + [[]]),
            np.concatenate([wrap_phase(b.f2) for b in scts] + [[]]),
        ],
    )


def _write_residual(path: str, model) -> None:
    """``residual.tsv``: the residual's (C, D, phi0) at 501 uniform times."""
    t = np.linspace(0.0, model.t_final, 501)
    _write_table(path, ["t", "C", "D", "phi0"], [t, *sample_params(model, t)])


def _slew(drive) -> np.ndarray:
    """d delta_omega / dt at the nodes, by second-order differences."""
    return np.gradient(drive.delta_omega[::2], drive.grid.h, edge_order=2)


def _rates(drive) -> tuple[float, float]:
    """The largest |delta_omega| over node and midpoint samples, and the
    largest |d delta_omega / dt| over the nodes."""
    peak = np.abs(drive.delta_omega).max()
    return float(peak), float(np.abs(_slew(drive)).max())


def _write_control(path: str, control, f2) -> None:
    """``control.tsv``: the control's node samples and its phase path."""
    _write_table(
        path,
        ["t", "delta_omega", "coupling", "f2"],
        [control.grid.times, control.delta_omega[::2], control.coupling[::2], f2],
    )


def _write_populations(path: str, traj) -> list[float]:
    """A populations table; the array dies with the call, and its last row,
    the final populations, is returned."""
    pops = traj.populations()
    _write_table(path, ["t", "p1", "p2"], [traj.grid.times, pops[:, 0], pops[:, 1]])
    return pops[-1].tolist()


def _device_section(cfg: RunConfig, sweep_control, primary_control, out_dir: str):
    spec = default_transmon_spec(cfg.g_ghz)
    t_ns, flux = flux_schedule_for(sweep_control, spec, g_phys=cfg.g_ghz)
    _write_table(
        os.path.join(out_dir, "device_reference.tsv"), ["t_ns", "flux"], [t_ns, flux]
    )
    section = {
        "band_ghz": list(spec.band),
        "omega2_ghz": spec.omega2,
        "coupling_ghz": float(coupling_strength(spec)),
        "duration_ns": float(t_ns[-1]),
        "flux_range": [float(np.min(flux)), float(np.max(flux))],
        "spec": {
            "ej_max": float(spec.ej_max),
            "ej_fixed": float(spec.ej_fixed),
            "ec": float(spec.ec),
            "ecc": float(spec.ecc),
            "d": float(spec.d),
            "g_ghz": float(cfg.g_ghz),
        },
        "rwa": rwa_emulation_map(sweep_control),
    }
    if primary_control is not None:
        section["control_rwa"] = rwa_emulation_map(primary_control)
        try:
            t_ns, flux = flux_schedule_for(primary_control, spec, g_phys=cfg.g_ghz)
            _write_table(
                os.path.join(out_dir, "device_control.tsv"),
                ["t_ns", "flux"],
                [t_ns, flux],
            )
            section["control_map"] = {
                "feasible": True,
                "flux_range": [float(np.min(flux)), float(np.max(flux))],
            }
        except FluxRangeError as exc:
            section["control_map"] = {"feasible": False, "reason": str(exc)}
    return section


def _reference(cfg: RunConfig, t_final, out_dir):
    """The reference, the sta model, which sets its initial state (the ffst
    model needs the control grid, so the map stage builds it), and its section."""
    duration = t_final if cfg.scenario == "sta" else cfg.t_ref
    sweep = CosineSweepSpec(cfg.delta_omega0, duration)
    grid = TimeGrid(duration, cfg.reference_steps or default_step_count(duration))
    model = StaPhaseModel(sweep) if cfg.scenario == "sta" else None
    initial = None if model is None else model.initial_state()
    ref = solve_reference(sweep, grid, initial=initial)
    ref_end = _write_populations(os.path.join(out_dir, "populations_reference.tsv"), ref)
    ref_peak, ref_slew = _rates(ref.drive)
    return ref, model, {
        "n_steps": int(ref.grid.n_steps),
        "final_populations": ref_end,
        "norm_drift": ref.norm_drift(),
        "max_abs_delta_omega": ref_peak,
        "max_abs_slew": ref_slew,
    }


def _map(cfg: RunConfig, t_final, out_dir, ref, model):
    """The residual model on the control grid, its branches and gaps."""
    grid_c = TimeGrid(t_final, cfg.control_steps or default_step_count(t_final))
    if model is None:
        model = FfstPhaseModel(ref, build_magnification(cfg.t_ref, grid_c))
    scts = link_branches(model, n_scan=cfg.scan_points)
    gaps = detect_gaps(model, scts, n_scan=cfg.scan_points)
    _write_residual(os.path.join(out_dir, "residual.tsv"), model)
    _write_branches(os.path.join(out_dir, "branches.tsv"), scts)
    return model, grid_c, scts, gaps, {
        "branches": [_branch_record(b) for b in scts],
        "gaps": [
            {"t_start": float(g.t_start), "t_end": float(g.t_end), "width": float(g.width)}
            for g in gaps
        ],
    }


def _synthesize(cfg: RunConfig, out_dir, model, grid_c, scts, gaps):
    """The primary control along the planned travel path over ``grid_c``."""
    t_final = grid_c.t_end
    plan = plan_travel(cfg.plan_kind, scts, gaps, t_final, n_scan=cfg.scan_points)
    settings = default_bridge_settings(cfg.scenario, t_final)
    vt, cost = optimize_virtual_trajectory(
        plan, model, grid_c, settings, n_cost=cfg.cost_points
    )
    if cfg.scenario == "sta":
        control = synthesize_sta_control(vt.f2_lift, model, grid_c, label="sta")
    else:
        control = synthesize_control(vt.f2_lift, model, label="itt")
    _write_control(os.path.join(out_dir, "control.tsv"), control, vt.f2)
    return control, {
        "plan": {
            "kind": cfg.plan_kind,
            "branches": [b.branch_id for b in plan.branches],
            "crossings": [[float(lo), float(hi)] for lo, hi in plan.crossings],
        },
        "bridges": [
            {"center": c, "width": w, "amplitude": a} for c, w, a in vt.bridge_params
        ],
        "cost": {
            "integrated_residual": float(cost.integrated_residual),
            "per_gap_residual": [float(v) for v in cost.per_gap_residual],
            "evaluations": int(cost.evaluations),
            "max_evaluations": int(cost.max_evaluations),
            "converged": bool(cost.converged),
            "bridge_evaluations": [int(n) for n in cost.bridge_evaluations],
            "bridge_converged": [bool(ok) for ok in cost.bridge_converged],
        },
        "bridge_mode": vt.bridge_mode,
    }


def _verify_arm(arm, initial, target, out_dir, where, analysis):
    """Re-integrate one arm, write its populations and return its scores;
    given ``analysis``, the run's (branches, model), also its shifts."""
    # the drive's rates are read before its trajectory exists
    peak, slew = _rates(arm)
    # the shift analysis samples the residual to evaluate branches
    try:
        report = verify_control(arm, initial, target)
        if analysis is not None:
            series = trajectory_shift_analysis(report.trajectory, *analysis)
    except (VerificationError, IntegrationError, ScanError) as exc:
        raise VerificationError(f"arm {arm.label!r} {where}: {exc}") from exc
    _write_populations(
        os.path.join(out_dir, f"populations_{arm.label}.tsv"), report.trajectory
    )
    scores = {
        "fidelities": float(report.fidelity),
        "step_error": float(report.step_error),
        "norm_drift": report.trajectory.norm_drift(),
        "h_max_delta_omega": arm.grid.h * peak,
        "max_abs_delta_omega": peak,
        "max_abs_slew": slew,
    }
    if analysis is None:
        return scores, None
    _write_table(
        os.path.join(out_dir, "shifts.tsv"),
        ["t", "overlap_x", "overlap_y", "dominant"],
        [series.times, series.overlap_x, series.overlap_y, series.dominant],
    )
    return scores, {
        "count": int(series.shift_count),
        "times": [float(t) for t in series.shift_times],
    }


def _verify(cfg: RunConfig, out_dir, where, ref, model, grid_c, scts, control):
    """Score the primary control and each baseline arm, one at a time."""
    arms = [control]
    if cfg.scenario == "sta":
        initial = model.initial_state()
        target = adiabatic_target(model.spec, grid_c).state
        if "unmodified" in cfg.baselines:
            zero = np.zeros_like(grid_c.half_times)
            arms.append(synthesize_sta_control(zero, model, grid_c, label="unmodified"))
    else:
        initial = TwoLevelState(1.0 + 0.0j, 0.0j)
        target = ref.final_state
        if "naive" in cfg.baselines:
            arms.append(naive_control(model))
        if "alpha-scaled" in cfg.baselines:
            arms.append(alpha_scaled_control(model))
    # the shift analysis reads the primary arm's trajectory
    shift_analysis = cfg.scenario != "sta" and x_and_y(scts) is not None
    sections: dict = {}
    for arm in arms:
        analysis = (scts, model) if shift_analysis and arm is control else None
        scores, shifts = _verify_arm(arm, initial, target, out_dir, where, analysis)
        for key, value in scores.items():
            sections.setdefault(key, {})[arm.label] = value
        if shifts is not None:
            sections["shift_analysis"] = shifts
    sections["target_populations"] = [float(v) for v in target.populations()]
    floor = cfg.require_fidelity
    if floor is not None:
        sections["require_fidelity"] = float(floor)
        sections["fidelity_ok"] = bool(sections["fidelities"][control.label] >= floor)
    return sections


def run_single(cfg: RunConfig, t_final: float, out_dir: str, stage: str) -> dict:
    """One scenario at one duration: the reference, then the stages that
    the subcommand ``stage`` takes; writes tables and returns the summary."""
    stages = _STAGES[stage]
    where = f"at stage {stage!r}, t_final={t_final!r}"
    os.makedirs(out_dir, exist_ok=True)
    summary: dict = {
        "schema_version": cfg.schema_version,
        "output_schema": OUTPUT_SCHEMA,
        "stage": stage,
        "scenario": cfg.scenario,
        "t_ref": float(cfg.t_ref),
        "t_final": float(t_final),
        "delta_omega0": float(cfg.delta_omega0),
    }
    try:
        ref, model, summary["reference"] = _reference(cfg, t_final, out_dir)
    except IntegrationError as exc:
        raise SynthesisError(f"reference integration {where}: {exc}") from exc
    control = None
    # the scan, residual.tsv and the bridge cost each sample the residual's
    # parameters, and each rejects a value that is not finite
    try:
        if "map" in stages:
            model, grid_c, scts, gaps, section = _map(cfg, t_final, out_dir, ref, model)
            summary.update(section)
        if "synthesize" in stages:
            control, section = _synthesize(cfg, out_dir, model, grid_c, scts, gaps)
            summary.update(section)
    except ScanError as exc:
        raise SynthesisError(f"residual scan {where}: {exc}") from exc
    if "verify" in stages:
        summary.update(_verify(cfg, out_dir, where, ref, model, grid_c, scts, control))
    if "device" in stages:
        try:
            summary["device"] = _device_section(cfg, ref.drive, control, out_dir)
        except FluxRangeError as exc:
            raise SynthesisError(f"device map {where}: {exc}") from exc
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_pipeline(cfg: RunConfig, out_dir: str, stage: str) -> dict:
    """Run each t_final value in turn; single runs write in place.

    A failing value does not stop the values after it.  The aggregate
    summary is written either way, listing each failed value's message
    under ``failed``; then the first failure is re-raised with a message
    naming every failed value.

    A fidelity floor on a run whose stages do not include ``verify`` is
    rejected before anything is written.
    """
    if cfg.require_fidelity is not None and "verify" not in _STAGES[stage]:
        raise ConfigError(
            [
                f"--require-fidelity: stage {stage!r} of scenario {cfg.scenario!r} "
                "verifies no arm, so it has no fidelity to hold to a floor"
            ]
        )
    if len(cfg.t_final) == 1:
        return run_single(cfg, cfg.t_final[0], out_dir, stage)

    os.makedirs(out_dir, exist_ok=True)
    runs: dict[str, dict] = {}
    errors: list[tuple[str, Exception]] = []
    for tf in cfg.t_final:
        label = sweep_label(tf)
        sub = os.path.join(out_dir, "tf-" + label)
        try:
            runs[label] = run_single(cfg, tf, sub, stage)
        except Exception as exc:
            errors.append((label, exc))

    aggregate = {
        "schema_version": cfg.schema_version,
        "output_schema": OUTPUT_SCHEMA,
        "stage": stage,
        "scenario": cfg.scenario,
        "sweep": [sweep_label(tf) for tf in cfg.t_final],
        "runs": runs,
    }
    if errors:
        aggregate["failed"] = {label: str(exc) for label, exc in errors}
    _write_summary(os.path.join(out_dir, "summary.json"), aggregate)
    if errors:
        # rewrite the message in place: the class picks the exit code, and
        # not every error class can be rebuilt from a plain string
        first = errors[0][1]
        first.args = ("\n".join(f"t_final={label}: {exc}" for label, exc in errors),)
        raise first
    return aggregate


def _collect_fidelity_ok(summary: dict) -> bool:
    if "runs" in summary:
        return all(_collect_fidelity_ok(s) for s in summary["runs"].values())
    return bool(summary.get("fidelity_ok", True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffsynth",
        description="Synthesize and verify time-scaled detuning schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("reference", "solve and export the reference trajectory"),
        ("map", "sample the phase residual and extract branches"),
        ("synthesize", "optimize the travel path and emit the control"),
        ("verify", "re-integrate every arm and score it"),
        ("sta", "eigenstate-following pipeline (scenario: sta)"),
        ("device", "map the reference sweep onto the flux axis"),
        ("full", "verify plus the device mapping"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument(
            "--require-fidelity",
            type=float,
            default=None,
            help="fail with exit code 4 if the primary arm scores below this",
        )
        # opt-in: the check imports numpy.random, 6 MB of RSS a run never loads
        p.add_argument(
            "--seed-free",
            action="store_true",
            help="assert that the run consumes no random numbers",
        )
    return parser


def _np_random_fingerprint():
    kind, keys, pos, has_gauss, gauss = np.random.get_state()
    return kind, keys.tobytes(), pos, has_gauss, gauss


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    if args.command == "sta" and cfg.scenario != "sta":
        print(
            f"the sta subcommand needs scenario: sta, got {cfg.scenario!r}",
            file=sys.stderr,
        )
        return 2
    if args.require_fidelity is not None:
        if not (0.0 < args.require_fidelity <= 1.0):
            print("--require-fidelity must be in (0, 1]", file=sys.stderr)
            return 2
        cfg = replace(cfg, require_fidelity=args.require_fidelity)

    out_dir = args.out if args.out is not None else cfg.out_dir

    if args.seed_free:
        py_state = random.getstate()
        np_state = _np_random_fingerprint()

    try:
        summary = run_pipeline(cfg, out_dir, args.command)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (SynthesisError, ConstructionError, OptimizerError) as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3

    if args.seed_free:
        if random.getstate() != py_state or _np_random_fingerprint() != np_state:
            print("seed-free assertion failed: RNG state changed", file=sys.stderr)
            return 1

    print(f"wrote {os.path.join(out_dir, 'summary.json')}")
    for label, value in sorted(summary.get("fidelities", {}).items()):
        print(f"  {label}: {value:.6f}")
    if "runs" in summary:
        for tf, s in sorted(summary["runs"].items(), key=lambda kv: float(kv[0])):
            for label, value in sorted(s.get("fidelities", {}).items()):
                print(f"  t_final={tf} {label}: {value:.6f}")

    if not _collect_fidelity_ok(summary):
        print("fidelity below the required floor", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
