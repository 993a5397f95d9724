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
2 configuration problem or an output directory that cannot be made, 3
a failure of the reference integration, synthesis, construction,
verification (a re-integration that is not finite or scores a fidelity
above 1) or the reference sweep's device map, 4 verified fidelity below
``--require-fidelity``.

All outputs are deterministic: rerunning a config produces byte-identical
tables and summaries.  Numbers are written with 17 significant digits,
the bytes of ``'%.17g' % v``: :func:`~ffsynth.numerics.format_g17` turns
each block of a table's rows into fixed-width byte fields padded with
NULs, and the block is written with the NULs deleted.

``summary.json`` names the table layout in ``output_schema``.  Layout 4
writes no time column where the times are a uniform grid the summary
already fixes: a table of ``rows`` data rows over [0, t_end] was sampled
at exactly ``np.linspace(0.0, t_end, rows)``.  The populations tables
hold (p1, p2) at the nodes of their arm's grid (``reference.t_end`` for
``populations_reference.tsv``, ``t_final`` for every verified arm);
``control.tsv`` holds delta_omega, coupling and f2 at the control's nodes
over [0, t_final]; ``residual.tsv`` holds the residual's closed form (C,
D, phi0) at 501 times over [0, t_final], from which ln|beta| at any phase
f2 is log(max(|C - D sin(f2 + phi0)|, 1e-14)); ``device_*.tsv`` hold the
flux at the nodes over [0, ``duration_ns``] of their map.  ``branches.tsv``
holds (branch, k, f2): k indexes the scan's ``np.linspace(0.0, t_final,
scan_points + 1)``.  ``shifts.tsv``, a stride-10 subsample, keeps its t.
The slope of delta_omega and the magnification's alpha and lambda are
closed forms of these columns and of the config.
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
    to_physical_time,
)
from .drives import CosineSweepSpec, default_step_count, solve_reference
from .dynamics import IntegrationError, TimeGrid, TwoLevelState
from .ffst import (
    FfstPhaseModel,
    MagnificationProfile,
    SynthesisError,
    alpha_scaled_control,
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
from .sta import StaPhaseModel, adiabatic_target, eigenstate, synthesize_sta_control
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
OUTPUT_SCHEMA = 4


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


def _write_branches(path: str, scts, t_scan) -> None:
    """``branches.tsv``: each branch sample's index into the scan times
    ``t_scan``, of which its times are elements, and its wrapped phase."""
    # the trailing [] lets a run without branches write just the header
    _write_table(
        path,
        ["branch", "k", "f2"],
        [
            np.repeat([b.branch_id for b in scts], [len(b.times) for b in scts]),
            np.searchsorted(t_scan, np.concatenate([b.times for b in scts] + [[]])),
            np.concatenate([wrap_phase(b.f2) for b in scts] + [[]]),
        ],
    )


def _write_residual(path: str, model) -> None:
    """``residual.tsv``: the residual's (C, D, phi0) at 501 uniform times."""
    t = np.linspace(0.0, model.t_final, 501)
    _write_table(path, ["C", "D", "phi0"], sample_params(model, t))


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
        ["delta_omega", "coupling", "f2"],
        [control.delta_omega[::2], control.coupling[::2], f2],
    )


def _write_populations(path: str, traj) -> list[float]:
    """A populations table; the array dies with the call, and its last row,
    the final populations, is returned."""
    pops = traj.populations()
    _write_table(path, ["p1", "p2"], [pops[:, 0], pops[:, 1]])
    return pops[-1].tolist()


def _device_section(cfg: RunConfig, sweep_control, primary_control, out_dir: str):
    spec = default_transmon_spec(cfg.g_ghz)
    flux = flux_schedule_for(sweep_control, spec, g_phys=cfg.g_ghz)
    _write_table(os.path.join(out_dir, "device_reference.tsv"), ["flux"], [flux])
    section = {
        "band_ghz": list(spec.band),
        "omega2_ghz": spec.omega2,
        "coupling_ghz": float(coupling_strength(spec)),
        "duration_ns": float(to_physical_time(sweep_control.grid.t_end, cfg.g_ghz)),
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
            flux = flux_schedule_for(primary_control, spec, g_phys=cfg.g_ghz)
            _write_table(os.path.join(out_dir, "device_control.tsv"), ["flux"], [flux])
            section["control_map"] = {
                "feasible": True,
                "duration_ns": float(
                    to_physical_time(primary_control.grid.t_end, cfg.g_ghz)
                ),
                "flux_range": [float(np.min(flux)), float(np.max(flux))],
            }
        except FluxRangeError as exc:
            section["control_map"] = {"feasible": False, "reason": str(exc)}
    return section


def _reference(cfg: RunConfig, t_final, out_dir):
    """The reference and its section.  The sta sweep starts in its
    eigenstate at t = 0, the ffst sweep in the bare upper level, and every
    verified arm starts from the reference's first state; the map stage
    builds the run's model."""
    duration = t_final if cfg.scenario == "sta" else cfg.t_ref
    sweep = CosineSweepSpec(cfg.delta_omega0, duration)
    grid = TimeGrid(duration, cfg.reference_steps or default_step_count(duration))
    initial = TwoLevelState(*eigenstate(sweep, 0.0)) if cfg.scenario == "sta" else None
    ref = solve_reference(sweep, grid, initial=initial)
    ref_end = _write_populations(os.path.join(out_dir, "populations_reference.tsv"), ref)
    ref_peak, ref_slew = _rates(ref.drive)
    return ref, {
        "n_steps": int(ref.grid.n_steps),
        "t_end": float(ref.grid.t_end),
        "final_populations": ref_end,
        "norm_drift": ref.norm_drift(),
        "max_abs_delta_omega": ref_peak,
        "max_abs_slew": ref_slew,
    }


def _map(cfg: RunConfig, t_final, out_dir, ref):
    """The run's residual model, its branches and gaps."""
    if cfg.scenario == "sta":
        model = StaPhaseModel(CosineSweepSpec(cfg.delta_omega0, t_final))
    else:
        model = FfstPhaseModel(ref, MagnificationProfile(cfg.t_ref, t_final))
    scts = link_branches(model, n_scan=cfg.scan_points)
    gaps = detect_gaps(model, scts, n_scan=cfg.scan_points)
    _write_residual(os.path.join(out_dir, "residual.tsv"), model)
    t_scan = np.linspace(0.0, model.t_final, cfg.scan_points + 1)
    _write_branches(os.path.join(out_dir, "branches.tsv"), scts, t_scan)
    return model, scts, gaps, {
        "scan_points": cfg.scan_points,
        "branches": [_branch_record(b) for b in scts],
        "gaps": [
            {"t_start": float(g.t_start), "t_end": float(g.t_end), "width": float(g.width)}
            for g in gaps
        ],
    }


def _synthesize(cfg: RunConfig, out_dir, model, scts, gaps):
    """The primary control along the planned travel path, on the control grid."""
    t_final = model.t_final
    grid_c = TimeGrid(t_final, cfg.control_steps or default_step_count(t_final))
    plan = plan_travel(cfg.plan_kind, scts, gaps, n_scan=cfg.scan_points)
    settings = default_bridge_settings(cfg.scenario, t_final)
    vt, cost = optimize_virtual_trajectory(plan, grid_c, settings, n_cost=cfg.cost_points)
    label = "sta" if cfg.scenario == "sta" else "itt"
    control = synthesize_control(vt.f2_lift, model, grid_c, label=label)
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


def _verify_arm(arm, initial, target, out_dir, where, branches):
    """Re-integrate one arm, write its populations and return its scores;
    given the run's ``branches``, also its shifts along them."""
    # the drive's rates are read before its trajectory exists
    peak, slew = _rates(arm)
    # the shift analysis samples the residual to evaluate branches
    try:
        report = verify_control(arm, initial, target)
        if branches is not None:
            series = trajectory_shift_analysis(report.trajectory, branches)
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
    if branches is None:
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


def _verify(cfg: RunConfig, out_dir, where, ref, model, scts, control):
    """Score the primary control and each baseline arm on its grid, in turn."""
    arms = [control]
    grid = control.grid
    initial = ref.state(0)
    if cfg.scenario == "sta":
        target = adiabatic_target(model.spec)
        if "unmodified" in cfg.baselines:
            zero = np.zeros_like(grid.half_times)
            arms.append(synthesize_sta_control(zero, model, grid, label="unmodified"))
    else:
        target = ref.final_state
        if "naive" in cfg.baselines:
            arms.append(naive_control(model, grid))
        if "alpha-scaled" in cfg.baselines:
            arms.append(alpha_scaled_control(model, grid))
    # the shift analysis reads the primary arm's trajectory
    shift_analysis = cfg.scenario != "sta" and x_and_y(scts) is not None
    sections: dict = {}
    for arm in arms:
        branches = scts if shift_analysis and arm is control else None
        scores, shifts = _verify_arm(arm, initial, target, out_dir, where, branches)
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
        ref, summary["reference"] = _reference(cfg, t_final, out_dir)
    except IntegrationError as exc:
        raise SynthesisError(f"reference integration {where}: {exc}") from exc
    control = None
    # the scan, residual.tsv and the bridge cost each sample the residual's
    # parameters, and each rejects a value that is not finite
    try:
        if "map" in stages:
            model, scts, gaps, section = _map(cfg, t_final, out_dir, ref)
            summary.update(section)
        if "synthesize" in stages:
            control, section = _synthesize(cfg, out_dir, model, scts, gaps)
            summary.update(section)
    except ScanError as exc:
        raise SynthesisError(f"residual scan {where}: {exc}") from exc
    except (ConstructionError, OptimizerError, SynthesisError) as exc:
        raise SynthesisError(f"control synthesis {where}: {exc}") from exc
    if "verify" in stages:
        summary.update(_verify(cfg, out_dir, where, ref, model, scts, control))
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
    rejected before anything is written.  Every output directory, a
    sweep's one per value included, is made before any stage runs; one
    that cannot be made is a ``ConfigError`` that names it.
    """
    if cfg.require_fidelity is not None and "verify" not in _STAGES[stage]:
        raise ConfigError(
            [
                f"--require-fidelity: stage {stage!r} of scenario {cfg.scenario!r} "
                "verifies no arm, so it has no fidelity to hold to a floor"
            ]
        )
    subs = {}  # sweep label -> its run's directory; a single run writes in place
    if len(cfg.t_final) > 1:
        for tf in cfg.t_final:
            subs[sweep_label(tf)] = os.path.join(out_dir, "tf-" + sweep_label(tf))
    for path in (out_dir, *subs.values()):
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            message = f"output directory {path!r} cannot be made: {exc}"
            raise ConfigError([message]) from exc
    if not subs:
        return run_single(cfg, cfg.t_final[0], out_dir, stage)

    runs: dict[str, dict] = {}
    errors: list[tuple[str, Exception]] = []
    for tf, (label, sub) in zip(cfg.t_final, subs.items()):
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
