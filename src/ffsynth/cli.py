"""Command line front end: scaled-schedule synthesis and verification.

Subcommands walk one pipeline to increasing depth:

  reference    solve and export the reference trajectory
  map          sample the phase residual, extract branches and gaps
  synthesize   plan the travel path, optimize bridges, emit the control
  verify       re-integrate every arm and score it against the target
  sta          eigenstate-following pipeline (requires scenario: sta)
  device       map the reference sweep onto the flux axis
  full         verify plus the device mapping

Exit codes: 0 success, 2 configuration problem, 3 synthesis or
construction failure, 4 verified fidelity below the required floor.

All outputs are deterministic: rerunning a config produces byte-identical
tables and summaries.  Numbers are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from .analysis import trajectory_shift_analysis, verify_control
from .config import ConfigError, RunConfig, load_config, sweep_label
from .device import (
    FluxRangeError,
    coupling_strength,
    default_transmon_spec,
    flux_schedule_for,
    rwa_emulation_map,
    transmon_frequency,
)
from .drives import CosineSweepSpec, default_step_count, solve_reference
from .dynamics import TimeGrid, TwoLevelState
from .ffst import (
    LN_BETA_FLOOR,
    FfstPhaseModel,
    SynthesisError,
    alpha_scaled_control,
    build_beta_map,
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
from .sta import StaPhaseModel, adiabatic_target, synthesize_sta_control
from .zerocurves import detect_gaps, link_branches

DEPTH = {
    "reference": 0,
    "map": 1,
    "synthesize": 2,
    "verify": 3,
    "sta": 3,
    "device": 0,
    "full": 3,
}

SETTINGS_KIND = {
    "accelerate": "accelerate",
    "decelerate": "decelerate",
    "sta": "sta",
    "reference-only": "accelerate",
    "device-map": "accelerate",
}


#: Rows formatted per write; bounds the text held in memory at once.
TABLE_CHUNK_ROWS = 4096


def _write_table(path: str, header: list[str], columns) -> None:
    """Tab-separated table: numeric columns as ``%.17g``, byte-identical to
    ``np.savetxt(fmt="%.17g")``, and string columns as ``%s``."""
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
    counts = [np.count_nonzero(b.valid) for b in scts]
    _write_table(
        path,
        ["branch", "t", "f2"],
        [
            np.repeat([b.branch_id for b in scts], counts),
            np.concatenate([b.times[b.valid] for b in scts] + [[]]),
            np.concatenate([b.f2_canonical[b.valid] for b in scts] + [[]]),
        ],
    )


def _write_beta_map(path: str, bmap) -> None:
    ln_beta = np.log(np.maximum(np.abs(bmap.values), LN_BETA_FLOOR))
    tcol = np.repeat(bmap.times, len(bmap.phases))
    pcol = np.tile(bmap.phases, len(bmap.times))
    _write_table(path, ["t", "f2", "ln_abs_beta"], [tcol, pcol, ln_beta.ravel()])


def _device_section(cfg: RunConfig, sweep_control, primary_control, out_dir: str):
    spec = default_transmon_spec(cfg.g_ghz)
    wave = flux_schedule_for(sweep_control, spec, g_phys=cfg.g_ghz)
    _write_table(
        os.path.join(out_dir, "device_reference.tsv"),
        ["t_ns", "flux"],
        [wave.grid.times, wave.flux],
    )
    rwa = rwa_emulation_map(sweep_control)
    section = {
        "band_ghz": [
            float(transmon_frequency(spec.ej_max * spec.d, spec.ec)),
            float(transmon_frequency(spec.ej_max, spec.ec)),
        ],
        "omega2_ghz": float(transmon_frequency(spec.ej_fixed, spec.ec)),
        "coupling_ghz": float(coupling_strength(spec)),
        "duration_ns": float(wave.grid.t_end),
        "flux_range": [float(np.min(wave.flux)), float(np.max(wave.flux))],
        "spec": {
            "ej_max": float(spec.ej_max),
            "ej_fixed": float(spec.ej_fixed),
            "ec": float(spec.ec),
            "ecc": float(spec.ecc),
            "d": float(spec.d),
            "g_ghz": float(cfg.g_ghz),
        },
        "rwa": {k: (float(v) if isinstance(v, (int, float)) else v)
                for k, v in rwa.metadata.items()},
    }
    if primary_control is not None:
        try:
            cwave = flux_schedule_for(primary_control, spec, g_phys=cfg.g_ghz)
            _write_table(
                os.path.join(out_dir, "device_control.tsv"),
                ["t_ns", "flux"],
                [cwave.grid.times, cwave.flux],
            )
            section["control_map"] = {
                "feasible": True,
                "flux_range": [float(np.min(cwave.flux)), float(np.max(cwave.flux))],
            }
        except FluxRangeError as exc:
            section["control_map"] = {"feasible": False, "reason": str(exc)}
    return section


def run_single(
    cfg: RunConfig,
    t_final: float,
    out_dir: str,
    depth: int,
    do_device: bool,
    stage: str,
) -> dict:
    """One scenario at one duration; writes tables and returns the summary."""
    os.makedirs(out_dir, exist_ok=True)
    summary: dict = {
        "schema_version": cfg.schema_version,
        "stage": stage,
        "scenario": cfg.scenario,
        "t_ref": float(cfg.t_ref),
        "t_final": float(t_final),
        "delta_omega0": float(cfg.delta_omega0),
    }
    is_sta = cfg.scenario == "sta"
    if cfg.scenario == "device-map":
        depth = 0

    # reference stage: the trajectory everything else is scored against.
    # The sta model sets its initial state, so it is built here; the ffst
    # model needs the control grid and is built in the map stage.
    if is_sta:
        sweep = CosineSweepSpec(cfg.delta_omega0, t_final)
        n_ref = cfg.reference_steps or default_step_count(t_final)
        model = StaPhaseModel(sweep)
        ref = solve_reference(
            sweep, TimeGrid(0.0, t_final, n_ref), initial=model.initial_state()
        )
    else:
        sweep = CosineSweepSpec(cfg.delta_omega0, cfg.t_ref)
        n_ref = cfg.reference_steps or default_step_count(cfg.t_ref)
        model = None
        ref = solve_reference(sweep, TimeGrid(0.0, cfg.t_ref, n_ref))
    pops = ref.populations()
    _write_table(
        os.path.join(out_dir, "populations_reference.tsv"),
        ["t", "p1", "p2"],
        [ref.grid.times, pops[:, 0], pops[:, 1]],
    )
    p1_end, p2_end = ref.final_state.populations()
    summary["reference"] = {
        "n_steps": int(ref.grid.n_steps),
        "final_populations": [float(p1_end), float(p2_end)],
        "norm_drift": float(np.max(np.abs(ref.norms() - 1.0))),
    }

    scts: list = []
    gaps: list = []
    if depth >= 1:
        n_ctrl = cfg.control_steps or default_step_count(t_final)
        grid_c = TimeGrid(0.0, t_final, n_ctrl)
        if not is_sta:
            model = FfstPhaseModel(ref, build_magnification(cfg.t_ref, grid_c))
        scts = link_branches(model, n_scan=cfg.scan_points)
        gaps = detect_gaps(model, scts, n_scan=cfg.scan_points)
        _write_beta_map(os.path.join(out_dir, "beta_map.tsv"), build_beta_map(model))
        _write_branches(os.path.join(out_dir, "branches.tsv"), scts)
        summary["branches"] = [_branch_record(b) for b in scts]
        summary["gaps"] = [
            {"t_start": float(g.t_start), "t_end": float(g.t_end), "width": float(g.width)}
            for g in gaps
        ]

    control = None
    if depth >= 2:
        plan = plan_travel(cfg.plan_kind, scts, gaps, t_final)
        settings = default_bridge_settings(SETTINGS_KIND[cfg.scenario], t_final)
        vt, cost = optimize_virtual_trajectory(
            plan, model, grid_c, settings, n_cost=cfg.cost_points
        )
        if is_sta:
            control = synthesize_sta_control(vt, model, grid_c, label="sta")
            alpha_nodes = np.ones_like(grid_c.times)
            lam_nodes = grid_c.times
        else:
            control = synthesize_control(vt, model, label="itt")
            alpha_nodes = model.prof.alpha_at(grid_c.times)
            lam_nodes = model.prof.lambda_at(grid_c.times)
        _write_table(
            os.path.join(out_dir, "control.tsv"),
            ["t", "delta_omega", "derivative", "coupling", "f2", "alpha", "lambda"],
            [
                grid_c.times,
                control.delta_omega,
                np.gradient(control.delta_omega, grid_c.h, edge_order=2),
                control.coupling,
                vt.f2,
                alpha_nodes,
                lam_nodes,
            ],
        )
        summary["plan"] = {
            "kind": cfg.plan_kind,
            "branches": [b.branch_id for b in plan.branches],
            "crossings": [[float(lo), float(hi)] for lo, hi in plan.crossings],
        }
        summary["bridges"] = [
            {"center": c, "width": w, "amplitude": a} for c, w, a in vt.bridge_params
        ]
        summary["cost"] = {
            "integrated_residual": float(cost.integrated_residual),
            "per_gap_residual": [float(v) for v in cost.per_gap_residual],
            "evaluations": int(cost.evaluations),
        }
        summary["bridge_mode"] = vt.bridge_mode

    if depth >= 3:
        if is_sta:
            initial = model.initial_state()
            target = adiabatic_target(sweep, grid_c).state
            arms = [control]
            if "unmodified" in cfg.baselines:
                arms.append(synthesize_sta_control(None, model, grid_c, label="unmodified"))
        else:
            initial = TwoLevelState(1.0 + 0.0j, 0.0j)
            target = ref.final_state
            arms = [control]
            if "naive" in cfg.baselines:
                arms.append(naive_control(model))
            if "alpha-scaled" in cfg.baselines:
                arms.append(alpha_scaled_control(model))
        fidelities = {}
        primary_report = None
        for arm in arms:
            report = verify_control(arm, initial, target, label=arm.label)
            if primary_report is None:
                primary_report = report
            fidelities[arm.label] = float(report.fidelity)
            _write_table(
                os.path.join(out_dir, f"populations_{arm.label}.tsv"),
                ["t", "p1", "p2"],
                [
                    arm.grid.times,
                    report.population_series[:, 0],
                    report.population_series[:, 1],
                ],
            )
        summary["fidelities"] = fidelities
        summary["target_populations"] = [float(v) for v in target.populations()]

        labeled = {b.branch_id for b in scts}
        if not is_sta and {"X", "Y"} <= labeled:
            series = trajectory_shift_analysis(primary_report.trajectory, scts, model)
            _write_table(
                os.path.join(out_dir, "shifts.tsv"),
                ["t", "overlap_x", "overlap_y", "dominant"],
                [series.times, series.overlap_x, series.overlap_y, series.dominant],
            )
            summary["shift_analysis"] = {
                "count": int(series.shift_count),
                "times": [float(t) for t in series.shift_times],
            }

        floor = cfg.require_fidelity
        if floor is not None:
            primary = fidelities[control.label]
            summary["require_fidelity"] = float(floor)
            summary["fidelity_ok"] = bool(primary >= floor)

    if do_device:
        summary["device"] = _device_section(cfg, ref.drive, control, out_dir)

    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_pipeline(cfg: RunConfig, out_dir: str, stage: str) -> dict:
    """Run each t_final value in turn; single runs write in place.

    A failing value does not stop the values after it.  The aggregate
    summary is written either way, listing each failed value's message
    under ``failed``; then the first failure is re-raised with a message
    naming every failed value.
    """
    depth = DEPTH[stage]
    do_device = stage in ("device", "full") or (
        cfg.scenario == "device-map" and stage != "reference"
    )
    if len(cfg.t_final) == 1:
        return run_single(cfg, cfg.t_final[0], out_dir, depth, do_device, stage)

    os.makedirs(out_dir, exist_ok=True)
    runs: dict[str, dict] = {}
    errors: list[tuple[str, Exception]] = []
    for tf in cfg.t_final:
        label = sweep_label(tf)
        sub = os.path.join(out_dir, "tf-" + label)
        try:
            runs[label] = run_single(cfg, tf, sub, depth, do_device, stage)
        except Exception as exc:
            errors.append((label, exc))

    aggregate = {
        "schema_version": cfg.schema_version,
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
    except (SynthesisError, ConstructionError, OptimizerError, FluxRangeError) as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 3

    if args.seed_free:
        if random.getstate() != py_state or _np_random_fingerprint() != np_state:
            print("seed-free assertion failed: RNG state changed", file=sys.stderr)
            return 1

    print(f"wrote {os.path.join(out_dir, 'summary.json')}")
    for key in ("fidelities",):
        if key in summary:
            for label, value in sorted(summary[key].items()):
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
