"""Which ffsynth functions make up each layer, and the per-layer metrics.

Layers are named after the package's modules.  A probe's span is named
``<layer>.<function>``; a function is put in the layer that does its
work, so the ``extract_*`` and ``detect_phase_gaps`` wrappers count as
``zerocurves`` even though they live in ``ffst`` and ``sta``.

Every ``*_s`` metric is the time covered by the named spans (overlap
counted once, so recursion is not counted twice), except the ``self_s``
metrics, which subtract the time covered by child spans.  Summed over all
layers, the ``self_s`` metrics equal the duration of ``cli.main``.
"""

from __future__ import annotations

from tracer import Probe, Span, self_times, union_length

LAYERS = (
    "cli", "config", "drives", "dynamics", "zerocurves", "ffst",
    "itt", "sta", "analysis", "device",
)


def probes(ff) -> list[Probe]:
    """Probes on the imported package; ``ff`` maps module suffix -> module."""

    def steps(a, r):
        return {"steps": a["drive"].grid.n_steps}

    def scan(a, r):
        return {"samples": a["n_scan"] + 1, "branches": len(r)}

    def optimize(a, r):
        return {"evals": r[1].evaluations, "maxfev": a["maxfev"]}

    return [
        Probe(ff["cli"], "main", "cli.main"),
        Probe(ff["cli"], "run_pipeline", "cli.run_pipeline"),
        Probe(ff["cli"], "run_single", "cli.run_single", schedule="t_final"),
        Probe(ff["config"], "load_config", "config.load_config"),
        Probe(ff["drives"], "solve_reference", "drives.solve_reference",
              count=lambda a, r: {"steps": r.grid.n_steps}),
        Probe(ff["dynamics"], "integrate_schrodinger",
              "dynamics.integrate_schrodinger", count=steps),
        Probe(ff["zerocurves"], "link_branches", "zerocurves.link_branches", count=scan),
        Probe(ff["ffst"], "extract_scts", "zerocurves.extract_scts"),
        Probe(ff["sta"], "extract_sta_branches", "zerocurves.extract_sta_branches"),
        Probe(ff["zerocurves"], "detect_gaps", "zerocurves.detect_gaps",
              count=lambda a, r: {"gaps": len(r)}),
        Probe(ff["ffst"], "detect_phase_gaps", "zerocurves.detect_phase_gaps"),
        Probe(ff["ffst"].FfstPhaseModel, "__init__", "ffst.FfstPhaseModel"),
        Probe(ff["ffst"], "synthesize_control", "ffst.synthesize_control"),
        Probe(ff["ffst"], "naive_control", "ffst.naive_control"),
        Probe(ff["ffst"], "alpha_scaled_control", "ffst.alpha_scaled_control"),
        Probe(ff["itt"], "plan_through_gaps", "itt.plan_through_gaps"),
        Probe(ff["itt"], "plan_with_crossings", "itt.plan_with_crossings"),
        Probe(ff["itt"], "optimize_virtual_trajectory",
              "itt.optimize_virtual_trajectory", count=optimize),
        Probe(ff["sta"], "synthesize_sta_control", "sta.synthesize_sta_control"),
        Probe(ff["sta"], "adiabatic_target", "sta.adiabatic_target"),
        Probe(ff["analysis"], "verify_control", "analysis.verify_control"),
        Probe(ff["analysis"], "trajectory_shift_analysis",
              "analysis.trajectory_shift_analysis"),
        Probe(ff["device"], "flux_schedule_for", "device.flux_schedule_for"),
        Probe(ff["device"], "rwa_emulation_map", "device.rwa_emulation_map"),
    ]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name.split(".", 1)[1] in names]

    def covered(*names):
        return union_length((s.start, s.end) for s in named(*names))

    def total(count, *names):
        return sum(s.counts.get(count, 0) for s in named(*names))

    opt = [s for s in named("optimize_virtual_trajectory") if s.counts["evals"] > 0]
    m = {
        "dynamics.integrate_s": covered("integrate_schrodinger"),
        "dynamics.calls": len(named("integrate_schrodinger")),
        "dynamics.steps": total("steps", "integrate_schrodinger"),
        "drives.reference_s": covered("solve_reference"),
        "drives.reference_steps": total("steps", "solve_reference"),
        "ffst.model_builds": len(named("FfstPhaseModel")),
        "ffst.model_build_s": covered("FfstPhaseModel"),
        "ffst.synthesize_s": covered(
            "synthesize_control", "naive_control", "alpha_scaled_control"
        ),
        "zerocurves.scan_s": covered(
            "link_branches", "extract_scts", "extract_sta_branches"
        ),
        "zerocurves.scan_samples": total("samples", "link_branches"),
        "zerocurves.gaps_s": covered("detect_gaps", "detect_phase_gaps"),
        "zerocurves.branches": total("branches", "link_branches"),
        "zerocurves.gaps": total("gaps", "detect_gaps"),
        "itt.plan_s": covered("plan_through_gaps", "plan_with_crossings"),
        "itt.optimize_s": covered("optimize_virtual_trajectory"),
        "itt.cost_evals": total("evals", "optimize_virtual_trajectory"),
        "itt.evals_at_cap": (
            sum(s.counts["evals"] >= s.counts["maxfev"] for s in opt) / len(opt)
            if opt else 0.0
        ),
        "sta.synthesize_s": covered("synthesize_sta_control"),
        "sta.target_s": covered("adiabatic_target"),
        "analysis.verify_self_s": sum(selfs[s.id] for s in named("verify_control")),
        "analysis.arms": len(named("verify_control")),
        "analysis.shift_s": covered("trajectory_shift_analysis"),
        "device.map_s": covered("flux_schedule_for", "rwa_emulation_map"),
        "device.calls": len(named("flux_schedule_for", "rwa_emulation_map")),
        "config.load_s": covered("load_config"),
    }
    m["dynamics.steps_per_s"] = _rate(m["dynamics.steps"], m["dynamics.integrate_s"])
    m["zerocurves.samples_per_s"] = _rate(
        m["zerocurves.scan_samples"], covered("link_branches")
    )
    m["itt.evals_per_s"] = _rate(m["itt.cost_evals"], m["itt.optimize_s"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    return m


def budget_violations(spans: list[Span], max_steps: int, max_evals: int) -> list[str]:
    """Integrations and optimizations in the trace that exceed the budgets."""
    out = []
    for s in spans:
        if s.counts.get("steps", 0) > max_steps:
            out.append(f"{s.name} at t_final={s.schedule} took {s.counts['steps']} steps")
        if s.counts.get("evals", 0) > max_evals:
            out.append(f"{s.name} at t_final={s.schedule} took {s.counts['evals']} cost evaluations")
    return out
