"""Shared pipeline fixtures.

The end-to-end bundles are expensive (each one optimizes bridges and
re-integrates several controls), so they are built once per session and
shared by the module tests and the acceptance gate.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from ffsynth import (
    CosineSweepSpec,
    FfstPhaseModel,
    StaPhaseModel,
    TimeGrid,
    TwoLevelState,
    adiabatic_target,
    alpha_scaled_control,
    branch_touch_times,
    build_magnification,
    default_bridge_settings,
    default_step_count,
    detect_gaps,
    link_branches,
    naive_control,
    optimize_virtual_trajectory,
    plan_travel,
    solve_reference,
    synthesize_control,
    synthesize_sta_control,
    verify_control,
)


@pytest.fixture(scope="session")
def reference():
    """Canonical cosine-sweep trajectory: amplitude 30, duration 1."""
    return solve_reference(CosineSweepSpec(30.0, 1.0))


def _scaling_bundle(reference, t_final: float, plan_kind: str, settings_kind: str):
    grid = TimeGrid(t_final, default_step_count(t_final))
    prof = build_magnification(1.0, grid)
    model = FfstPhaseModel(reference, prof)
    scts = link_branches(model)
    gaps = detect_gaps(model, scts)
    plan = plan_travel(plan_kind, scts, gaps, t_final)
    touches = []
    if plan_kind != "auto":
        labeled = {b.branch_id: b for b in scts}
        touches = branch_touch_times(labeled["X"], labeled["Y"])
    settings = default_bridge_settings(settings_kind, t_final)
    vt, cost = optimize_virtual_trajectory(plan, model, grid, settings)
    control = synthesize_control(vt.f2_lift, model, label="itt")
    initial = TwoLevelState(1.0 + 0.0j, 0.0j)
    target = reference.final_state
    report = verify_control(control, initial, target)
    return SimpleNamespace(
        t_final=t_final,
        grid=grid,
        prof=prof,
        model=model,
        scts=scts,
        gaps=gaps,
        touches=touches,
        plan=plan,
        settings=settings,
        vt=vt,
        cost=cost,
        control=control,
        initial=initial,
        target=target,
        report=report,
    )


@pytest.fixture(scope="session")
def decel_a(reference):
    """Slowdown to T_F = 1.1 with a single median-corridor crossing."""
    return _scaling_bundle(reference, 1.1, "vt-a", "decelerate")


@pytest.fixture(scope="session")
def decel_b(reference):
    """Slowdown to T_F = 1.1 crossing at every corridor."""
    return _scaling_bundle(reference, 1.1, "vt-b", "decelerate")


@pytest.fixture(scope="session")
def accel(reference):
    """Speedup to T_F = 0.9 chaining across the root-free gaps."""
    return _scaling_bundle(reference, 0.9, "auto", "accelerate")


@pytest.fixture(scope="session")
def accel_overlap(reference):
    """Speedup to T_F = 0.75, where overlapping bridge windows leave a jump
    in the itt control."""
    return _scaling_bundle(reference, 0.75, "auto", "accelerate")


@pytest.fixture(scope="session")
def decel_baselines(reference, decel_a):
    naive = verify_control(naive_control(decel_a.model), decel_a.initial, decel_a.target)
    scaled = verify_control(
        alpha_scaled_control(decel_a.model), decel_a.initial, decel_a.target
    )
    return SimpleNamespace(naive=naive, alpha_scaled=scaled)


@pytest.fixture(scope="session")
def accel_baselines(reference, accel):
    naive = verify_control(naive_control(accel.model), accel.initial, accel.target)
    scaled = verify_control(alpha_scaled_control(accel.model), accel.initial, accel.target)
    return SimpleNamespace(naive=naive, alpha_scaled=scaled)


def _sta_bundle(duration: float, n_steps: int | None = None):
    sweep = CosineSweepSpec(30.0, duration)
    model = StaPhaseModel(sweep)
    grid = TimeGrid(duration, n_steps or default_step_count(duration))
    branches = link_branches(model)
    gaps = detect_gaps(model, branches)
    plan = plan_travel("auto", branches, gaps, duration)
    settings = default_bridge_settings("sta", duration)
    vt, cost = optimize_virtual_trajectory(plan, model, grid, settings)
    control = synthesize_sta_control(vt.f2_lift, model, grid, label="sta")
    zero = np.zeros_like(grid.half_times)
    unmodified = synthesize_sta_control(zero, model, grid, label="unmodified")
    initial = model.initial_state()
    target = adiabatic_target(sweep, grid).state
    report = verify_control(control, initial, target)
    report_unmodified = verify_control(unmodified, initial, target)
    return SimpleNamespace(
        duration=duration,
        sweep=sweep,
        model=model,
        grid=grid,
        branches=branches,
        gaps=gaps,
        plan=plan,
        settings=settings,
        vt=vt,
        cost=cost,
        control=control,
        unmodified=unmodified,
        initial=initial,
        target=target,
        report=report,
        report_unmodified=report_unmodified,
    )


@pytest.fixture(scope="session")
def sta30():
    return _sta_bundle(30.0)


@pytest.fixture(scope="session")
def sta20():
    return _sta_bundle(20.0)


@pytest.fixture(scope="session")
def sta10():
    return _sta_bundle(10.0)


@pytest.fixture(scope="session")
def sta300():
    return _sta_bundle(300.0)


@pytest.fixture(scope="session")
def sta300_fine():
    """sta at T = 300 on four times the default grid's steps."""
    return _sta_bundle(300.0, 4 * default_step_count(300.0))
