"""Acceptance gate: one test per shipping criterion.

Run ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion.  Thresholds are pinned here and nowhere else; every fidelity
asserted below comes from an independent re-integration of the
synthesized waveform, never from the synthesis itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from diagnostics import gap_direction_scan, global_phase_check

from ffsynth import (
    CosineSweepSpec,
    DriveSchedule,
    FfstPhaseModel,
    TimeGrid,
    TravelPlan,
    TwoLevelState,
    build_magnification,
    default_bridge_settings,
    default_transmon_spec,
    fidelity,
    flux_schedule_for,
    integrate_schrodinger,
    optimize_virtual_trajectory,
    solve_reference,
    squid_ej,
    synthesize_control,
    synthesize_sta_control,
    to_physical_time,
    trajectory_shift_analysis,
    transmon_frequency,
    verify_control,
)
from ffsynth.zerocurves import residual, root_table

MAX_STEPS = 100_000
MAX_EVALUATIONS = 2_000


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_accelerated_arrival(accel, accel_baselines):
    f_itt = accel.report.fidelity
    f_naive = accel_baselines.naive.fidelity
    f_scaled = accel_baselines.alpha_scaled.fidelity
    ok = (
        f_itt >= 0.999
        and abs(f_naive - 0.9871) <= 0.002
        and abs(f_scaled - 0.9989) <= 0.002
    )
    _line(
        1,
        "acceleration to 0.9 beats both baselines",
        ok,
        f"itt={f_itt:.6f} (floor 0.999), naive={f_naive:.6f} (0.9871 +/- 0.002), "
        f"alpha-scaled={f_scaled:.6f} (0.9989 +/- 0.002)",
    )


def test_criterion_02_decelerated_arrival(decel_a, decel_b, decel_baselines):
    f_a = decel_a.report.fidelity
    f_b = decel_b.report.fidelity
    f_naive = decel_baselines.naive.fidelity
    f_scaled = decel_baselines.alpha_scaled.fidelity
    ok = (
        f_a >= 0.9995
        and f_b >= 0.999
        and abs(f_naive - 0.9876) <= 0.002
        and abs(f_scaled - 0.9984) <= 0.002
    )
    _line(
        2,
        "deceleration to 1.1 on both crossing plans",
        ok,
        f"single-crossing={f_a:.6f} (floor 0.9995), "
        f"every-corridor={f_b:.6f} (floor 0.999), naive={f_naive:.6f}, "
        f"alpha-scaled={f_scaled:.6f}",
    )


def test_criterion_03_eigenstate_following_adiabatic(sta30):
    f_sta = sta30.report.fidelity
    f_unmod = sta30.report_unmodified.fidelity
    ok = f_sta >= 0.9999 and abs(f_unmod - 0.929) <= 0.005
    _line(
        3,
        "duration-30 transfer is exact, bare sweep is not",
        ok,
        f"sta={f_sta:.6f} (floor 0.9999), unmodified={f_unmod:.6f} (0.929 +/- 0.005)",
    )


def test_criterion_04_eigenstate_following_fast(sta20, sta10):
    f20 = sta20.report.fidelity
    u20 = sta20.report_unmodified.fidelity
    f10 = sta10.report.fidelity
    u10 = sta10.report_unmodified.fidelity
    ok = (
        f20 >= 0.995
        and abs(u20 - 0.857) <= 0.01
        and abs(f10 - 0.949) <= 0.01
        and abs(u10 - 0.697) <= 0.01
    )
    _line(
        4,
        "bridged transfer at durations 20 and 10",
        ok,
        f"sta20={f20:.6f} (floor 0.995) vs unmod={u20:.6f}; "
        f"sta10={f10:.6f} (0.949 +/- 0.01) vs unmod={u10:.6f}",
    )


def test_criterion_05_shift_counts(reference, decel_a, decel_b):
    series_a = trajectory_shift_analysis(
        decel_a.report.trajectory, decel_a.scts, decel_a.model
    )
    series_b = trajectory_shift_analysis(
        decel_b.report.trajectory, decel_b.scts, decel_b.model
    )
    ok = series_a.shift_count == 1 and series_b.shift_count == 3
    _line(
        5,
        "integrated state shifts branch once (plan A) and thrice (plan B)",
        ok,
        f"plan A shifts={series_a.shift_count} at {list(series_a.shift_times)}, "
        f"plan B shifts={series_b.shift_count}",
    )


def _interior_sign_changes(model, t_final: float, want_alpha_above: bool):
    """Times where the overlap turns purely imaginary, away from the ends."""
    t = np.linspace(0.05 * t_final, 0.95 * t_final, 8001)
    c, d, phi0 = model.sine_params(t)
    a = np.cos(phi0)
    alpha = model.prof.alpha_at(t)
    cross = np.flatnonzero(np.sign(a[:-1]) * np.sign(a[1:]) < 0)
    out = []
    for k in cross:
        if want_alpha_above and alpha[k] > 1.05:
            out.append(float(t[k]))
        if not want_alpha_above and alpha[k] < 0.95:
            out.append(float(t[k]))
    return out


def test_criterion_06_gap_opening_structure(reference, decel_a, accel):
    scan = gap_direction_scan(reference)

    # speeding up opens root-free windows at the known locations
    intervals = scan[0.9].zero_intervals
    starts_ok = len(intervals) == 3 and all(
        abs(lo - want) < 0.05
        for (lo, _), want in zip(intervals, (0.5, 0.7, 0.8))
    )

    # slowing down keeps roots everywhere and splits branches sideways;
    # the corridors between the two full-span branches sit where expected
    horizontal_ok = (
        scan[1.1].classification == "horizontal"
        and not np.any(scan[1.1].counts[1:-1] == 0)
    )
    touches_ok = len(decel_a.touches) == 3 and all(
        min(abs(c - want) for c in decel_a.touches) < 0.05
        for want in (0.7, 0.9, 1.0)
    )

    # dichotomy at purely imaginary overlap: |C/D| = alpha there, so the
    # slowdown keeps two roots and the speedup has none
    def root_counts(model, t):
        return set(np.maximum(root_table(*model.sine_params(np.asarray(t)))[2], 0).tolist())

    decel_counts = root_counts(
        decel_a.model, _interior_sign_changes(decel_a.model, 1.1, want_alpha_above=False)
    )
    accel_counts = root_counts(
        accel.model, _interior_sign_changes(accel.model, 0.9, want_alpha_above=True)
    )
    constructed_slow = int(root_table(0.9 * 0.7, 0.7, np.pi / 2)[2])
    constructed_fast = int(root_table(1.1 * 0.7, 0.7, -np.pi / 2)[2])
    dichotomy_ok = (
        decel_counts == {2}
        and accel_counts == {0}
        and constructed_slow == 2
        and constructed_fast == 0
    )

    ok = starts_ok and horizontal_ok and touches_ok and dichotomy_ok
    _line(
        6,
        "vertical gaps under speedup, horizontal split under slowdown",
        ok,
        f"speedup intervals={[(round(a, 3), round(b, 3)) for a, b in intervals]}, "
        f"slowdown={scan[1.1].classification}, corridors near "
        f"{[round(c, 3) for c in decel_a.touches]}, root counts at imaginary "
        f"overlap: slow={sorted(decel_counts)} fast={sorted(accel_counts)} "
        f"constructed=({constructed_slow}, {constructed_fast})",
    )


def test_criterion_07_integrator_quality(reference, sta30):
    # unitarity over the budget's longest grid: the sta-30 path (a branch
    # without bridges) synthesized and integrated on 1e5 steps
    grid = TimeGrid(sta30.duration, MAX_STEPS)
    vt, _ = optimize_virtual_trajectory(sta30.plan, sta30.model, grid, sta30.settings)
    control = synthesize_sta_control(vt.f2_lift, sta30.model, grid, label="sta")
    traj = verify_control(control, sta30.initial, sta30.target).trajectory
    drift = traj.norm_drift()
    drift_ok = traj.grid.n_steps == MAX_STEPS and drift < 1e-9

    # step-halving error decay at fourth order against a fine solution
    spec = CosineSweepSpec(30.0, 1.0)
    fine = solve_reference(spec, TimeGrid(1.0, 8000)).final_state
    errs = []
    for n in (250, 500, 1000):
        final = solve_reference(spec, TimeGrid(1.0, n)).final_state
        errs.append(
            float(
                np.hypot(
                    abs(final.phi1 - fine.phi1), abs(final.phi2 - fine.phi2)
                )
            )
        )
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    order_ok = min(orders) >= 3.9

    # reversed drive returns the conjugate start state
    drive = reference.drive
    back = DriveSchedule(
        grid=drive.grid,
        delta_omega=drive.delta_omega[::-1],
        coupling=drive.coupling[::-1],
    )
    fin = reference.final_state
    recovered = integrate_schrodinger(
        back, TwoLevelState(np.conj(fin.phi1), np.conj(fin.phi2))
    ).final_state
    f_back = fidelity(recovered, TwoLevelState(1.0 + 0.0j, 0.0j))
    reverse_ok = f_back > 1.0 - 1e-8

    ok = drift_ok and order_ok and reverse_ok
    _line(
        7,
        "integrator is unitary, fourth order, and reversible",
        ok,
        f"norm drift={drift:.2e} over {traj.grid.n_steps} steps (<1e-9), "
        f"orders={[round(o, 2) for o in orders]} (>=3.9), "
        f"round trip={f_back:.12f} (>1-1e-8)",
    )


def test_criterion_08_scaling_consistency(reference, decel_a):
    # riding the winding branch alone must still reach the target
    y = {b.branch_id: b for b in decel_a.scts}["Y"]
    plan = TravelPlan(branches=(y,), crossings=(), t_final=decel_a.t_final)
    settings = default_bridge_settings("decelerate", decel_a.t_final)
    vt, cost = optimize_virtual_trajectory(plan, decel_a.model, decel_a.grid, settings)
    control = synthesize_control(vt.f2_lift, decel_a.model, label="y-only")
    f_y = verify_control(control, decel_a.initial, decel_a.target).fidelity
    branch_ok = f_y > 1.0 - 1e-6 and cost.evaluations == 0

    # unit magnification with the zero path returns the reference drive
    # bitwise at the grid nodes; midpoint samples pass through the Hermite
    # interpolant of the reference detuning and may move by about 1e-14
    grid = TimeGrid(1.0, reference.grid.n_steps)
    prof_id = build_magnification(1.0, grid)
    ident = synthesize_control(
        np.zeros_like(grid.half_times), FfstPhaseModel(reference, prof_id)
    )
    mid_err = float(
        np.max(np.abs(ident.delta_omega[1::2] - reference.drive.delta_omega[1::2]))
    )
    identity_ok = bool(
        np.array_equal(ident.delta_omega[::2], reference.drive.delta_omega[::2])
        and np.array_equal(ident.coupling[::2], reference.drive.coupling[::2])
        and mid_err < 1e-12
    )

    # scaling the coupling along with the detuning is the textbook limit
    half = decel_a.grid.half_times
    trivial = synthesize_control(
        np.zeros_like(half),
        decel_a.model,
        coupling_ff=decel_a.prof.alpha_at(half),
        label="trivial",
    )
    f_triv = verify_control(trivial, decel_a.initial, decel_a.target).fidelity
    trivial_ok = f_triv > 1.0 - 1e-8

    ok = branch_ok and identity_ok and trivial_ok
    _line(
        8,
        "branch-following, identity, and trivially rescaled limits",
        ok,
        f"single-branch={f_y:.9f} (>1-1e-6, {cost.evaluations} evals), "
        f"identity nodes bitwise, mid err={mid_err:.1e} (<1e-12), "
        f"trivial rescale={f_triv:.10f} (>1-1e-8)",
    )


def test_criterion_09_frame_invariances(reference, decel_a):
    half = decel_a.grid.half_times
    drift = global_phase_check(
        decel_a.control, 4.0 * np.cos(3.0 * half) + 2.0, decel_a.initial, decel_a.target
    )
    phase_ok = drift < 1e-9

    t = np.linspace(0.0, decel_a.t_final, 401)
    f = np.linspace(-np.pi, np.pi, 401)
    c, d, phi0 = decel_a.model.sine_params(t)
    b0 = residual(c, d, phi0, f)
    b1 = residual(c, d, phi0, f + 2.0 * np.pi)
    period = float(np.max(np.abs(b1 - b0)))
    period_ok = period < 1e-12

    # population flow equals the coupling exchange term at second order
    errs = []
    for n in (2000, 4000):
        traj = solve_reference(CosineSweepSpec(30.0, 1.0), TimeGrid(1.0, n))
        h = traj.grid.h
        p1 = np.abs(traj.phi1) ** 2
        numeric = (p1[2:] - p1[:-2]) / (2.0 * h)
        analytic = 2.0 * np.imag(np.conj(traj.phi1) * traj.phi2)[1:-1]
        errs.append(float(np.max(np.abs(numeric - analytic))))
    ratio = errs[0] / errs[1]
    rate_ok = 3.0 < ratio < 5.0

    ok = phase_ok and period_ok and rate_ok
    _line(
        9,
        "global phase shift, residual periodicity, population flow",
        ok,
        f"overlap drift={drift:.2e} (<1e-9), periodicity error={period:.2e} "
        f"(<1e-12), halving ratio={ratio:.2f} (in (3, 5))",
    )


def test_criterion_10_hardware_mapping(reference):
    freq = float(transmon_frequency(30.0, 0.203))
    freq_ok = abs(freq - 6.777) <= 1e-3
    squid_ok = squid_ej(0.5, 30.0, 0.85) == 25.5

    spec = default_transmon_spec()
    grid = reference.grid
    half = grid.half_times
    control = DriveSchedule(
        grid, CosineSweepSpec(30.0, 1.0).delta_omega(half), np.ones_like(half)
    )
    _, flux = flux_schedule_for(control, spec)
    omega2 = float(transmon_frequency(spec.ej_fixed, spec.ec))
    targets = omega2 + control.delta_omega[::2] * 0.009
    back = transmon_frequency(squid_ej(flux, spec.ej_max, spec.d), spec.ec)
    round_trip = float(np.max(np.abs(back - targets)))
    flux_ok = round_trip < 1e-9

    short = float(to_physical_time(1.0, 0.009))
    long = float(to_physical_time(30.0, 0.009))
    duration_ok = 10.0 <= short <= 1000.0 and 10.0 <= long <= 1000.0

    ok = freq_ok and squid_ok and flux_ok and duration_ok
    _line(
        10,
        "transmon band, SQUID tuning, flux inversion, pulse durations",
        ok,
        f"f(30, 0.203)={freq:.6f} GHz (6.777 +/- 1e-3), squid(0.5)=25.5 exact: "
        f"{squid_ok}, flux round trip={round_trip:.2e} GHz (<1e-9), "
        f"durations=({short:.1f}, {long:.1f}) ns in [10, 1000]",
    )


def test_budgets_stay_inside_bounds(decel_a, decel_b, accel, sta30, sta20, sta10):
    bundles = {
        "decel-a": decel_a,
        "decel-b": decel_b,
        "accel": accel,
        "sta30": sta30,
        "sta20": sta20,
        "sta10": sta10,
    }
    for name, b in bundles.items():
        assert b.grid.n_steps <= MAX_STEPS, f"{name} uses {b.grid.n_steps} steps"
        assert (
            0 <= b.cost.evaluations <= MAX_EVALUATIONS
        ), f"{name} used {b.cost.evaluations} optimizer evaluations"
