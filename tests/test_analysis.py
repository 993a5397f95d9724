"""Verification reports, branch-shift tracking, and structure scans."""

from __future__ import annotations

import numpy as np
import pytest
from diagnostics import gap_direction_scan, global_phase_check

from ffsynth import (
    CosineSweepSpec,
    DriveSchedule,
    FidelityReport,
    TimeGrid,
    TwoLevelState,
    VerificationError,
    build_cosine_sweep,
    fidelity,
    integrate_schrodinger,
    trajectory_shift_analysis,
    verify_control,
)
from ffsynth.zerocurves import residual


class TestVerifyControl:
    def test_report_consistency(self, decel_a):
        report = decel_a.report
        assert report.fidelity == pytest.approx(
            fidelity(report.trajectory.final_state, decel_a.target), abs=1e-15
        )
        assert report.trajectory.grid is decel_a.control.grid
        assert report.trajectory.populations().shape == (decel_a.grid.n_steps + 1, 2)

    def test_fidelity_range_validated(self, decel_a):
        trajectory = decel_a.report.trajectory
        with pytest.raises(VerificationError, match=r"outside \[0, 1\]"):
            FidelityReport(fidelity=1.5, trajectory=trajectory, step_error=0.0)
        with pytest.raises(VerificationError):
            FidelityReport(fidelity=float("nan"), trajectory=trajectory, step_error=0.0)
        FidelityReport(fidelity=1.0 + 1e-12, trajectory=trajectory, step_error=0.0)


class TestStepError:
    def test_even_grid_halves_the_samples(self, decel_a):
        """The 2h drive of an even grid is every other node/midpoint sample."""
        control, report = decel_a.control, decel_a.report
        grid = control.grid
        assert grid.n_steps % 2 == 0
        coarse = DriveSchedule(
            TimeGrid(grid.t_end, grid.n_steps // 2),
            control.delta_omega[::2],
            control.coupling[::2],
        )
        end = integrate_schrodinger(coarse, decel_a.initial).final_state
        want = abs(report.fidelity - fidelity(end, decel_a.target))
        assert report.step_error == want

    @pytest.mark.parametrize("n_steps", [1, 3, 2001])
    def test_odd_grid_takes_its_last_step_at_h(self, n_steps):
        grid = TimeGrid(1.0, n_steps)
        drive = build_cosine_sweep(CosineSweepSpec(30.0, 1.0), grid)
        start = TwoLevelState(1.0 + 0.0j, 0.0j)
        target = integrate_schrodinger(drive, start).final_state
        report = verify_control(drive, start, target)
        state = start
        if n_steps > 1:
            m = n_steps // 2
            head = DriveSchedule(
                TimeGrid(1.0 - grid.h, m),
                drive.delta_omega[: 4 * m + 1 : 2],
                drive.coupling[: 4 * m + 1 : 2],
            )
            state = integrate_schrodinger(head, state).final_state
        tail = DriveSchedule(TimeGrid(grid.h, 1), drive.delta_omega[-3:], drive.coupling[-3:])
        end = integrate_schrodinger(tail, state).final_state
        assert report.step_error == abs(report.fidelity - fidelity(end, target))
        if n_steps == 1:
            assert report.step_error == 0.0
        if n_steps == 2001:
            assert 0.0 < report.step_error < 1e-9

    def test_flags_the_overlap_jump(self, accel, accel_overlap):
        """At T_F = 0.75 overlapping bridge windows leave a jump in the itt
        control that no grid resolves; its estimate is at least ten times
        that of the shipped T_F = 0.9."""
        assert accel_overlap.report.step_error >= 10.0 * accel.report.step_error


class TestShiftAnalysis:
    def test_single_crossing_shifts_once(self, reference, decel_a):
        series = trajectory_shift_analysis(
            decel_a.report.trajectory, decel_a.scts, decel_a.model
        )
        assert series.shift_count == 1
        assert abs(series.shift_times[0] - decel_a.plan.crossings[0][0]) < 0.02

    def test_triple_crossing_shifts_three_times(self, reference, decel_b):
        series = trajectory_shift_analysis(
            decel_b.report.trajectory, decel_b.scts, decel_b.model
        )
        assert series.shift_count == 3

    def test_stride_stability(self, reference, decel_a):
        counts = set()
        for stride in (7, 10, 13):
            series = trajectory_shift_analysis(
                decel_a.report.trajectory,
                decel_a.scts,
                decel_a.model,
                stride=stride,
            )
            counts.add(series.shift_count)
        assert counts == {1}

    def test_dominance_sequence(self, reference, decel_b):
        series = trajectory_shift_analysis(
            decel_b.report.trajectory, decel_b.scts, decel_b.model
        )
        labels = [d for d in series.dominant if d]
        # starts on X, ends on Y after an odd number of swaps
        assert labels[0] == "X"
        assert labels[-1] == "Y"

    def test_requires_labeled_branches(self, reference, accel):
        with pytest.raises(ValueError, match="X and Y"):
            trajectory_shift_analysis(accel.report.trajectory, accel.scts, accel.model)


@pytest.fixture(scope="module")
def scan(reference):
    return gap_direction_scan(reference)


class TestGapDirectionScan:
    def test_classifications(self, scan):
        assert scan[1.0].classification == "reference"
        assert scan[0.9].classification == "vertical"
        assert scan[0.95].classification == "vertical"
        assert scan[1.1].classification == "horizontal"
        assert scan[1.05].classification == "horizontal"

    def test_speedup_rootless_intervals(self, scan):
        intervals = scan[0.9].zero_intervals
        assert len(intervals) == 3
        for (lo, _), target in zip(intervals, (0.5, 0.7, 0.8)):
            assert abs(lo - target) < 0.05

    def test_slowdown_keeps_roots(self, scan):
        counts = scan[1.1].counts
        assert not np.any(counts[1:-1] == 0)
        assert np.all(np.isin(counts, (-1, 0, 1, 2)))

    def test_reference_keeps_zero_path(self, scan, reference, decel_a):
        # on the unscaled run the zero path solves the residual everywhere
        from ffsynth import FfstPhaseModel, build_magnification, TimeGrid

        prof = build_magnification(1.0, TimeGrid(1.0, 2000))
        t = np.linspace(0.0, 1.0, 300)
        beta = residual(*FfstPhaseModel(reference, prof).sine_params(t), np.zeros_like(t))
        assert np.max(np.abs(beta)) < 1e-9


class TestGlobalPhase:
    def test_smooth_shift_invariance(self, decel_a):
        t = decel_a.grid.half_times
        drift = global_phase_check(
            decel_a.control, 4.0 * np.cos(3.0 * t) + 2.0, decel_a.initial, decel_a.target
        )
        assert drift < 1e-9

    def test_constant_shift_invariance(self, decel_a):
        n = decel_a.grid.n_steps
        drift = global_phase_check(
            decel_a.control, np.full(2 * n + 1, 5.0), decel_a.initial
        )
        assert drift < 1e-9

    def test_wrongly_sized_shift_raises(self, decel_a):
        n = decel_a.grid.n_steps
        with pytest.raises(ValueError, match="common_shift must have"):
            global_phase_check(decel_a.control, np.full(n + 1, 5.0), decel_a.initial)


class TestPopulationRateIdentity:
    def test_rate_matches_coupling_term_second_order(self, reference):
        from ffsynth import CosineSweepSpec, TimeGrid, solve_reference

        errs = []
        for n in (2000, 4000):
            traj = solve_reference(CosineSweepSpec(30.0, 1.0), TimeGrid(1.0, n))
            h = traj.grid.h
            p1 = np.abs(traj.phi1) ** 2
            numeric = (p1[2:] - p1[:-2]) / (2.0 * h)
            analytic = 2.0 * np.imag(np.conj(traj.phi1) * traj.phi2)[1:-1]
            errs.append(np.max(np.abs(numeric - analytic)))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0
