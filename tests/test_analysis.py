"""Verification reports, branch-shift tracking, and structure scans."""

from __future__ import annotations

import numpy as np
import pytest

from ffsynth import (
    FidelityReport,
    TwoLevelState,
    fidelity,
    gap_direction_scan,
    global_phase_check,
    trajectory_shift_analysis,
    verify_control,
)


class TestVerifyControl:
    def test_report_consistency(self, decel_a):
        report = decel_a.report
        assert report.fidelity == pytest.approx(
            fidelity(report.final_state, decel_a.target), abs=1e-15
        )
        assert report.population_series.shape == (decel_a.grid.n_steps + 1, 2)
        assert report.control_label == "itt"

    def test_fidelity_range_validated(self):
        s = TwoLevelState(1.0 + 0.0j, 0.0j)
        with pytest.raises(ValueError):
            FidelityReport(
                fidelity=1.5,
                final_state=s,
                target_state=s,
                control_label="x",
                population_series=np.zeros((2, 2)),
            )

    def test_label_override(self, decel_a):
        report = verify_control(
            decel_a.control, decel_a.initial, decel_a.target, label="renamed"
        )
        assert report.control_label == "renamed"


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

        prof = build_magnification(1.0, TimeGrid(0.0, 1.0, 2000))
        t = np.linspace(0.0, 1.0, 300)
        beta = FfstPhaseModel(reference, prof).residual(t, np.zeros_like(t))
        assert np.max(np.abs(beta)) < 1e-9


class TestGlobalPhase:
    def test_smooth_shift_invariance(self, decel_a):
        drift = global_phase_check(
            decel_a.control,
            lambda t: 4.0 * np.cos(3.0 * t) + 2.0,
            decel_a.initial,
            decel_a.target,
        )
        assert drift < 1e-9

    def test_constant_shift_invariance(self, decel_a):
        n = decel_a.grid.n_steps
        drift = global_phase_check(
            decel_a.control, np.full(2 * n + 1, 5.0), decel_a.initial
        )
        assert drift < 1e-9


class TestPopulationRateIdentity:
    def test_rate_matches_coupling_term_second_order(self, reference):
        from ffsynth import CosineSweepSpec, TimeGrid, solve_reference

        errs = []
        for n in (2000, 4000):
            traj = solve_reference(CosineSweepSpec(30.0, 1.0), TimeGrid(0.0, 1.0, n))
            h = traj.grid.h
            p1 = np.abs(traj.phi1) ** 2
            numeric = (p1[2:] - p1[:-2]) / (2.0 * h)
            analytic = 2.0 * np.imag(np.conj(traj.phi1) * traj.phi2)[1:-1]
            errs.append(np.max(np.abs(numeric - analytic)))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0
