"""Magnification profiles, the residual map, and control synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from ffsynth import (
    BetaMap,
    DriveSchedule,
    FfstPhaseModel,
    SynthesisError,
    TimeGrid,
    TwoLevelState,
    build_beta_map,
    build_magnification,
    fidelity,
    integrate_schrodinger,
    synthesize_control,
    verify_control,
)

START = TwoLevelState(1.0 + 0.0j, 0.0j)


def _zero_path(t):
    return np.zeros_like(t)


class TestMagnification:
    @pytest.mark.parametrize("t_final", [0.9, 1.1])
    def test_profile_shape(self, t_final):
        grid = TimeGrid(0.0, t_final, 4000)
        prof = build_magnification(1.0, grid)
        assert prof.alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert prof.alpha[-1] == pytest.approx(1.0, abs=1e-12)
        assert prof.lam[0] == 0.0
        assert abs(prof.lam[-1] - 1.0) < 1e-6

    def test_alpha_symmetric_about_midpoint(self):
        grid = TimeGrid(0.0, 1.1, 4000)
        prof = build_magnification(1.0, grid)
        assert np.allclose(prof.alpha, prof.alpha[::-1], atol=1e-12)

    def test_decel_slows_and_accel_hurries(self):
        decel = build_magnification(1.0, TimeGrid(0.0, 1.1, 2000))
        accel = build_magnification(1.0, TimeGrid(0.0, 0.9, 2000))
        assert np.min(decel.alpha) < 1.0 and np.max(decel.alpha) <= 1.0 + 1e-12
        assert np.max(accel.alpha) > 1.0 and np.min(accel.alpha) >= 1.0 - 1e-12

    def test_identity_time_map_is_bitwise(self):
        grid = TimeGrid(0.0, 1.0, 2000)
        prof = build_magnification(1.0, grid)
        assert np.array_equal(prof.lam, grid.times)
        assert np.all(prof.alpha == 1.0)

    def test_lambda_monotone(self):
        prof = build_magnification(1.0, TimeGrid(0.0, 1.1, 2000))
        assert np.all(np.diff(prof.lam) > 0)


class TestResidualMap:
    def test_beta_map_shape_and_phase_axis(self, decel_a):
        bmap = build_beta_map(decel_a.model, n_phase=256, n_time=50)
        assert bmap.values.shape == (51, 256)
        assert bmap.phases[0] == pytest.approx(-np.pi)
        assert bmap.phases[-1] < np.pi  # duplicate +pi column excluded

    def test_min_phase_resolution_enforced(self, decel_a):
        with pytest.raises(ValueError):
            build_beta_map(decel_a.model, n_phase=128)

    def test_betamap_validation(self):
        with pytest.raises(ValueError):
            BetaMap(np.zeros(3), np.zeros(4), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            BetaMap(np.zeros(2), np.zeros(2), np.full((2, 2), np.nan))

    def test_residual_periodicity(self, decel_a):
        t = np.linspace(0.0, 1.1, 200)
        f = np.linspace(-3.0, 3.0, 200)
        b0 = decel_a.model.residual(t, f)
        b1 = decel_a.model.residual(t, f + 2.0 * np.pi)
        assert np.max(np.abs(b0 - b1)) < 1e-10

    def test_roots_zero_residual(self, decel_a):
        for t in (0.2, 0.55, 0.9):
            roots = decel_a.model.roots_at(t)
            for r in roots.roots:
                val = decel_a.model.residual(np.array([t]), np.array([r]))
                assert abs(val[0]) < 1e-9

    def test_map_agrees_with_direct_residual(self, decel_a):
        bmap = build_beta_map(decel_a.model, n_phase=256, n_time=20)
        k, j = 7, 100
        direct = decel_a.model.residual(
            np.array([bmap.times[k]]), np.array([bmap.phases[j]])
        )
        assert bmap.values[k, j] == pytest.approx(direct[0], abs=1e-12)


class TestSynthesis:
    def test_identity_reproduces_reference_nodes_bitwise(self, reference):
        grid = TimeGrid(0.0, 1.0, 20_000)
        prof = build_magnification(1.0, grid)
        control = synthesize_control(_zero_path, FfstPhaseModel(reference, prof))
        assert np.array_equal(control.delta_omega, reference.drive.delta_omega)
        assert np.array_equal(control.coupling, reference.drive.coupling)

    def test_trivial_scaling_round_trip(self, reference, decel_a):
        # scaling detuning AND coupling by alpha replays the reference
        prof = decel_a.prof
        alpha_half = prof.alpha_at(prof.grid.half_times)

        def scaled_coupling(t):
            return prof.alpha_at(t)

        control = synthesize_control(
            _zero_path, decel_a.model, coupling_ff=scaled_coupling
        )
        report = verify_control(control, START, reference.final_state)
        assert report.fidelity > 1.0 - 1e-8
        assert np.allclose(control.coupling, alpha_half[::2], atol=1e-12)

    def test_trivial_scaling_bracket_is_exact(self, reference, decel_a):
        # with g_ff = alpha * g the correction terms cancel identically:
        # the waveform is exactly alpha * dw(Lambda) plus the path slope
        prof = decel_a.prof
        control = synthesize_control(
            _zero_path, decel_a.model, coupling_ff=lambda t: prof.alpha_at(t)
        )
        t = prof.grid.times
        expected = prof.alpha_at(t) * np.interp(
            prof.lambda_at(t), reference.grid.times, reference.drive.delta_omega
        )
        assert np.allclose(control.delta_omega, expected, atol=1e-6)

    def test_synthesized_control_is_finite(self, decel_a, accel):
        for bundle in (decel_a, accel):
            assert np.all(np.isfinite(bundle.control.delta_omega))
            # the derivative column of control.tsv, computed as the CLI does
            derivative = np.gradient(
                bundle.control.delta_omega, bundle.grid.h, edge_order=2
            )
            assert np.all(np.isfinite(derivative))
            assert np.all(np.isfinite(bundle.control.delta_omega_mid))

    def test_singular_start_raises(self, reference, decel_a):
        # a path pinned to pi at t = 0 demands travel while the second
        # amplitude is exactly zero: the required detuning diverges
        with pytest.raises(SynthesisError, match="t = "):
            synthesize_control(lambda t: np.full_like(t, np.pi), decel_a.model)

    def test_coupling_sample_count_checked(self, reference, decel_a):
        with pytest.raises(ValueError, match="samples"):
            synthesize_control(_zero_path, decel_a.model, coupling_ff=np.ones(7))


class TestBaselines:
    def test_labels(self, decel_a):
        from ffsynth import alpha_scaled_control, naive_control

        assert naive_control(decel_a.model).label == "naive"
        assert alpha_scaled_control(decel_a.model).label == "alpha-scaled"

    def test_alpha_scaled_leaves_coupling_alone(self, decel_a):
        from ffsynth import alpha_scaled_control

        control = alpha_scaled_control(decel_a.model)
        assert np.allclose(control.coupling, 1.0, atol=1e-12)

    def test_naive_replays_reference_samples(self, reference, decel_a):
        from ffsynth import naive_control

        control = naive_control(decel_a.model)
        t = decel_a.grid.times
        expected = np.interp(
            decel_a.prof.lambda_at(t),
            reference.grid.times,
            reference.drive.delta_omega,
        )
        assert np.allclose(control.delta_omega, expected, atol=1e-6)


class TestDriveSchedule:
    def test_reintegration_round_trip(self, decel_a):
        traj = integrate_schrodinger(decel_a.control, START)
        assert fidelity(traj.final_state, decel_a.report.final_state) > 1.0 - 1e-12

    def test_validation_rejects_shape_mismatch(self, decel_a):
        c = decel_a.control
        with pytest.raises(ValueError):
            DriveSchedule(
                grid=c.grid,
                delta_omega=c.delta_omega[:-1],
                coupling=c.coupling,
            )
