"""Eigenstate-following sweeps: eigenpairs, targets, and synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from ffsynth import (
    CosineSweepSpec,
    StaPhaseModel,
    TimeGrid,
    adiabatic_target,
    eigenpair,
    synthesize_sta_control,
)


def _hamiltonian(delta_omega: float, g: float = 1.0) -> np.ndarray:
    return np.array([[delta_omega, g], [g, 0.0]])


class TestEigenpair:
    @pytest.mark.parametrize("dw", [-40.0, -3.0, 0.0, 0.7, 25.0])
    @pytest.mark.parametrize("branch", ["upper", "lower"])
    def test_eigen_residual(self, dw, branch):
        pair = eigenpair(dw, branch)
        vec = np.array([pair.u, pair.v])
        residual = _hamiltonian(dw) @ vec - pair.energy * vec
        assert np.max(np.abs(residual)) < 1e-12
        assert np.hypot(pair.u, pair.v) == pytest.approx(1.0, abs=1e-12)

    def test_branch_ordering_and_orthogonality(self):
        up = eigenpair(5.0, "upper")
        lo = eigenpair(5.0, "lower")
        assert up.energy > lo.energy
        assert abs(up.u * lo.u + up.v * lo.v) < 1e-12

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            eigenpair(1.0, "middle")

    def test_no_sign_flips_along_sweep(self):
        spec = CosineSweepSpec(30.0, 20.0)
        model = StaPhaseModel(spec)
        t = np.linspace(0.0, 20.0, 5001)
        u, v, _ = model._angles(t)
        assert np.all(u > 0.0)
        assert np.all(v > 0.0)
        assert np.max(np.abs(np.diff(u))) < 0.05  # continuous, no branch jumps


class TestAdiabaticTarget:
    def test_matches_closed_form_eigenstate(self):
        spec = CosineSweepSpec(30.0, 30.0)
        target = adiabatic_target(spec)
        end = eigenpair(spec.delta_omega(30.0), "upper")
        p1, p2 = target.state.populations()
        assert p1 == pytest.approx(end.u**2, abs=1e-12)
        assert p2 == pytest.approx(end.v**2, abs=1e-12)

    def test_population_values(self):
        # final detuning -30: the upper eigenstate is nearly the bare
        # second level, chi = atan2(1, -15) / 2
        spec = CosineSweepSpec(30.0, 30.0)
        p1, p2 = adiabatic_target(spec).state.populations()
        chi = 0.5 * np.arctan2(1.0, -15.0)
        assert p1 == pytest.approx(np.cos(chi) ** 2, abs=1e-12)
        # half-angle form: cos^2(chi) = (1 - 15 / sqrt(226)) / 2
        assert p1 == pytest.approx(0.0011074, abs=1e-6)
        assert p2 == pytest.approx(0.9988926, abs=1e-6)

    def test_phase_integral_positive_and_stable(self):
        spec = CosineSweepSpec(30.0, 10.0)
        coarse = adiabatic_target(spec, TimeGrid(0.0, 10.0, 20_000))
        fine = adiabatic_target(spec, TimeGrid(0.0, 10.0, 80_000))
        assert coarse.phase_integral > 0
        assert coarse.phase_integral == pytest.approx(
            fine.phase_integral, abs=1e-8
        )


class TestStaResidual:
    def test_phase_offset_is_zero(self):
        model = StaPhaseModel(CosineSweepSpec(30.0, 20.0))
        _, _, phi0 = model.sine_params(np.linspace(0.0, 20.0, 100))
        assert np.all(phi0 == 0.0)

    def test_zero_path_residual_matches_direct_formula(self):
        model = StaPhaseModel(CosineSweepSpec(30.0, 20.0))
        t = np.linspace(0.0, 20.0, 500)
        c, d, _ = model.sine_params(t)
        assert np.allclose(model.residual(t, np.zeros_like(t)), c, atol=1e-14)
        assert np.all(d >= 0.0)

    @pytest.mark.parametrize("duration", [10.0, 20.0])
    def test_root_count_two_zero_two(self, duration):
        model = StaPhaseModel(CosineSweepSpec(30.0, duration))
        t = np.linspace(0.01, duration - 0.01, 801)
        counts = np.array([len(model.roots_at(tt).roots) for tt in t])
        assert counts[0] == 2 and counts[-1] == 2
        assert np.any(counts == 0)
        # one contiguous rootless window: pattern is 2 -> 0 -> 2
        changes = np.flatnonzero(np.diff((counts == 0).astype(int)))
        assert len(changes) == 2

    def test_root_count_stays_two_for_long_sweep(self):
        model = StaPhaseModel(CosineSweepSpec(30.0, 30.0))
        t = np.linspace(0.01, 29.99, 801)
        counts = [len(model.roots_at(tt).roots) for tt in t]
        assert all(c == 2 for c in counts)


class TestStaSynthesis:
    def test_zero_path_reproduces_sweep_bitwise(self):
        spec = CosineSweepSpec(30.0, 20.0)
        model = StaPhaseModel(spec)
        grid = TimeGrid(0.0, 20.0, 4000)
        control = synthesize_sta_control(None, model, grid)
        # the synthesis samples the sweep on the interleaved half grid, so
        # the bitwise claim is made against that same sampling
        sweep = np.asarray(spec.delta_omega(grid.half_times))
        assert np.array_equal(control.delta_omega, sweep[::2])
        assert np.array_equal(control.delta_omega_mid, sweep[1::2])
        assert np.all(control.coupling == 1.0)

    def test_state_derivative_identity_second_order(self):
        # d phi1 / dt must match -i (dw phi1 + g phi2) to O(h^2) when the
        # derivative is formed by central differences of the trajectory
        from ffsynth import TwoLevelState, integrate_schrodinger

        spec = CosineSweepSpec(30.0, 1.0)
        model = StaPhaseModel(spec)
        errs = []
        for n in (2000, 4000):
            grid = TimeGrid(0.0, 1.0, n)
            control = synthesize_sta_control(None, model, grid)
            traj = integrate_schrodinger(control, model.initial_state())
            h = grid.h
            numeric = (traj.phi1[2:] - traj.phi1[:-2]) / (2.0 * h)
            dw = control.delta_omega[1:-1]
            analytic = -1j * (dw * traj.phi1[1:-1] + traj.phi2[1:-1])
            errs.append(np.max(np.abs(numeric - analytic)))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_detached_runs_have_one_gap(self, sta20, sta10):
        for bundle in (sta20, sta10):
            assert len(bundle.gaps) == 1
            assert bundle.settings.mode == "detached"
            assert bundle.plan.n_bridges == 1

    def test_connected_run_keeps_branch(self, sta30):
        assert sta30.gaps == []
        assert sta30.plan.n_bridges == 0
        assert sta30.vt.bridge_mode == "local"
        assert sta30.cost.evaluations == 0

    def test_gap_position_scales_with_duration(self, sta20, sta10):
        for bundle, mid in ((sta20, 10.0), (sta10, 5.0)):
            gap = bundle.gaps[0]
            assert abs(gap.midpoint - mid) < 0.5
