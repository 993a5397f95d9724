"""Eigenstate-following sweeps: eigenpairs, targets, and synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from ffsynth import (
    CosineSweepSpec,
    MagnificationProfile,
    StaPhaseModel,
    SynthesisError,
    TimeGrid,
    TwoLevelState,
    adiabatic_target,
    fidelity,
    integrate_schrodinger,
    synthesize_sta_control,
)
from ffsynth.sta import eigenstate
from ffsynth.zerocurves import residual, root_table


def _hamiltonian(delta_omega: float, g: float = 1.0) -> np.ndarray:
    return np.array([[delta_omega, g], [g, 0.0]])


def _eigenpair(dw: float, branch: str):
    """(energy, eigenvector) of H at detuning ``dw``: the eigenstate (u, v) at
    t = 0 of a sweep starting at ``dw`` for the upper branch, and its
    orthogonal complement (-v, u) for the lower one."""
    u, v = eigenstate(CosineSweepSpec(dw, 1.0), 0.0)
    half = 0.5 * dw
    if branch == "upper":
        return half + np.hypot(half, 1.0), np.array([u, v])
    return half - np.hypot(half, 1.0), np.array([-v, u])


class TestEigenpair:
    @pytest.mark.parametrize("dw", [-40.0, -3.0, 0.0, 0.7, 25.0])
    @pytest.mark.parametrize("branch", ["upper", "lower"])
    def test_eigen_residual(self, dw, branch):
        energy, vec = _eigenpair(dw, branch)
        res = _hamiltonian(dw) @ vec - energy * vec
        assert np.max(np.abs(res)) < 1e-12
        assert np.hypot(*vec) == pytest.approx(1.0, abs=1e-12)

    def test_branch_ordering_and_orthogonality(self):
        up_energy, up = _eigenpair(5.0, "upper")
        lo_energy, lo = _eigenpair(5.0, "lower")
        assert up_energy > lo_energy
        assert abs(up @ lo) < 1e-12

    def test_no_sign_flips_along_sweep(self):
        spec = CosineSweepSpec(30.0, 20.0)
        t = np.linspace(0.0, 20.0, 5001)
        u, v = eigenstate(spec, t)
        assert np.all(u > 0.0)
        assert np.all(v > 0.0)
        assert np.max(np.abs(np.diff(u))) < 0.05  # continuous, no branch jumps


class TestAdiabaticTarget:
    def test_matches_closed_form_eigenstate(self):
        spec = CosineSweepSpec(30.0, 30.0)
        target = adiabatic_target(spec)
        _, vecs = np.linalg.eigh(_hamiltonian(spec.delta_omega(30.0)))
        u, v = vecs[:, -1]  # the upper eigenvalue comes last
        p1, p2 = target.populations()
        assert p1 == pytest.approx(u**2, abs=1e-12)
        assert p2 == pytest.approx(v**2, abs=1e-12)

    def test_population_values(self):
        # final detuning -30: the upper eigenstate is nearly the bare
        # second level, chi = atan2(1, -15) / 2
        spec = CosineSweepSpec(30.0, 30.0)
        p1, p2 = adiabatic_target(spec).populations()
        chi = 0.5 * np.arctan2(1.0, -15.0)
        assert p1 == pytest.approx(np.cos(chi) ** 2, abs=1e-12)
        # half-angle form: cos^2(chi) = (1 - 15 / sqrt(226)) / 2
        assert p1 == pytest.approx(0.0011074, abs=1e-6)
        assert p2 == pytest.approx(0.9988926, abs=1e-6)

    @pytest.mark.parametrize("dw0, duration", [(30.0, 30.0), (30.0, 10.0), (7.5, 3.0)])
    def test_is_the_end_eigenstate_bitwise(self, dw0, duration):
        spec = CosineSweepSpec(dw0, duration)
        target = adiabatic_target(spec)
        expected = TwoLevelState(*eigenstate(spec, duration))
        assert np.array([target.phi1, target.phi2]).tobytes() == (
            np.array([expected.phi1, expected.phi2]).tobytes()
        )

    @pytest.mark.parametrize("name", ["sta30", "sta10"])
    def test_phase_leaves_the_fidelity(self, request, name):
        # oracle: the end eigenstate times exp(-i theta), theta the trapezoid
        # of the upper eigenvalue over the control grid; fidelity is |<a|b>|
        bundle = request.getfixturevalue(name)
        spec, t = bundle.sweep, bundle.grid.times
        half = 0.5 * spec.delta_omega(t)
        theta = float(np.trapezoid(half + np.hypot(half, 1.0), t))
        u, v = eigenstate(spec, spec.duration)
        phased = TwoLevelState(u * np.exp(-1j * theta), v * np.exp(-1j * theta))
        assert bundle.target == adiabatic_target(spec)
        for report in (bundle.report, bundle.report_unmodified):
            old = fidelity(report.trajectory.final_state, phased)
            assert abs(report.fidelity - old) <= 2.3e-16


class TestStaResidual:
    def test_phase_offset_is_zero(self):
        model = StaPhaseModel(CosineSweepSpec(30.0, 20.0))
        _, _, phi0 = model.sine_params(np.linspace(0.0, 20.0, 100))
        assert np.all(phi0 == 0.0)

    def test_zero_path_residual_matches_direct_formula(self):
        model = StaPhaseModel(CosineSweepSpec(30.0, 20.0))
        t = np.linspace(0.0, 20.0, 500)
        c, d, phi0 = model.sine_params(t)
        assert np.allclose(residual(c, d, phi0, np.zeros_like(t)), c, atol=1e-14)
        assert np.all(d >= 0.0)

    @pytest.mark.parametrize("duration", [10.0, 20.0])
    def test_root_count_two_zero_two(self, duration):
        model = StaPhaseModel(CosineSweepSpec(30.0, duration))
        t = np.linspace(0.01, duration - 0.01, 801)
        counts = np.maximum(root_table(*model.sine_params(t))[2], 0)
        assert counts[0] == 2 and counts[-1] == 2
        assert np.any(counts == 0)
        # one contiguous rootless window: pattern is 2 -> 0 -> 2
        changes = np.flatnonzero(np.diff((counts == 0).astype(int)))
        assert len(changes) == 2

    def test_root_count_stays_two_for_long_sweep(self):
        model = StaPhaseModel(CosineSweepSpec(30.0, 30.0))
        t = np.linspace(0.01, 29.99, 801)
        counts = np.maximum(root_table(*model.sine_params(t))[2], 0)
        assert all(c == 2 for c in counts)


class TestStaSynthesis:
    def test_zero_path_reproduces_sweep_bitwise(self):
        spec = CosineSweepSpec(30.0, 20.0)
        grid = TimeGrid(20.0, 4000)
        model = StaPhaseModel(spec)
        control = synthesize_sta_control(np.zeros_like(grid.half_times), model, grid)
        # the synthesis samples the sweep on the interleaved half grid, so
        # the bitwise claim is made against that same sampling
        sweep = np.asarray(spec.delta_omega(grid.half_times))
        assert np.array_equal(control.delta_omega[::2], sweep[::2])
        assert np.array_equal(control.delta_omega[1::2], sweep[1::2])
        assert np.all(control.coupling == 1.0)

    def test_path_sample_count_checked(self):
        grid = TimeGrid(20.0, 4000)
        model = StaPhaseModel(CosineSweepSpec(30.0, 20.0))
        with pytest.raises(
            ValueError,
            match=r"path must have 8001 node/midpoint samples, got \(4001,\)",
        ):
            synthesize_sta_control(np.zeros_like(grid.times), model, grid)

    def test_state_derivative_identity_second_order(self):
        # d phi1 / dt must match -i (dw phi1 + g phi2) to O(h^2) when the
        # derivative is formed by central differences of the trajectory
        spec = CosineSweepSpec(30.0, 1.0)
        errs = []
        for n in (2000, 4000):
            grid = TimeGrid(1.0, n)
            model = StaPhaseModel(spec)
            control = synthesize_sta_control(np.zeros_like(grid.half_times), model, grid)
            initial = TwoLevelState(*eigenstate(spec, 0.0))
            traj = integrate_schrodinger(control, initial)
            h = grid.h
            numeric = (traj.phi1[2:] - traj.phi1[:-2]) / (2.0 * h)
            dw = control.delta_omega[::2][1:-1]
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
            assert abs(0.5 * (gap.t_start + gap.t_end) - mid) < 0.5


def _closed_form_control(path, model, grid):
    """The sta detuning dw + (v/u - u/v)(1 - cos f2) + f2' on ``grid`` in
    its own closed form, with g = 1 and no singular-sample filling: the
    oracle for the shared FFST synthesis at alpha = 1."""
    th = grid.half_times
    u, v = eigenstate(model.spec, th)
    df2 = np.gradient(path, th[1] - th[0], edge_order=2)
    return model.spec.delta_omega(th) + (v / u - u / v) * (1.0 - np.cos(path)) + df2


class TestSharedSynthesis:
    @pytest.mark.parametrize("name", ["sta30", "sta20", "sta10"])
    def test_matches_closed_form_within_8_ulp(self, request, name):
        bundle = request.getfixturevalue(name)
        oracle = _closed_form_control(bundle.vt.f2_lift, bundle.model, bundle.grid)
        ulp = np.spacing(np.maximum(np.abs(oracle), 1.0))
        assert np.all(np.abs(bundle.control.delta_omega - oracle) <= 8.0 * ulp)
        assert np.all(bundle.control.coupling == 1.0)

    def test_states_are_the_real_eigenstate(self, sta20):
        """The reference amplitudes stay real: the shared synthesis divides
        float64 arrays, not complex copies of them."""
        th = sta20.grid.half_times
        u, v = sta20.model.states_at(th)
        assert u.dtype == v.dtype == np.float64
        expected = eigenstate(sta20.model.spec, th)
        assert np.array_equal(u, expected[0]) and np.array_equal(v, expected[1])

    def test_identity_magnification(self, sta20):
        prof = sta20.model.prof
        th = sta20.grid.half_times
        assert prof == MagnificationProfile(20.0, 20.0)
        assert np.all(prof.alpha_at(th) == 1.0)
        assert np.array_equal(prof.lambda_at(th), th)

    def test_grid_must_span_the_sweep(self, sta20):
        """The model holds no grid; the synthesis checks the one it is
        given against the sweep's [0, 20]."""
        grid = TimeGrid(10.0, 4000)
        want = r"grid \[0, 10\.0\] must span \[0, 20\.0\]"
        with pytest.raises(ValueError, match=want):
            synthesize_sta_control(np.zeros_like(grid.half_times), sta20.model, grid)


class TestSingularFloor:
    """At delta_omega0 = 1e7 the eigenstate's |v(0)| is about 1e-7: below
    the shared floor ``SINGULAR_POPULATION`` (1e-6), above the 1e-9 that
    the sta closed form used to apply."""

    GRID = TimeGrid(10.0, 4000)

    @pytest.fixture
    def model(self):
        return StaPhaseModel(CosineSweepSpec(1e7, 10.0))

    def test_amplitude_lies_between_the_floors(self, model):
        u, v = eigenstate(model.spec, 0.0)
        assert 1e-9 < abs(v) < 1e-6

    def test_zero_path_returns_the_sweep_bitwise(self, model):
        th = self.GRID.half_times
        control = synthesize_sta_control(np.zeros_like(th), model, self.GRID)
        assert np.array_equal(control.delta_omega, model.spec.delta_omega(th))

    def test_nonzero_path_is_not_scalable(self, model):
        path = np.full_like(self.GRID.half_times, 0.5)
        # the closed form alone returns a finite control here
        assert np.all(np.isfinite(_closed_form_control(path, model, self.GRID)))
        with pytest.raises(SynthesisError, match=r"not scalable at t = 0:"):
            synthesize_sta_control(path, model, self.GRID)


class TestDefaultGridResolution:
    def test_long_run_takes_the_step_floor(self, sta300):
        assert sta300.grid.n_steps == 20_000
        assert sta300.grid.h == 1.5e-2

    def test_four_times_the_steps_moves_f_below_1e10(self, sta300, sta300_fine):
        """The fidelity against steps at the longest duration on the step
        floor: the default grid agrees with four times its steps."""
        f, f_fine = sta300.report.fidelity, sta300_fine.report.fidelity
        assert abs(f - f_fine) < 1e-10
        assert sta300.report.step_error < 1e-10
