"""Magnification profiles, the residual map, and control synthesis."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ffsynth import (
    DriveSchedule,
    FfstPhaseModel,
    MagnificationProfile,
    SynthesisError,
    TimeGrid,
    TwoLevelState,
    alpha_scaled_control,
    fidelity,
    integrate_schrodinger,
    naive_control,
    synthesize_control,
    verify_control,
)
from ffsynth import ffst
from ffsynth.cli import _write_residual
from ffsynth.zerocurves import ScanError, residual, root_table

from diagnostics import beta_map_from_residual

START = TwoLevelState(1.0 + 0.0j, 0.0j)


def _sampled_profile(t_ref, grid):
    """The sampled alpha and trapezoid-accumulated Lambda that the closed
    form replaces, kept as the oracle."""
    t_f = grid.t_end
    t = grid.times
    alpha = 1.0 - ((t_f - t_ref) / t_f) * (1.0 - np.cos(2.0 * np.pi * t / t_f))
    h = grid.h
    lam = np.concatenate(([0.0], np.cumsum(0.5 * (alpha[1:] + alpha[:-1]) * h)))
    return alpha, lam


class TestMagnification:
    @pytest.mark.parametrize("t_final", [0.9, 1.1])
    def test_profile_shape(self, t_final):
        grid = TimeGrid(t_final, 4000)
        prof = MagnificationProfile(1.0, t_final)
        alpha = prof.alpha_at(grid.times)
        lam = prof.lambda_at(grid.times)
        assert alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert alpha[-1] == pytest.approx(1.0, abs=1e-12)
        assert lam[0] == 0.0
        assert abs(lam[-1] - 1.0) < 1e-6

    def test_alpha_symmetric_about_midpoint(self):
        grid = TimeGrid(1.1, 4000)
        alpha = MagnificationProfile(1.0, 1.1).alpha_at(grid.times)
        assert np.allclose(alpha, alpha[::-1], atol=1e-12)

    def test_decel_slows_and_accel_hurries(self):
        grid_d = TimeGrid(1.1, 2000)
        grid_a = TimeGrid(0.9, 2000)
        decel = MagnificationProfile(1.0, 1.1).alpha_at(grid_d.times)
        accel = MagnificationProfile(1.0, 0.9).alpha_at(grid_a.times)
        assert np.min(decel) < 1.0 and np.max(decel) <= 1.0 + 1e-12
        assert np.max(accel) > 1.0 and np.min(accel) >= 1.0 - 1e-12

    def test_identity_time_map_is_bitwise(self):
        grid = TimeGrid(1.0, 2000)
        prof = MagnificationProfile(1.0, 1.0)
        assert np.array_equal(prof.lambda_at(grid.times), grid.times)
        assert np.all(prof.alpha_at(grid.times) == 1.0)

    def test_lambda_monotone(self):
        grid = TimeGrid(1.1, 2000)
        lam = MagnificationProfile(1.0, 1.1).lambda_at(grid.times)
        assert np.all(np.diff(lam) > 0)

    @pytest.mark.parametrize(
        "t_final, n_steps", [(0.9, 2000), (0.9, 20_000), (1.1, 20_000)]
    )
    def test_matches_sampled_profile(self, t_final, n_steps):
        # alpha is the sampled expression at the nodes; Lambda differs from
        # the trapezoid sum by at most its error bound t h^2 max|alpha''| / 12.
        # The first interval attains that bound to about 1e-7 relative, so
        # the two sums' rounding (under an ulp of t) is allowed on top.
        grid = TimeGrid(t_final, n_steps)
        prof = MagnificationProfile(1.0, t_final)
        alpha, lam_trap = _sampled_profile(1.0, grid)
        assert np.array_equal(prof.alpha_at(grid.times), alpha)
        k = (t_final - 1.0) / t_final
        max_curvature = abs(k) * (2.0 * np.pi / t_final) ** 2
        bound = grid.times * grid.h**2 * max_curvature / 12.0
        bound += 4 * np.spacing(grid.times)
        assert np.all(np.abs(prof.lambda_at(grid.times) - lam_trap) <= bound)


def _rebuilt_map(model, tmp_path):
    """The ln|beta| map rebuilt from the ``residual.tsv`` a run writes."""
    path = tmp_path / "residual.tsv"
    _write_residual(str(path), model)
    return beta_map_from_residual(str(path), model.t_final)


class TestResidualMap:
    def test_beta_map_shape_and_phase_axis(self, decel_a, tmp_path):
        times, phases, ln_beta = _rebuilt_map(decel_a.model, tmp_path)
        assert ln_beta.shape == (501, 512)
        assert np.array_equal(times, np.linspace(0.0, 1.1, 501))
        assert phases[0] == -np.pi
        assert phases[-1] < np.pi  # duplicate +pi column excluded

    def test_residual_table_rejects_non_finite_parameters(self, decel_a, tmp_path):
        class Poisoned:
            t_final = decel_a.model.t_final

            def sine_params(self, t):
                c, d, phi0 = decel_a.model.sine_params(t)
                return c, d, np.where(np.arange(len(t)) == 250, np.inf, phi0)

        path = tmp_path / "residual.tsv"
        with pytest.raises(ScanError, match=r"residual phi0 is not finite at t = 0\.55$"):
            _write_residual(str(path), Poisoned())
        assert not path.exists()

    def test_residual_periodicity(self, decel_a):
        t = np.linspace(0.0, 1.1, 200)
        f = np.linspace(-3.0, 3.0, 200)
        c, d, phi0 = decel_a.model.sine_params(t)
        b0 = residual(c, d, phi0, f)
        b1 = residual(c, d, phi0, f + 2.0 * np.pi)
        assert np.max(np.abs(b0 - b1)) < 1e-10

    def test_roots_zero_residual(self, decel_a):
        params = decel_a.model.sine_params(np.array([0.2, 0.55, 0.9]))
        for roots in root_table(*params)[:2]:
            val = residual(*params, roots)
            assert np.all(np.abs(val[~np.isnan(roots)]) < 1e-9)

    @pytest.mark.parametrize("bundle", ["decel_a", "accel", "sta20"])
    def test_map_samples_the_one_residual(self, bundle, request, tmp_path):
        """The map rebuilt from ``residual.tsv`` is ln|beta| of either model's
        ``sine_params`` on the 501 x 512 grid, bit for bit."""
        model = request.getfixturevalue(bundle).model
        times, phases, ln_beta = _rebuilt_map(model, tmp_path)
        t = np.linspace(0.0, model.t_final, 501)
        f2 = -np.pi + 2.0 * np.pi * np.arange(512) / 512
        c, d, phi0 = model.sine_params(t)
        beta = c[:, None] - d[:, None] * np.sin(f2[None, :] + phi0[:, None])
        assert np.array_equal(times, t)
        assert np.array_equal(phases, f2)
        assert np.array_equal(ln_beta, np.log(np.maximum(np.abs(beta), 1e-14)))

    def test_map_agrees_with_direct_residual(self, decel_a, tmp_path):
        times, phases, ln_beta = _rebuilt_map(decel_a.model, tmp_path)
        k, j = 7, 100
        direct = residual(
            *decel_a.model.sine_params(np.array([times[k]])), np.array([phases[j]])
        )
        assert ln_beta[k, j] == pytest.approx(np.log(abs(direct[0])), abs=1e-12)


def _one_pass_control(path, model, grid, coupling_ff=None):
    """The synthesis with every bracket array alive at once, as it was
    written before the two terms were taken one after the other, with the
    reference coupling g_ref = 1 as an array: the oracle for the
    detuning's bits."""
    prof = model.prof
    th = grid.half_times
    alpha = prof.alpha_at(th)
    lam = prof.lambda_at(th)
    p1, p2 = model.states_at(lam)
    g_ref = np.ones_like(th)
    g_ff = np.asarray(g_ref, dtype=float) if coupling_ff is None else coupling_ff
    df2 = np.gradient(path, th[1] - th[0], edge_order=2)
    eif = np.exp(1j * path)
    br1 = alpha * g_ref - g_ff * eif
    br2 = alpha * g_ref - g_ff * np.conj(eif)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (p2 / p1 * br1).real
        t2 = (p1 / p2 * br2).real
    t1[np.abs(br1) == 0.0] = 0.0
    t2[np.abs(br2) == 0.0] = 0.0
    dw = t1 - t2 + alpha * model.delta_omega_at(lam) + df2
    scale = 1.0 + np.abs(alpha * g_ref) + np.abs(g_ff)
    sing1 = (np.abs(p1) < ffst.SINGULAR_POPULATION) & (np.abs(br1) != 0.0)
    sing2 = (np.abs(p2) < ffst.SINGULAR_POPULATION) & (np.abs(br2) != 0.0)
    bad = sing1 | sing2 | ~np.isfinite(dw)
    brackets = np.zeros(len(th))
    brackets[sing1] = np.abs(br1[sing1]) / scale[sing1]
    brackets[sing2] = np.maximum(brackets[sing2], np.abs(br2[sing2]) / scale[sing2])
    return ffst._fill_singular(th, dw, bad, brackets), g_ff


class TestSynthesis:
    @pytest.mark.parametrize("name", ["accel", "decel_a", "sta30", "sta20", "sta10"])
    @pytest.mark.parametrize("coupling", ["reference", "alpha-scaled"])
    def test_matches_one_pass_formula_bitwise(self, request, name, coupling):
        """On the run's grid and, with the run's one model, at twice its
        step: the path's every other sample on half the steps."""
        bundle = request.getfixturevalue(name)
        coarse = TimeGrid(bundle.grid.t_end, bundle.grid.n_steps // 2)
        lift = bundle.vt.f2_lift
        for grid, lift in ((bundle.grid, lift), (coarse, lift[::2])):
            g_ff = None
            if coupling == "alpha-scaled":
                # g_ff = alpha g on a zero path: every bracket vanishes exactly
                g_ff = bundle.model.prof.alpha_at(grid.half_times)
            path = lift if g_ff is None else np.zeros_like(g_ff)
            control = synthesize_control(path, bundle.model, grid, coupling_ff=g_ff)
            dw, coupling_ff = _one_pass_control(path, bundle.model, grid, g_ff)
            assert control.grid is grid
            assert np.array_equal(control.delta_omega, dw)
            assert np.array_equal(control.coupling, coupling_ff)

    def test_identity_reproduces_reference_nodes_bitwise(self, reference):
        grid = TimeGrid(1.0, 20_000)
        prof = MagnificationProfile(1.0, 1.0)
        zero = np.zeros_like(grid.half_times)
        control = synthesize_control(zero, FfstPhaseModel(reference, prof), grid)
        assert np.array_equal(control.delta_omega[::2], reference.drive.delta_omega[::2])
        assert np.array_equal(control.coupling[::2], reference.drive.coupling[::2])

    def test_trivial_scaling_round_trip(self, reference, decel_a):
        # scaling detuning AND coupling by alpha replays the reference
        alpha_half = decel_a.prof.alpha_at(decel_a.grid.half_times)
        zero = np.zeros_like(alpha_half)
        control = synthesize_control(zero, decel_a.model, decel_a.grid, alpha_half)
        report = verify_control(control, START, reference.final_state)
        assert report.fidelity > 1.0 - 1e-8
        assert np.allclose(control.coupling[::2], alpha_half[::2], atol=1e-12)

    def test_trivial_scaling_bracket_is_exact(self, reference, decel_a):
        # with g_ff = alpha * g the correction terms cancel identically:
        # the waveform is exactly alpha * dw(Lambda) plus the path slope
        prof = decel_a.prof
        alpha_half = prof.alpha_at(decel_a.grid.half_times)
        zero = np.zeros_like(alpha_half)
        control = synthesize_control(zero, decel_a.model, decel_a.grid, alpha_half)
        t = decel_a.grid.times
        expected = prof.alpha_at(t) * np.interp(
            prof.lambda_at(t), reference.grid.times, reference.drive.delta_omega[::2]
        )
        assert np.allclose(control.delta_omega[::2], expected, atol=1e-6)

    def test_synthesized_control_is_finite(self, decel_a, accel):
        for bundle in (decel_a, accel):
            assert np.all(np.isfinite(bundle.control.delta_omega))
            # the derivative column of control.tsv, computed as the CLI does
            derivative = np.gradient(
                bundle.control.delta_omega[::2], bundle.grid.h, edge_order=2
            )
            assert np.all(np.isfinite(derivative))
            assert np.all(np.isfinite(bundle.control.delta_omega[1::2]))

    def test_singular_start_raises(self, reference, decel_a):
        # a path pinned to pi at t = 0 demands travel while the second
        # amplitude is exactly zero: the required detuning diverges
        with pytest.raises(SynthesisError, match="t = "):
            synthesize_control(
                np.full_like(decel_a.grid.half_times, np.pi), decel_a.model, decel_a.grid
            )

    def test_coupling_sample_count_checked(self, reference, decel_a):
        zero = np.zeros_like(decel_a.grid.half_times)
        with pytest.raises(ValueError, match="samples"):
            synthesize_control(zero, decel_a.model, decel_a.grid, coupling_ff=np.ones(7))

    @pytest.mark.parametrize("arg", ["path", "coupling_ff"])
    def test_node_samples_rejected(self, decel_a, arg):
        """The synthesis reads the interleaved node/midpoint grid: node
        samples (``vt.f2``) are one sample per step short of it."""
        half = decel_a.grid.half_times
        args = {"path": np.zeros_like(half), "coupling_ff": np.ones_like(half)}
        args[arg] = np.zeros_like(decel_a.grid.times)
        n = len(decel_a.grid.times)
        with pytest.raises(
            ValueError,
            match=rf"{arg} must have {len(half)} node/midpoint samples, got \({n},\)",
        ):
            synthesize_control(model=decel_a.model, grid=decel_a.grid, **args)

    @pytest.mark.parametrize(
        "make",
        [
            lambda model, grid: synthesize_control(
                np.zeros_like(grid.half_times), model, grid
            ),
            naive_control,
            alpha_scaled_control,
        ],
        ids=["synthesis", "naive", "alpha-scaled"],
    )
    @pytest.mark.parametrize("t_end", [1.0, 1.2])
    def test_grid_must_span_the_model(self, decel_a, make, t_end):
        """The control grid is the caller's, checked against the model's
        [0, t_final] (1.1) by every constructor that samples on it."""
        want = rf"grid \[0, {t_end}\] must span \[0, 1\.1\]"
        with pytest.raises(ValueError, match=want):
            make(decel_a.model, TimeGrid(t_end, 4000))


class TestUnitCoupling:
    """The model reads the reference coupling as exactly 1, the time unit,
    and holds no interpolant of it."""

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 2.0**-52])
    def test_non_unit_coupling_is_rejected(self, reference, scale):
        """A coupling that is not exactly 1, even by one ulp at one
        sample, would be misread as 1, so the model refuses it."""
        coupling = reference.drive.coupling.copy()
        coupling[7] *= scale
        ref = replace(reference, drive=replace(reference.drive, coupling=coupling))
        with pytest.raises(ValueError, match="coupling must be exactly 1"):
            FfstPhaseModel(ref, MagnificationProfile(1.0, 1.1))


class TestBaselines:
    def test_labels(self, decel_a):
        assert naive_control(decel_a.model, decel_a.grid).label == "naive"
        assert alpha_scaled_control(decel_a.model, decel_a.grid).label == "alpha-scaled"

    def test_alpha_scaled_leaves_coupling_alone(self, decel_a):
        control = alpha_scaled_control(decel_a.model, decel_a.grid)
        assert np.allclose(control.coupling, 1.0, atol=1e-12)

    def test_naive_replays_reference_samples(self, reference, decel_a):
        control = naive_control(decel_a.model, decel_a.grid)
        t = decel_a.grid.times
        expected = np.interp(
            decel_a.prof.lambda_at(t),
            reference.grid.times,
            reference.drive.delta_omega[::2],
        )
        assert np.allclose(control.delta_omega[::2], expected, atol=1e-6)


class TestDriveSchedule:
    def test_reintegration_round_trip(self, decel_a):
        traj = integrate_schrodinger(decel_a.control, START)
        assert fidelity(traj.final_state, decel_a.report.trajectory.final_state) > 1.0 - 1e-12

    def test_validation_rejects_shape_mismatch(self, decel_a):
        c = decel_a.control
        with pytest.raises(ValueError):
            DriveSchedule(
                grid=c.grid,
                delta_omega=c.delta_omega[:-1],
                coupling=c.coupling,
            )
