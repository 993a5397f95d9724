"""Integrator invariants: norm conservation, order, reversibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ffsynth import (
    CosineSweepSpec,
    DriveSchedule,
    IntegrationError,
    ReferenceTrajectory,
    TimeGrid,
    TwoLevelState,
    build_cosine_sweep,
    fidelity,
    integrate_schrodinger,
    overlap,
    solve_reference,
)
from ffsynth.dynamics import SCAN_BLOCK, _slopes, _transfer_matrices

SWEEP = CosineSweepSpec(30.0, 1.0)
START = TwoLevelState(1.0 + 0.0j, 0.0j)

# Final upper-level population of the canonical 20k-step reference under the
# scalar Magnus oracle below, to the bit.  The production pin is in test_drives.
ORACLE_P2_FINAL = 0.08731534978930826


def scalar_magnus(drive, initial, common_shift=None) -> ReferenceTrajectory:
    """One-step-at-a-time fourth-order Magnus loop, the oracle of the scan.

    Step k applies exp(-i (alpha I + bz sz + bx sx + by sy)) to the state,
    with alpha, bz and bx the Simpson sums of the step's (start, midpoint,
    end) samples and by the commutator term -(h^2/12)(d0 g1 - g0 d1).
    The coefficients are taken as arrays, the steps one at a time.
    """
    grid = drive.grid
    n = grid.n_steps
    h = grid.h
    dw, g = drive.delta_omega, drive.coupling
    s = np.zeros(2 * n + 1) if common_shift is None else np.asarray(common_shift, float)
    # a sample near the float64 limit overflows the step's angle to inf
    with np.errstate(over="ignore", invalid="ignore"):
        bz = (h / 12.0) * (dw[:-2:2] + 4.0 * dw[1::2] + dw[2::2])
        bx = (h / 6.0) * (g[:-2:2] + 4.0 * g[1::2] + g[2::2])
        by = (-h * h / 12.0) * (dw[:-2:2] * g[2::2] - g[:-2:2] * dw[2::2])
        alpha = bz + (h / 6.0) * (s[:-2:2] + 4.0 * s[1::2] + s[2::2])
        theta = np.sqrt(bz * bz + bx * bx + by * by)
        cos, sinc = np.cos(theta), np.sinc(theta / np.pi)
        phase = np.exp(-1j * alpha)

    phi1 = np.empty(n + 1, dtype=complex)
    phi2 = np.empty(n + 1, dtype=complex)
    p1 = phi1[0] = complex(initial.phi1)
    p2 = phi2[0] = complex(initial.phi2)
    steps = zip(*(a.tolist() for a in (phase, cos, sinc, bz, bx, by)))
    for k, (e, c, sn, z, x, y) in enumerate(steps):
        p1, p2 = (
            e * ((c - 1j * sn * z) * p1 + (-1j * sn * x - sn * y) * p2),
            e * ((-1j * sn * x + sn * y) * p1 + (c + 1j * sn * z) * p2),
        )
        if not (abs(p1) + abs(p2) < 1e3):
            raise IntegrationError(
                f"integration produced a non-finite amplitude at time index "
                f"{k + 1} (t = {(k + 1) * h:.9g})"
            )
        phi1[k + 1] = p1
        phi2[k + 1] = p2
    return ReferenceTrajectory(grid=grid, phi1=phi1, phi2=phi2, drive=drive)


def scalar_rk4(drive, initial, common_shift=None) -> ReferenceTrajectory:
    """The original one-step-at-a-time RK4 loop, the integrator before the
    Magnus step; at four times the steps it cross-checks the Magnus scan."""
    grid = drive.grid
    n = grid.n_steps
    h = grid.h
    dw, dw_mid = drive.delta_omega[::2], drive.delta_omega[1::2]
    g, g_mid = drive.coupling[::2], drive.coupling[1::2]
    if common_shift is not None:
        s_node = np.asarray(common_shift, dtype=float)[::2]
        s_mid = np.asarray(common_shift, dtype=float)[1::2]
    else:
        s_node = s_mid = None

    phi1 = np.empty(n + 1, dtype=complex)
    phi2 = np.empty(n + 1, dtype=complex)
    p1 = complex(initial.phi1)
    p2 = complex(initial.phi2)
    phi1[0] = p1
    phi2[0] = p2
    for k in range(n):
        d0 = dw[k]
        dm = dw_mid[k]
        d1 = dw[k + 1]
        g0 = g[k]
        gm = g_mid[k]
        g1 = g[k + 1]
        if s_node is not None:
            s0 = s_node[k]
            sm = s_mid[k]
            s1 = s_node[k + 1]
        else:
            s0 = sm = s1 = 0.0

        a1 = -1j * ((d0 + s0) * p1 + g0 * p2)
        b1 = -1j * (g0 * p1 + s0 * p2)
        q1 = p1 + 0.5 * h * a1
        q2 = p2 + 0.5 * h * b1
        a2 = -1j * ((dm + sm) * q1 + gm * q2)
        b2 = -1j * (gm * q1 + sm * q2)
        q1 = p1 + 0.5 * h * a2
        q2 = p2 + 0.5 * h * b2
        a3 = -1j * ((dm + sm) * q1 + gm * q2)
        b3 = -1j * (gm * q1 + sm * q2)
        q1 = p1 + h * a3
        q2 = p2 + h * b3
        a4 = -1j * ((d1 + s1) * q1 + g1 * q2)
        b4 = -1j * (g1 * q1 + s1 * q2)
        p1 = p1 + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p2 = p2 + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)

        if not (abs(p1) + abs(p2) < 1e3):
            t_bad = (k + 1) * h
            raise IntegrationError(
                f"integration produced a non-finite amplitude at time index "
                f"{k + 1} (t = {t_bad:.9g})"
            )
        phi1[k + 1] = p1
        phi2[k + 1] = p2
    return ReferenceTrajectory(grid=grid, phi1=phi1, phi2=phi2, drive=drive)


def _rabi_drive(n_steps: int, duration: float = 1.0) -> DriveSchedule:
    grid = TimeGrid(duration, n_steps)
    return DriveSchedule(grid, np.zeros(2 * n_steps + 1), np.ones(2 * n_steps + 1))


def _smooth_half_samples(n_steps: int):
    """Varying detuning and coupling at step 1e-3, on the node/midpoint grid."""
    grid = TimeGrid(1e-3 * n_steps, n_steps)
    t = grid.half_times
    return grid, 5.0 * np.sin(3.0 * t) + 2.0, 1.0 + 0.3 * np.cos(t)


def _smooth_drive(n_steps: int) -> DriveSchedule:
    return DriveSchedule(*_smooth_half_samples(n_steps))


def _assert_matches_oracle(drive, initial, common_shift=None):
    scan = integrate_schrodinger(drive, initial, common_shift=common_shift)
    loop = scalar_magnus(drive, initial, common_shift=common_shift)
    assert np.max(np.abs(scan.phi1 - loop.phi1)) <= 1e-12
    assert np.max(np.abs(scan.phi2 - loop.phi2)) <= 1e-12


class TestTimeGrid:
    def test_spacing_and_lengths(self):
        grid = TimeGrid(2.0, 400)
        assert grid.h == pytest.approx(0.005)
        assert len(grid.times) == 401
        assert len(grid.half_times) == 801
        assert grid.times[0] == 0.0 and grid.times[-1] == 2.0

    def test_half_grid_interleaves(self):
        grid = TimeGrid(1.0, 16)
        assert np.array_equal(grid.half_times[::2], grid.times)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError, match="t_end must be positive"):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError, match="t_end must be positive"):
            TimeGrid(-1.0, 10)


def _norm(s: TwoLevelState) -> float:
    return float(np.hypot(abs(s.phi1), abs(s.phi2)))


def _unit(phi1: complex, phi2: complex) -> TwoLevelState:
    n = _norm(TwoLevelState(phi1, phi2))
    return TwoLevelState(phi1 / n, phi2 / n)


class TestTwoLevelState:
    def test_norm_and_populations(self):
        s = TwoLevelState(0.6 + 0.0j, 0.8j)
        p1, p2 = s.populations()
        assert p1 + p2 == pytest.approx(1.0)
        assert p1 == pytest.approx(0.36)
        assert p2 == pytest.approx(0.64)

    @given(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_fidelity_bounds_on_unit_states(self, a, b):
        assume(abs(1.0 + a) + abs(b) > 1e-6)
        s = _unit(1.0 + a, b)
        t = _unit(b, 1.0 + a)
        f = fidelity(s, t)
        assert 0.0 <= f <= 1.0 + 1e-12
        assert f == pytest.approx(fidelity(t, s), abs=1e-12)


class TestDriveSchedule:
    def test_rejects_sample_count_other_than_2n_plus_1(self):
        grid = TimeGrid(1.0, 5)
        for n_samples in (5, 6, 10, 12):
            with pytest.raises(ValueError, match="11 node/midpoint samples"):
                DriveSchedule(grid, np.zeros(n_samples), np.ones(11))
            with pytest.raises(ValueError, match="11 node/midpoint samples"):
                DriveSchedule(grid, np.zeros(11), np.ones(n_samples))

    def test_rejects_node_samples_naming_2n_plus_1(self):
        grid = TimeGrid(1.0, 5)
        with pytest.raises(
            ValueError, match=r"delta_omega must have 11 node/midpoint samples, got \(6,\)"
        ):
            DriveSchedule(grid, np.zeros(6), np.ones(11))

    @pytest.mark.parametrize("field", ["delta_omega", "coupling"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_sample(self, field, bad):
        grid = TimeGrid(1.0, 5)
        samples = {"delta_omega": np.zeros(11), "coupling": np.ones(11)}
        samples[field][7] = bad
        with pytest.raises(ValueError, match=f"{field} has a non-finite sample at index 7"):
            DriveSchedule(grid, **samples)

    def test_keeps_label(self):
        grid = TimeGrid(1.0, 4)
        drive = DriveSchedule(grid, np.zeros(9), np.ones(9), label="itt")
        assert drive.label == "itt"
        assert DriveSchedule(grid, np.zeros(9), np.ones(9)).label == ""


def node_mid_slopes(node: np.ndarray, mid: np.ndarray, h: float) -> np.ndarray:
    """The five-point node slopes read from separate node and midpoint
    arrays, kept as the oracle of ``_slopes`` on the interleaved array."""

    def one_sided(f0, f1, f2, f3, f4):
        return -25.0 * f0 + 48.0 * f1 - 36.0 * f2 + 16.0 * f3 - 3.0 * f4

    out = np.empty_like(node)
    out[1:-1] = node[:-2] - 8.0 * mid[:-1] + 8.0 * mid[1:] - node[2:]
    out[0] = one_sided(node[0], mid[0], node[1], mid[1], node[2])
    out[-1] = -one_sided(node[-1], mid[-1], node[-2], mid[-2], node[-3])
    return out / (6.0 * h)


class TestSlopesMatchNodeMidFormula:
    @staticmethod
    def _assert_bitwise(drive):
        h = drive.grid.h
        for f in (drive.delta_omega, drive.coupling):
            want = node_mid_slopes(f[::2], f[1::2], h)
            assert np.array_equal(_slopes(f, h), want)

    def test_reference(self, reference):
        self._assert_bitwise(reference.drive)

    def test_synthesized_itt_control(self, accel):
        self._assert_bitwise(accel.control)

    @pytest.mark.parametrize("n_steps", [3, 4, 5, 8193])
    def test_random_drive(self, n_steps):
        rng = np.random.default_rng(n_steps)
        grid = TimeGrid(0.7, n_steps)
        m = 2 * n_steps + 1
        self._assert_bitwise(
            DriveSchedule(grid, rng.normal(0.0, 30.0, m), rng.uniform(0.5, 1.5, m))
        )


class TestIntegrator:
    def test_rabi_closed_form(self):
        traj = integrate_schrodinger(_rabi_drive(4000), START)
        final = traj.final_state
        # detuning-free evolution rotates the population as sin^2(g t)
        assert abs(final.phi2) ** 2 == pytest.approx(np.sin(1.0) ** 2, abs=1e-12)
        assert abs(final.phi1) ** 2 == pytest.approx(np.cos(1.0) ** 2, abs=1e-12)

    def test_norm_drift_small_over_1e5_steps(self):
        grid = TimeGrid(1.0, 100_000)
        traj = integrate_schrodinger(build_cosine_sweep(SWEEP, grid), START)
        assert traj.norm_drift() < 1e-9

    def test_convergence_order_at_least_39(self):
        fine = solve_reference(SWEEP, TimeGrid(1.0, 8000)).final_state
        errs = []
        for n in (250, 500, 1000):
            final = solve_reference(SWEEP, TimeGrid(1.0, n)).final_state
            errs.append(
                np.hypot(abs(final.phi1 - fine.phi1), abs(final.phi2 - fine.phi2))
            )
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9

    def test_forward_backward_reversal(self, reference):
        drive = reference.drive
        rev = DriveSchedule(
            grid=drive.grid,
            delta_omega=drive.delta_omega[::-1].copy(),
            coupling=drive.coupling[::-1].copy(),
        )
        end = reference.final_state
        back = integrate_schrodinger(
            rev, TwoLevelState(np.conj(end.phi1), np.conj(end.phi2))
        ).final_state
        recovered = TwoLevelState(np.conj(back.phi1), np.conj(back.phi2))
        assert fidelity(recovered, START) > 1.0 - 1e-8

    def test_common_shift_is_global_phase(self, reference):
        drive = reference.drive
        shift = 3.0 * np.sin(2.0 * drive.grid.half_times) + 1.0
        base = integrate_schrodinger(drive, START).final_state
        shifted = integrate_schrodinger(drive, START, common_shift=shift).final_state
        assert abs(abs(overlap(base, shifted)) - _norm(base) * _norm(shifted)) < 1e-9
        assert abs(base.phi1) == pytest.approx(abs(shifted.phi1), abs=1e-9)
        assert abs(base.phi2) == pytest.approx(abs(shifted.phi2), abs=1e-9)

    def test_shift_length_checked(self, reference):
        with pytest.raises(ValueError):
            integrate_schrodinger(reference.drive, START, common_shift=np.zeros(7))

    def test_blowup_raises_with_time_index(self):
        bad = TwoLevelState(2.0e3 + 0.0j, 0.0j)
        with pytest.raises(IntegrationError, match="time index"):
            integrate_schrodinger(_rabi_drive(100), bad)


class TestMagnusStep:
    def test_step_is_exponential_of_magnus_exponent(self):
        """Each closed-form step matrix against scipy's ``expm`` of the
        literal exponent (h/6)(A0 + 4 Am + A1) - (h^2/12)[A0, A1], A = -iH,
        within a bound set before the comparison was run."""
        rng = np.random.default_rng(7)
        h = 0.05
        d = [rng.normal(0.0, 30.0, 16) for _ in range(3)]
        g = [rng.uniform(0.5, 1.5, 16) for _ in range(3)]
        s = [rng.normal(0.0, 3.0, 16) for _ in range(3)]
        m11, m12, m21, m22 = _transfer_matrices(h, d, g, s)
        for k in range(16):
            a0, am, a1 = (
                -1j * np.array([[d[i][k] + s[i][k], g[i][k]], [g[i][k], s[i][k]]])
                for i in range(3)
            )
            omega = (h / 6.0) * (a0 + 4.0 * am + a1) - (h * h / 12.0) * (a0 @ a1 - a1 @ a0)
            step = np.array([[m11[k], m12[k]], [m21[k], m22[k]]])
            assert np.max(np.abs(step - expm(omega))) <= 1e-14

    def test_rk4_at_four_times_the_steps_agrees(self, reference):
        """RK4, the integrator before the Magnus step, at four times the
        reference's steps, within 1e-10 at every shared node (a bound set
        before the comparison was run)."""
        fine = TimeGrid(1.0, 4 * reference.grid.n_steps)
        rk4 = scalar_rk4(build_cosine_sweep(SWEEP, fine), START)
        assert np.max(np.abs(rk4.phi1[::4] - reference.phi1)) <= 1e-10
        assert np.max(np.abs(rk4.phi2[::4] - reference.phi2)) <= 1e-10

    def test_norm_drift_below_1e12_on_the_budget_grid(self):
        traj = solve_reference(CosineSweepSpec(30.0, 30.0), TimeGrid(30.0, 100_000))
        assert traj.norm_drift() < 1e-12


class TestScanMatchesScalarLoop:
    def test_oracle_pin(self, reference):
        p2 = abs(scalar_magnus(reference.drive, START).final_state.phi2) ** 2
        assert p2 == ORACLE_P2_FINAL

    def test_reference(self, reference):
        _assert_matches_oracle(reference.drive, START)

    def test_long_grid(self):
        grid = TimeGrid(30.0, 100_000)
        drive = build_cosine_sweep(CosineSweepSpec(30.0, 30.0), grid)
        _assert_matches_oracle(drive, START)

    def test_rabi(self):
        _assert_matches_oracle(_rabi_drive(4000), START)

    def test_common_shift(self, reference):
        shift = 3.0 * np.sin(2.0 * reference.grid.half_times) + 1.0
        _assert_matches_oracle(reference.drive, START, common_shift=shift)

    def test_reversed_drive(self, reference):
        drive = reference.drive
        back = DriveSchedule(
            grid=drive.grid,
            delta_omega=drive.delta_omega[::-1],
            coupling=drive.coupling[::-1],
        )
        fin = reference.final_state
        _assert_matches_oracle(back, TwoLevelState(np.conj(fin.phi1), np.conj(fin.phi2)))

    @pytest.mark.parametrize(
        "n_steps",
        [1, 2, 3, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 1],
    )
    def test_block_edges(self, n_steps):
        _assert_matches_oracle(_smooth_drive(n_steps), TwoLevelState(0.6 + 0.0j, 0.8j))

    @pytest.mark.parametrize("start", [5, SCAN_BLOCK - 2, SCAN_BLOCK + 3000])
    def test_blowup_index_matches_loop(self, start):
        # the step is unitary for any finite angle; a detuning of 1e308
        # overflows the Simpson sum, so the amplitudes turn nan at ``start``
        grid, dw, g = _smooth_half_samples(2 * SCAN_BLOCK + 1)
        dw[2 * start :] = 1e308
        drive = DriveSchedule(grid, dw, g)
        with pytest.raises(IntegrationError) as loop:
            scalar_magnus(drive, START)
        with pytest.raises(IntegrationError) as scan:
            integrate_schrodinger(drive, START)
        assert str(scan.value) == str(loop.value)


class TestTrajectoryAccess:
    def test_state_at_nodes(self, reference):
        k = 1234
        s = reference.state(k)
        assert s.phi1 == reference.phi1[k] and s.phi2 == reference.phi2[k]
        assert reference.final_state == reference.state(reference.grid.n_steps)

    def test_population_series_shape(self, reference):
        pops = reference.populations()
        assert pops.shape == (reference.grid.n_steps + 1, 2)
        assert np.all(pops >= 0.0)
        assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-9
