"""Integrator invariants: norm conservation, order, reversibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    state_at,
)
from ffsynth.dynamics import SCAN_BLOCK

SWEEP = CosineSweepSpec(30.0, 1.0)
START = TwoLevelState(1.0 + 0.0j, 0.0j)

# Final upper-level population of the canonical 20k-step reference under the
# scalar oracle below, to the bit.  The production pin is in test_drives.
ORACLE_P2_FINAL = 0.08731534978931912


def scalar_rk4(drive, initial, common_shift=None) -> ReferenceTrajectory:
    """The original one-step-at-a-time RK4 loop, kept as the test oracle."""
    grid = drive.grid
    n = grid.n_steps
    h = grid.h
    dw = drive.delta_omega
    g = drive.coupling
    dw_mid, g_mid = drive.midpoint_samples()
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
            t_bad = grid.t0 + (k + 1) * h
            raise IntegrationError(
                f"integration produced a non-finite amplitude at time index "
                f"{k + 1} (t = {t_bad:.9g})"
            )
        phi1[k + 1] = p1
        phi2[k + 1] = p2
    return ReferenceTrajectory(grid=grid, phi1=phi1, phi2=phi2, drive=drive)


def _rabi_drive(n_steps: int, duration: float = 1.0) -> DriveSchedule:
    grid = TimeGrid(0.0, duration, n_steps)
    zero = np.zeros(n_steps + 1)
    return DriveSchedule(grid=grid, delta_omega=zero, coupling=np.ones(n_steps + 1))


def _smooth_drive(n_steps: int) -> DriveSchedule:
    """Varying detuning and coupling at step 1e-3; midpoints interpolated."""
    grid = TimeGrid(0.0, 1e-3 * n_steps, n_steps)
    t = grid.times
    return DriveSchedule(
        grid=grid,
        delta_omega=5.0 * np.sin(3.0 * t) + 2.0,
        coupling=1.0 + 0.3 * np.cos(t),
    )


def _assert_matches_oracle(drive, initial, common_shift=None):
    scan = integrate_schrodinger(drive, initial, common_shift=common_shift)
    loop = scalar_rk4(drive, initial, common_shift=common_shift)
    assert np.max(np.abs(scan.phi1 - loop.phi1)) <= 1e-12
    assert np.max(np.abs(scan.phi2 - loop.phi2)) <= 1e-12


class TestTimeGrid:
    def test_spacing_and_lengths(self):
        grid = TimeGrid(0.0, 2.0, 400)
        assert grid.h == pytest.approx(0.005)
        assert len(grid.times) == 401
        assert len(grid.midtimes) == 400
        assert len(grid.half_times) == 801
        assert grid.times[0] == 0.0 and grid.times[-1] == 2.0

    def test_half_grid_interleaves(self):
        grid = TimeGrid(0.0, 1.0, 16)
        assert np.array_equal(grid.half_times[::2], grid.times)
        assert np.array_equal(grid.half_times[1::2], grid.midtimes)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 10)


class TestTwoLevelState:
    def test_norm_and_populations(self):
        s = TwoLevelState(0.6 + 0.0j, 0.8j)
        assert s.norm() == pytest.approx(1.0)
        p1, p2 = s.populations()
        assert p1 == pytest.approx(0.36)
        assert p2 == pytest.approx(0.64)

    def test_normalized(self):
        s = TwoLevelState(3.0 + 0.0j, 4.0j).normalized()
        assert s.norm() == pytest.approx(1.0, abs=1e-15)

    def test_normalizing_zero_state_rejected(self):
        with pytest.raises(ValueError):
            TwoLevelState(0.0j, 0.0j).normalized()

    @given(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_fidelity_bounds_on_unit_states(self, a, b):
        assume(abs(1.0 + a) + abs(b) > 1e-6)
        s = TwoLevelState(1.0 + a, b).normalized()
        t = TwoLevelState(b, 1.0 + a).normalized()
        f = fidelity(s, t)
        assert 0.0 <= f <= 1.0 + 1e-12
        assert f == pytest.approx(fidelity(t, s), abs=1e-12)


class TestDriveScheduleFromHalfSamples:
    def test_splits_nodes_and_midpoints_bitwise(self):
        grid = TimeGrid(0.0, 1.0, 5)
        dw = np.cos(7.0 * grid.half_times)
        g = 1.0 + np.sin(3.0 * grid.half_times)
        drive = DriveSchedule.from_half_samples(grid, dw, g)
        assert np.array_equal(drive.delta_omega, dw[::2])
        assert np.array_equal(drive.delta_omega_mid, dw[1::2])
        assert np.array_equal(drive.coupling, g[::2])
        assert np.array_equal(drive.coupling_mid, g[1::2])
        assert np.array_equal(drive.midpoint_samples()[0], dw[1::2])

    @pytest.mark.parametrize("n_samples", [5, 6, 10, 12])
    def test_rejects_sample_count_other_than_2n_plus_1(self, n_samples):
        grid = TimeGrid(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="11 node/midpoint samples"):
            DriveSchedule.from_half_samples(grid, np.zeros(n_samples), np.ones(11))
        with pytest.raises(ValueError, match="11 node/midpoint samples"):
            DriveSchedule.from_half_samples(grid, np.zeros(11), np.ones(n_samples))

    def test_keeps_label(self):
        grid = TimeGrid(0.0, 1.0, 4)
        drive = DriveSchedule.from_half_samples(
            grid, np.zeros(9), np.ones(9), label="itt"
        )
        assert drive.label == "itt"
        assert DriveSchedule.from_half_samples(grid, np.zeros(9), np.ones(9)).label == ""


class TestIntegrator:
    def test_rabi_closed_form(self):
        traj = integrate_schrodinger(_rabi_drive(4000), START)
        final = traj.final_state
        # detuning-free evolution rotates the population as sin^2(g t)
        assert abs(final.phi2) ** 2 == pytest.approx(np.sin(1.0) ** 2, abs=1e-12)
        assert abs(final.phi1) ** 2 == pytest.approx(np.cos(1.0) ** 2, abs=1e-12)

    def test_norm_drift_small_over_1e5_steps(self):
        grid = TimeGrid(0.0, 1.0, 100_000)
        traj = integrate_schrodinger(build_cosine_sweep(SWEEP, grid), START)
        assert np.max(np.abs(traj.norms() - 1.0)) < 1e-9

    def test_convergence_order_at_least_39(self):
        fine = solve_reference(SWEEP, TimeGrid(0.0, 1.0, 8000)).final_state
        errs = []
        for n in (250, 500, 1000):
            final = solve_reference(SWEEP, TimeGrid(0.0, 1.0, n)).final_state
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
            delta_omega_mid=drive.delta_omega_mid[::-1].copy(),
            coupling_mid=drive.coupling_mid[::-1].copy(),
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
        assert abs(abs(overlap(base, shifted)) - base.norm() * shifted.norm()) < 1e-9
        assert abs(base.phi1) == pytest.approx(abs(shifted.phi1), abs=1e-9)
        assert abs(base.phi2) == pytest.approx(abs(shifted.phi2), abs=1e-9)

    def test_shift_length_checked(self, reference):
        with pytest.raises(ValueError):
            integrate_schrodinger(reference.drive, START, common_shift=np.zeros(7))

    def test_blowup_raises_with_time_index(self):
        bad = TwoLevelState(2.0e3 + 0.0j, 0.0j)
        with pytest.raises(IntegrationError, match="time index"):
            integrate_schrodinger(_rabi_drive(100), bad)


class TestScanMatchesScalarLoop:
    def test_oracle_pin(self, reference):
        p2 = abs(scalar_rk4(reference.drive, START).final_state.phi2) ** 2
        assert p2 == ORACLE_P2_FINAL

    def test_reference(self, reference):
        _assert_matches_oracle(reference.drive, START)

    def test_long_grid(self):
        grid = TimeGrid(0.0, 30.0, 100_000)
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
            delta_omega_mid=drive.delta_omega_mid[::-1],
            coupling_mid=drive.coupling_mid[::-1],
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
        # h * dw = 4 lies outside RK4's stability interval on the imaginary
        # axis, so the norm grows about 7.6-fold per step from ``start`` on
        drive = _smooth_drive(2 * SCAN_BLOCK + 1)
        dw = drive.delta_omega.copy()
        dw[start:] = 4000.0
        drive = DriveSchedule(grid=drive.grid, delta_omega=dw, coupling=drive.coupling)
        with pytest.raises(IntegrationError) as loop:
            scalar_rk4(drive, START)
        with pytest.raises(IntegrationError) as scan:
            integrate_schrodinger(drive, START)
        assert str(scan.value) == str(loop.value)


class TestTrajectoryAccess:
    def test_state_at_nodes(self, reference):
        k = 1234
        t = reference.grid.times[k]
        s = state_at(reference, t)
        assert s.phi1 == pytest.approx(reference.phi1[k], abs=1e-12)
        assert s.phi2 == pytest.approx(reference.phi2[k], abs=1e-12)

    def test_population_series_shape(self, reference):
        pops = reference.populations()
        assert pops.shape == (reference.grid.n_steps + 1, 2)
        assert np.all(pops >= 0.0)
        assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-9
