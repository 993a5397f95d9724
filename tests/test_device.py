"""Hardware mapping: transmon frequencies, SQUID flux inversion, units."""

from __future__ import annotations

import numpy as np
import pytest

from ffsynth import (
    CosineSweepSpec,
    DriveSchedule,
    FluxRangeError,
    TimeGrid,
    TransmonSpec,
    build_cosine_sweep,
    coupling_strength,
    default_step_count,
    default_transmon_spec,
    ecc_for_coupling,
    flux_schedule_for,
    rwa_emulation_map,
    squid_ej,
    to_physical_time,
    transmon_frequency,
)
from ffsynth import device

SPEC = default_transmon_spec()


def _bisect_flux(targets: np.ndarray, spec) -> np.ndarray:
    """The flux that hits ``targets``, by 64 halvings of [0, 0.5]; the
    frequency falls monotonically in flux there for d < 1."""
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, 0.5)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        f_mid = transmon_frequency(squid_ej(mid, spec.ej_max, spec.d), spec.ec)
        toolow = f_mid < targets
        hi = np.where(toolow, mid, hi)
        lo = np.where(toolow, lo, mid)
    return 0.5 * (lo + hi)


def _as_control(drive) -> DriveSchedule:
    return DriveSchedule(
        grid=drive.grid,
        delta_omega=drive.delta_omega,
        coupling=drive.coupling,
        label="reference",
    )


class TestFrequencies:
    def test_transmon_frequency_value(self):
        f = transmon_frequency(30.0, 0.203)
        assert f == pytest.approx(6.776971346646059, abs=1e-12)
        assert abs(f - 6.777) <= 1e-3

    def test_squid_half_quantum_exact(self):
        # at half a flux quantum only the asymmetry term survives
        assert squid_ej(0.5, 30.0, 0.85) == 25.5

    def test_squid_zero_flux(self):
        assert squid_ej(0.0, 30.0, 0.85) == pytest.approx(30.0, abs=1e-14)

    def test_band_monotone_decreasing(self):
        flux = np.linspace(0.0, 0.5, 201)
        freq = transmon_frequency(squid_ej(flux, SPEC.ej_max, SPEC.d), SPEC.ec)
        assert np.all(np.diff(freq) < 0.0)

    def test_fixed_partner_inside_band(self):
        omega2 = transmon_frequency(SPEC.ej_fixed, SPEC.ec)
        band_lo = transmon_frequency(SPEC.ej_max * SPEC.d, SPEC.ec)
        band_hi = transmon_frequency(SPEC.ej_max, SPEC.ec)
        assert omega2 == pytest.approx(6.504070895704025, abs=1e-12)
        assert band_lo < omega2 < band_hi
        # the spec's own band and frame are the same numbers, bit for bit
        assert SPEC.band == (band_lo, band_hi)
        assert SPEC.omega2 == omega2


class TestCouplerDesign:
    def test_ecc_inverts_coupling(self):
        assert coupling_strength(SPEC) == pytest.approx(0.009, rel=1e-12)

    def test_round_trip_arbitrary(self):
        ecc = ecc_for_coupling(25.0, 28.0, 0.19, 0.21, 0.012)
        spec = TransmonSpec(ej_max=25.0, ej_fixed=28.0, ec=0.19, ecc=ecc, d=0.85)
        g = spec.ecc / np.sqrt(2.0) * (25.0 * 28.0 / (0.19 * 0.21)) ** 0.25
        assert g == pytest.approx(0.012, rel=1e-12)

    def test_default_spec_values(self):
        assert (SPEC.ej_max, SPEC.ej_fixed, SPEC.ec, SPEC.d) == (30.0, 27.7, 0.203, 0.85)


class TestSpecValidation:
    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError, match="positive"):
            TransmonSpec(ej_max=-1.0, ej_fixed=27.7, ec=0.203, ecc=0.03, d=0.85)

    def test_rejects_bad_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            TransmonSpec(ej_max=30.0, ej_fixed=27.7, ec=0.203, ecc=0.03, d=0.0)

    def test_rejects_symmetric_squid(self):
        # at d = 1 the frequency does not depend on flux, and the inverse
        # divides by 1 - d^2 = 0
        with pytest.raises(ValueError, match=r"asymmetry d must be in \(0, 1\)"):
            TransmonSpec(ej_max=30.0, ej_fixed=27.7, ec=0.203, ecc=0.03, d=1.0)

    def test_warns_on_low_ratio(self):
        with pytest.warns(UserWarning, match="E_J >> E_C"):
            TransmonSpec(ej_max=3.0, ej_fixed=27.7, ec=0.203, ecc=0.03, d=0.85)


class TestUnits:
    def test_reference_duration_in_ns(self):
        t = float(to_physical_time(1.0, 0.009))
        assert t == pytest.approx(17.68388256576615, abs=1e-12)
        assert 10.0 <= t <= 1000.0

    def test_long_run_duration_in_ns(self):
        assert 10.0 <= float(to_physical_time(30.0, 0.009)) <= 1000.0

    def test_time_round_trip(self):
        t = np.linspace(0.0, 30.0, 50)
        back = to_physical_time(t, 0.009) * (2.0 * np.pi * 0.009)
        assert np.max(np.abs(back - t)) < 1e-12


@pytest.fixture(scope="module")
def wave(reference):
    return flux_schedule_for(_as_control(reference.drive), SPEC)


def _targets(control: DriveSchedule) -> np.ndarray:
    omega2 = transmon_frequency(SPEC.ej_fixed, SPEC.ec)
    band_lo = transmon_frequency(SPEC.ej_max * SPEC.d, SPEC.ec)
    band_hi = transmon_frequency(SPEC.ej_max, SPEC.ec)
    return np.clip(omega2 + control.delta_omega[::2] * 0.009, band_lo, band_hi)


class TestFluxSchedule:
    def test_round_trip_tolerance(self, wave, reference):
        omega2 = transmon_frequency(SPEC.ej_fixed, SPEC.ec)
        targets = omega2 + reference.drive.delta_omega[::2] * 0.009
        _, flux = wave
        back = transmon_frequency(squid_ej(flux, SPEC.ej_max, SPEC.d), SPEC.ec)
        assert np.max(np.abs(back - targets)) < 1e-9

    def test_flux_stays_in_range(self, wave):
        _, flux = wave
        assert float(np.min(flux)) == pytest.approx(0.024652073491986018, abs=1e-9)
        assert float(np.max(flux)) == pytest.approx(0.4825456979487186, abs=1e-9)

    def test_grid_converted_to_ns(self, wave, reference):
        """One ns sample per control node, on the axis a ``TimeGrid`` over
        the converted end points spans, bit for bit."""
        t_ns, flux = wave
        assert t_ns.shape == flux.shape == (reference.grid.n_steps + 1,)
        assert t_ns[-1] == pytest.approx(17.68388256576615, abs=1e-12)
        grid = reference.grid
        ns_grid = TimeGrid(float(to_physical_time(grid.t_end, 0.009)), grid.n_steps)
        assert np.array_equal(t_ns, ns_grid.times)

    def test_out_of_band_raises(self, reference):
        grid = TimeGrid(1.0, 10)
        control = DriveSchedule(grid, np.full(21, 100.0), np.ones(21))
        with pytest.raises(FluxRangeError, match="outside the tunable band"):
            flux_schedule_for(control, SPEC)
        with pytest.raises(FluxRangeError, match="t = "):
            flux_schedule_for(control, SPEC)

    def test_out_of_band_midpoint_raises(self):
        """The band holds every sample the integrator drives: one midpoint
        out of band fails the map, and the message names its time."""
        grid = TimeGrid(1.0, 10)
        dw = np.zeros(21)
        dw[7] = 100.0
        control = DriveSchedule(grid, dw, np.ones(21))
        with pytest.raises(FluxRangeError, match=r"t = 0\.35 \(node/midpoint sample 7\)"):
            flux_schedule_for(control, SPEC)

    def test_nan_round_trip_raises(self, monkeypatch):
        """A round trip that is not a number fails the tolerance check
        instead of passing every comparison."""
        grid = TimeGrid(1.0, 10)
        control = DriveSchedule(grid, np.zeros(21), np.ones(21))
        flux_schedule_for(control, SPEC)
        monkeypatch.setattr(device, "squid_ej", lambda x, *a: np.full_like(x, np.nan))
        with pytest.raises(FluxRangeError, match="round-trip error nan GHz"):
            flux_schedule_for(control, SPEC)


class TestClosedFormInversion:
    """The closed-form inverse against 64 bisection halvings (the oracle),
    with bounds set before the closed form was written."""

    @pytest.fixture(scope="class", params=[1.0, 30.0], ids=["reference-20k", "sta-30"])
    def control(self, request):
        duration = request.param
        grid = TimeGrid(duration, default_step_count(duration))
        return build_cosine_sweep(CosineSweepSpec(30.0, duration), grid)

    def test_flux_matches_bisection(self, control):
        _, flux = flux_schedule_for(control, SPEC)
        oracle = _bisect_flux(_targets(control), SPEC)
        assert np.max(np.abs(flux - oracle)) <= 1e-12

    def test_round_trip_within_1e12(self, control):
        targets = _targets(control)
        _, flux = flux_schedule_for(control, SPEC)
        back = transmon_frequency(squid_ej(flux, SPEC.ej_max, SPEC.d), SPEC.ec)
        assert np.max(np.abs(back - targets)) <= 1e-12

    def test_band_edges_map_to_zero_and_half(self):
        band_lo, band_hi = SPEC.band
        flux = device._invert_frequency(np.array([band_hi, band_lo]), SPEC)
        assert flux[0] == pytest.approx(0.0, abs=1e-7)
        assert flux[1] == pytest.approx(0.5, abs=1e-7)
        assert np.all((flux >= 0.0) & (flux <= 0.5))


class TestRwaEmulation:
    def test_relabeling(self, reference):
        rwa = rwa_emulation_map(_as_control(reference.drive))
        assert set(rwa) == {"assumption", "max_abs_detuning", "rabi"}
        assert rwa["rabi"] == 1.0
        assert rwa["max_abs_detuning"] == pytest.approx(30.0, abs=1e-12)
        assert "anharmonicity" in rwa["assumption"]

    def test_peak_and_coupling_read_midpoints(self):
        grid = TimeGrid(1.0, 10)
        dw = np.zeros(21)
        dw[7] = -40.0
        g = np.ones(21)
        g[9] = 2.0
        with pytest.warns(UserWarning, match="Rabi"):
            rwa = rwa_emulation_map(DriveSchedule(grid, dw, g))
        assert rwa["max_abs_detuning"] == 40.0

    def test_warns_when_coupling_off_rabi(self):
        grid = TimeGrid(1.0, 10)
        control = DriveSchedule(grid, np.zeros(21), np.full(21, 2.0))
        with pytest.warns(UserWarning, match="Rabi"):
            rwa_emulation_map(control)
