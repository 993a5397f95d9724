"""Hardware mapping: transmon frequencies, SQUID flux inversion, units."""

from __future__ import annotations

import numpy as np
import pytest

from ffsynth import (
    DriveSchedule,
    FluxRangeError,
    FluxWaveform,
    TimeGrid,
    TransmonSpec,
    coupling_strength,
    default_transmon_spec,
    ecc_for_coupling,
    flux_schedule_for,
    rwa_emulation_map,
    squid_ej,
    to_physical_time,
    transmon_frequency,
)

SPEC = default_transmon_spec()


def _as_control(drive) -> DriveSchedule:
    return DriveSchedule(
        grid=drive.grid,
        delta_omega=drive.delta_omega,
        coupling=drive.coupling,
        delta_omega_mid=drive.delta_omega_mid,
        coupling_mid=drive.coupling_mid,
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


class TestFluxSchedule:
    def test_round_trip_tolerance(self, wave, reference):
        omega2 = transmon_frequency(SPEC.ej_fixed, SPEC.ec)
        targets = omega2 + reference.drive.delta_omega * 0.009
        back = transmon_frequency(squid_ej(wave.flux, SPEC.ej_max, SPEC.d), SPEC.ec)
        assert np.max(np.abs(back - targets)) < 1e-9

    def test_flux_stays_in_range(self, wave):
        assert float(np.min(wave.flux)) == pytest.approx(
            0.024652073491986018, abs=1e-9
        )
        assert float(np.max(wave.flux)) == pytest.approx(0.4825456979487186, abs=1e-9)

    def test_grid_converted_to_ns(self, wave, reference):
        assert wave.grid.n_steps == reference.grid.n_steps
        assert wave.grid.t_end == pytest.approx(17.68388256576615, abs=1e-12)

    def test_out_of_band_raises(self, reference):
        grid = TimeGrid(0.0, 1.0, 10)
        control = DriveSchedule.from_half_samples(grid, np.full(21, 100.0), np.ones(21))
        with pytest.raises(FluxRangeError, match="outside the tunable band"):
            flux_schedule_for(control, SPEC)
        with pytest.raises(FluxRangeError, match="t = "):
            flux_schedule_for(control, SPEC)

    def test_waveform_validation(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="half a flux quantum"):
            FluxWaveform(grid=grid, flux=np.full(5, 0.6))
        with pytest.raises(ValueError, match="grid nodes"):
            FluxWaveform(grid=grid, flux=np.zeros(3))


class TestRwaEmulation:
    def test_relabeling(self, reference):
        sched = rwa_emulation_map(_as_control(reference.drive))
        assert sched.rabi == 1.0
        assert sched.metadata["max_abs_detuning"] == pytest.approx(30.0, abs=1e-12)
        assert "anharmonicity" in sched.metadata["assumption"]
        assert np.array_equal(sched.detuning, reference.drive.delta_omega)

    def test_detuning_is_a_copy(self, reference):
        control = _as_control(reference.drive)
        sched = rwa_emulation_map(control)
        sched.detuning[0] = 1e9
        assert control.delta_omega[0] != 1e9

    def test_warns_when_coupling_off_rabi(self, reference):
        with pytest.warns(UserWarning, match="Rabi"):
            rwa_emulation_map(_as_control(reference.drive), rabi=2.0)
