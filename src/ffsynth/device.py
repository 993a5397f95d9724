"""Mapping dimensionless schedules onto superconducting hardware.

Detunings produced by the synthesis modules are in units of the qubit
coupling g with time in units of 1/g.  This module converts them to a
flux waveform for a SQUID-tunable transmon pair and to the equivalent
single-qubit drive-frame schedule.  The angular-frequency convention is
t_phys = t / (2 pi g_phys) with g_phys in GHz, so times come out in ns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import DriveSchedule, TimeGrid

#: E_J / E_C ratio below which the transmon frequency formula degrades.
TRANSMON_RATIO_FLOOR = 20.0

#: Frequency tolerance of the flux inversion, in GHz.
FLUX_TOLERANCE = 1e-9


class FluxRangeError(RuntimeError):
    """Raised when a target frequency is outside the tunable band."""


@dataclass(frozen=True)
class TransmonSpec:
    """Energies (GHz) and junction asymmetry of the tunable-qubit pair.

    ``ej_max`` is the flux-tunable qubit's maximal Josephson energy;
    ``ej_fixed`` belongs to the fixed partner whose frequency sets the
    rotating frame.
    """

    ej_max: float
    ej_fixed: float
    ec: float
    ecc: float
    d: float

    def __post_init__(self) -> None:
        for name in ("ej_max", "ej_fixed", "ec", "ecc"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.d <= 1.0):
            raise ValueError(f"junction asymmetry d must be in (0, 1], got {self.d}")
        for name in ("ej_max", "ej_fixed"):
            ratio = getattr(self, name) / self.ec
            if ratio < TRANSMON_RATIO_FLOOR:
                warnings.warn(
                    f"{name}/ec = {ratio:.1f} is below {TRANSMON_RATIO_FLOOR}; "
                    "the transmon frequency formula assumes E_J >> E_C",
                    stacklevel=2,
                )


def transmon_frequency(ej, ec):
    """Qubit frequency sqrt(8 E_J E_C) - E_C, all in GHz."""
    return np.sqrt(8.0 * np.asarray(ej, dtype=float) * ec) - ec


def squid_ej(flux_ratio, ej_max: float, d: float):
    """Effective Josephson energy of an asymmetric SQUID.

    Equivalent to E_J^max cos(pi x) sqrt(1 + d^2 tan^2(pi x)) written
    without the removable singularity at half-integer flux, where the
    value is E_J^max * d * |sin(pi x)|.
    """
    x = np.pi * np.asarray(flux_ratio, dtype=float)
    return ej_max * np.hypot(np.cos(x), d * np.sin(x))


def coupling_strength(spec: TransmonSpec) -> float:
    """Exchange coupling g = (E_Cc / sqrt 2)(E_J^max E_J2 / E_C1 E_C2)^(1/4)."""
    return float(
        spec.ecc / np.sqrt(2.0) * (spec.ej_max * spec.ej_fixed / spec.ec**2) ** 0.25
    )


def ecc_for_coupling(
    ej1: float, ej2: float, ec1: float, ec2: float, g_target: float
) -> float:
    """Coupler charging energy that produces a desired g (all GHz)."""
    return float(g_target * np.sqrt(2.0) / (ej1 * ej2 / (ec1 * ec2)) ** 0.25)


def default_transmon_spec(g_target: float = 0.009) -> TransmonSpec:
    """Nominal device: 30 / 27.7 GHz junctions, 203 MHz charging energy,
    d = 0.85, with the coupler energy chosen to hit ``g_target``."""
    ej_max, ej_fixed, ec = 30.0, 27.7, 0.203
    return TransmonSpec(
        ej_max=ej_max,
        ej_fixed=ej_fixed,
        ec=ec,
        ecc=ecc_for_coupling(ej_max, ej_fixed, ec, ec, g_target),
        d=0.85,
    )


def to_physical_time(t, g_phys: float):
    """Dimensionless time (units of 1/g) to ns; g_phys in GHz."""
    return np.asarray(t, dtype=float) / (2.0 * np.pi * g_phys)


def to_dimensionless_time(t_ns, g_phys: float):
    """Inverse of to_physical_time."""
    return np.asarray(t_ns, dtype=float) * (2.0 * np.pi * g_phys)


@dataclass(frozen=True, eq=False)
class FluxWaveform:
    """Flux bias Phi/Phi_0 sampled on a grid in ns."""

    grid: TimeGrid
    flux: np.ndarray

    def __post_init__(self) -> None:
        if self.flux.shape != (self.grid.n_steps + 1,):
            raise ValueError("flux must be sampled on the grid nodes")
        if np.max(np.abs(self.flux)) > 0.5 + 1e-12:
            raise ValueError("flux bias exceeds half a flux quantum")


def _invert_frequency(targets: np.ndarray, spec: TransmonSpec) -> np.ndarray:
    """Bisect Phi/Phi_0 in [0, 0.5] so the tunable qubit hits ``targets``.

    The frequency is monotone decreasing in flux on this interval for
    d < 1, so plain bisection converges; 64 halvings put the flux
    interval far below the 1e-9 GHz frequency tolerance.
    """
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, 0.5)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        f_mid = transmon_frequency(squid_ej(mid, spec.ej_max, spec.d), spec.ec)
        toolow = f_mid < targets
        hi = np.where(toolow, mid, hi)
        lo = np.where(toolow, lo, mid)
    return 0.5 * (lo + hi)


def flux_schedule_for(
    control: DriveSchedule,
    spec: TransmonSpec,
    g_phys: float = 0.009,
) -> FluxWaveform:
    """Flux waveform realizing omega1(t) = omega2 + delta_omega(t) * g_phys,
    where omega2 is the fixed partner's frequency.

    Every target must lie inside the tunable band; the inversion is
    verified by a forward round trip at each sample.
    """
    omega2 = float(transmon_frequency(spec.ej_fixed, spec.ec))
    targets = omega2 + control.delta_omega * g_phys

    band_lo = float(transmon_frequency(spec.ej_max * spec.d, spec.ec))
    band_hi = float(transmon_frequency(spec.ej_max, spec.ec))
    err = np.maximum(targets - band_hi, band_lo - targets)
    worst = int(np.argmax(err))
    if err[worst] > FLUX_TOLERANCE:
        t_worst = control.grid.times[worst]
        raise FluxRangeError(
            f"target frequency {targets[worst]:.9f} GHz at t = {t_worst:.6g} "
            f"(sample {worst}) is outside the tunable band "
            f"[{band_lo:.9f}, {band_hi:.9f}] GHz"
        )
    targets = np.clip(targets, band_lo, band_hi)

    flux = _invert_frequency(targets, spec)
    back = transmon_frequency(squid_ej(flux, spec.ej_max, spec.d), spec.ec)
    worst_rt = float(np.max(np.abs(back - targets)))
    if worst_rt > FLUX_TOLERANCE:
        raise FluxRangeError(
            f"flux inversion round-trip error {worst_rt:.3e} GHz exceeds "
            f"{FLUX_TOLERANCE:.0e} GHz"
        )

    grid = control.grid
    ns_grid = TimeGrid(
        t0=float(to_physical_time(grid.t0, g_phys)),
        t_end=float(to_physical_time(grid.t_end, g_phys)),
        n_steps=grid.n_steps,
    )
    return FluxWaveform(grid=ns_grid, flux=flux)


@dataclass(frozen=True, eq=False)
class RwaSchedule:
    """Single-qubit drive-frame schedule equivalent to a control."""

    grid: TimeGrid
    detuning: np.ndarray
    rabi: float
    metadata: dict


def rwa_emulation_map(control: DriveSchedule, rabi: float = 1.0) -> RwaSchedule:
    """Re-label a two-qubit-subspace control as drive detuning + Rabi rate.

    The dynamics are identical up to a global phase (the Hamiltonians
    differ by a multiple of the identity), so this is bookkeeping plus a
    validity annotation: the drive picture holds only well inside the
    anharmonicity.
    """
    max_det = float(np.max(np.abs(control.delta_omega)))
    if not np.allclose(control.coupling, rabi):
        warnings.warn(
            "control coupling is not constant at the requested Rabi rate; "
            "the re-labeling assumes a fixed drive amplitude",
            stacklevel=2,
        )
    return RwaSchedule(
        grid=control.grid,
        detuning=control.delta_omega.copy(),
        rabi=float(rabi),
        metadata={
            "assumption": "|detuning| and rabi small against the anharmonicity",
            "max_abs_detuning": max_det,
            "rabi": float(rabi),
        },
    )
