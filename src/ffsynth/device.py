"""Mapping dimensionless schedules onto superconducting hardware.

Detunings produced by the synthesis modules are in units of the qubit
coupling g with time in units of 1/g.  This module converts them to a
flux bias for a SQUID-tunable transmon pair, inverting the transmon
frequency (Koch et al., Phys. Rev. A 76, 042319 (2007)) in closed form,
and annotates the equivalent single-qubit drive-frame schedule.  The
angular-frequency convention is
t_phys = t / (2 pi g_phys) with g_phys in GHz, so times come out in ns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import DriveSchedule

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
    rotating frame.  The asymmetry ``d`` lies in (0, 1): at d = 1 the
    frequency no longer depends on flux.
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
        if not (0.0 < self.d < 1.0):
            raise ValueError(f"junction asymmetry d must be in (0, 1), got {self.d}")
        for name in ("ej_max", "ej_fixed"):
            ratio = getattr(self, name) / self.ec
            if ratio < TRANSMON_RATIO_FLOOR:
                warnings.warn(
                    f"{name}/ec = {ratio:.1f} is below {TRANSMON_RATIO_FLOOR}; "
                    "the transmon frequency formula assumes E_J >> E_C",
                    stacklevel=2,
                )

    @property
    def band(self) -> tuple[float, float]:
        """Tunable qubit's frequencies (GHz) at half and at zero flux."""
        lo, hi = transmon_frequency([self.ej_max * self.d, self.ej_max], self.ec)
        return float(lo), float(hi)

    @property
    def omega2(self) -> float:
        """Fixed partner's frequency (GHz), the rotating frame."""
        return float(transmon_frequency(self.ej_fixed, self.ec))


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


def _invert_frequency(targets: np.ndarray, spec: TransmonSpec) -> np.ndarray:
    """Phi/Phi_0 in [0, 0.5] at which the tunable qubit hits ``targets``:
    E_J = (omega + E_C)^2 / (8 E_C) and (E_J / E_J^max)^2 =
    d^2 + (1 - d^2) cos^2(pi Phi), with cos^2 clipped to [0, 1] against
    rounding at the band edges."""
    ej = (targets + spec.ec) ** 2 / (8.0 * spec.ec)
    cos2 = ((ej / spec.ej_max) ** 2 - spec.d**2) / (1.0 - spec.d**2)
    return np.arccos(np.sqrt(np.clip(cos2, 0.0, 1.0))) / np.pi


def flux_schedule_for(
    control: DriveSchedule,
    spec: TransmonSpec,
    g_phys: float = 0.009,
) -> np.ndarray:
    """The flux bias Phi/Phi_0 at the control's nodes realizing
    omega1(t) = omega2 + delta_omega(t) * g_phys, where omega2 is the
    fixed partner's frequency.  The nodes lie on the control's grid, in
    ns ``to_physical_time(control.grid.times, g_phys)``.

    Every target the integrator drives, node or midpoint, must lie inside
    the tunable band; the inversion is verified by a forward round trip
    at each node.
    """
    grid = control.grid
    targets = spec.omega2 + control.delta_omega * g_phys

    band_lo, band_hi = spec.band
    err = np.maximum(targets - band_hi, band_lo - targets)
    worst = int(np.argmax(err))
    if err[worst] > FLUX_TOLERANCE:
        raise FluxRangeError(
            f"target frequency {targets[worst]:.9f} GHz at "
            f"t = {grid.half_times[worst]:.6g} (node/midpoint sample {worst}) is "
            f"outside the tunable band [{band_lo:.9f}, {band_hi:.9f}] GHz"
        )
    targets = np.clip(targets[::2], band_lo, band_hi)

    flux = _invert_frequency(targets, spec)
    back = transmon_frequency(squid_ej(flux, spec.ej_max, spec.d), spec.ec)
    worst_rt = float(np.max(np.abs(back - targets)))
    if not (worst_rt <= FLUX_TOLERANCE):  # a NaN fails too
        raise FluxRangeError(
            f"flux inversion round-trip error {worst_rt:.3e} GHz exceeds "
            f"{FLUX_TOLERANCE:.0e} GHz"
        )
    return flux


def rwa_emulation_map(control: DriveSchedule) -> dict:
    """Validity annotation of a control read as a single-qubit drive.

    The detuning is the control's own and the Rabi rate the coupling
    unit 1: the Hamiltonians differ by a multiple of the identity, so the
    dynamics agree up to a global phase.  The drive picture holds only
    well inside the anharmonicity.  Both the peak and the coupling check
    read every node and midpoint sample the integrator drives."""
    if not np.allclose(control.coupling, 1.0):
        warnings.warn(
            "control coupling is not constant at the unit Rabi rate; "
            "the re-labeling assumes a fixed drive amplitude",
            stacklevel=2,
        )
    return {
        "assumption": "|detuning| and rabi small against the anharmonicity",
        "max_abs_detuning": float(np.max(np.abs(control.delta_omega))),
        "rabi": 1.0,
    }
