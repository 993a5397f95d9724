"""Shortcut-driven scaling without a solved reference trajectory.

For a sweep that starts in an instantaneous eigenstate, the adiabatic
ansatz (u, v) = (cos chi, sin chi) with chi = atan2(g, dw/2) / 2 replaces
the integrated reference amplitudes.  The residual that the phase path
must null is

    beta(t, f2) = -v * chi_dot - g * v * sin f2,

and the detuning realizing a chosen path is

    dw_ff = dw + g * (v/u - u/v) * (1 - cos f2) + df2/dt,

which returns the input sweep bitwise for the zero path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drives import CosineSweepSpec, default_step_count
from .dynamics import DriveSchedule, TimeGrid, TwoLevelState
from .ffst import _fill_singular, _path_lift
from .zerocurves import PhaseResidualModel, SpeedControlledTrajectory, link_branches

#: Amplitude below which the eigenstate components count as singular.
EIGEN_FLOOR = 1e-9


@dataclass(frozen=True)
class EigenPair:
    """Instantaneous eigenstate (u, v) of the two-level Hamiltonian."""

    energy: float
    u: float
    v: float
    branch: str


def eigenpair(delta_omega: float, branch: str = "upper", g: float = 1.0) -> EigenPair:
    """Eigenvalue and real eigenvector at a fixed detuning.

    The upper branch is (cos chi, sin chi); the lower branch is its
    orthogonal complement (-sin chi, cos chi).
    """
    half = 0.5 * delta_omega
    r = np.hypot(half, g)
    chi = 0.5 * np.arctan2(g, half)
    u, v = np.cos(chi), np.sin(chi)
    if branch == "upper":
        return EigenPair(energy=half + r, u=u, v=v, branch="upper")
    if branch == "lower":
        return EigenPair(energy=half - r, u=-v, v=u, branch="lower")
    raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")


class StaPhaseModel(PhaseResidualModel):
    """Phase residual of an eigenstate-following sweep (phi0 = 0)."""

    def __init__(self, spec: CosineSweepSpec, g: float = 1.0):
        self.spec = spec
        self.g = g
        self.t_final = spec.duration

    def _angles(self, t):
        dw = self.spec.delta_omega(t)
        half = 0.5 * np.asarray(dw, dtype=float)
        chi = 0.5 * np.arctan2(self.g, half)
        chi_dot = (
            -0.25
            * self.g
            * self.spec.delta_omega_rate(t)
            / (half**2 + self.g**2)
        )
        return np.cos(chi), np.sin(chi), chi_dot

    def initial_state(self) -> TwoLevelState:
        u, v, _ = self._angles(0.0)
        return TwoLevelState(complex(u), complex(v))

    def sine_params(self, t):
        u, v, chi_dot = self._angles(t)
        return -v * chi_dot, self.g * v, np.zeros_like(v)


@dataclass(frozen=True)
class AdiabaticTarget:
    """End state of perfect eigenstate following, with its phase."""

    state: TwoLevelState
    phase_integral: float


def adiabatic_target(
    spec: CosineSweepSpec, grid: TimeGrid | None = None, g: float = 1.0
) -> AdiabaticTarget:
    """Final upper-branch eigenstate with the accumulated dynamical phase.

    The phase is the time integral of the upper eigenvalue; the state is
    (u, v) at the final detuning times exp(-i * integral).
    """
    if grid is None:
        grid = TimeGrid(0.0, spec.duration, default_step_count(spec.duration))
    t = grid.times
    half = 0.5 * spec.delta_omega(t)
    energy = half + np.hypot(half, g)
    theta = float(np.trapezoid(energy, t))
    end = eigenpair(float(spec.delta_omega(spec.duration)), "upper", g)
    phase = np.exp(-1j * theta)
    return AdiabaticTarget(
        state=TwoLevelState(end.u * phase, end.v * phase), phase_integral=theta
    )


def extract_sta_branches(
    model: StaPhaseModel, n_scan: int = 16_000, threshold: float = 0.2
) -> list[SpeedControlledTrajectory]:
    """Link the residual's zero curves into followable branches.

    Same as :func:`~ffsynth.zerocurves.link_branches`; the name stays
    because ``bench/layers.py`` probes it.
    """
    return link_branches(model, n_scan=n_scan, threshold=threshold)


def synthesize_sta_control(
    path,
    model: StaPhaseModel,
    grid: TimeGrid | None = None,
    label: str = "",
) -> DriveSchedule:
    """Detuning waveform realizing ``path`` on top of the sweep.

    ``path`` may be None for the zero path, which reproduces the input
    sweep exactly, or anything accepted by the fixed-coupling synthesis
    (an object with ``values_at`` or a callable).
    """
    spec = model.spec
    if grid is None:
        grid = TimeGrid(0.0, spec.duration, default_step_count(spec.duration))
    th = grid.half_times
    h2 = th[1] - th[0]

    dw = spec.delta_omega(th)
    if path is None:
        f2 = np.zeros_like(th)
        df2 = np.zeros_like(th)
    else:
        f2 = _path_lift(path, th)
        df2 = np.gradient(f2, h2, edge_order=2)

    u, v, _ = model._angles(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        dw_ff = dw + model.g * (v / u - u / v) * (1.0 - np.cos(f2)) + df2

    bad = (np.abs(u) < EIGEN_FLOOR) | (np.abs(v) < EIGEN_FLOOR) | ~np.isfinite(dw_ff)
    brackets = np.abs(1.0 - np.cos(f2))
    brackets[~bad] = 0.0
    dw_ff = _fill_singular(th, dw_ff, bad, brackets)

    return DriveSchedule.from_half_samples(
        grid, dw_ff, np.full_like(th, model.g), label=label
    )
