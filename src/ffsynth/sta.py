"""Shortcut-driven scaling without a solved reference trajectory.

For a sweep that starts in an instantaneous eigenstate, the adiabatic
ansatz (u, v) = (cos chi, sin chi) with chi = atan2(g, dw/2) / 2 replaces
the integrated reference amplitudes.  The residual that the phase path
must null is

    beta(t, f2) = -v * chi_dot - g * v * sin f2,

and the detuning realizing a chosen path is

    dw_ff = dw + g * (v/u - u/v) * (1 - cos f2) + df2/dt,

which returns the input sweep bitwise for the zero path.  The coupling
is the time unit, g = 1, as for the FFST reference's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drives import CosineSweepSpec, default_step_count
from .dynamics import DriveSchedule, TimeGrid, TwoLevelState
from .ffst import _fill_singular, _half_grid_samples
from .zerocurves import SCAN_POINTS, SpeedControlledTrajectory, link_branches

#: Amplitude below which the eigenstate components count as singular.
EIGEN_FLOOR = 1e-9


class StaPhaseModel:
    """Phase residual of an eigenstate-following sweep (phi0 = 0)."""

    def __init__(self, spec: CosineSweepSpec):
        self.spec = spec
        self.t_final = spec.duration

    def _angles(self, t):
        """(u, v) = (cos chi, sin chi) of the upper eigenstate, with
        chi = atan2(g, dw/2) / 2, and chi's time derivative."""
        dw = self.spec.delta_omega(t)
        half = 0.5 * np.asarray(dw, dtype=float)
        chi = 0.5 * np.arctan2(1.0, half)
        # a huge detuning overflows half**2 to inf: chi_dot becomes -0, its limit
        with np.errstate(over="ignore"):
            chi_dot = -0.25 * self.spec.delta_omega_rate(t) / (half**2 + 1.0)
        return np.cos(chi), np.sin(chi), chi_dot

    def initial_state(self) -> TwoLevelState:
        u, v, _ = self._angles(0.0)
        return TwoLevelState(complex(u), complex(v))

    def sine_params(self, t):
        u, v, chi_dot = self._angles(t)
        return -v * chi_dot, v, np.zeros_like(v)


@dataclass(frozen=True)
class AdiabaticTarget:
    """End state of perfect eigenstate following, with its phase."""

    state: TwoLevelState
    phase_integral: float


def adiabatic_target(
    spec: CosineSweepSpec, grid: TimeGrid | None = None
) -> AdiabaticTarget:
    """Final upper-branch eigenstate with the accumulated dynamical phase.

    The phase is the time integral of the upper eigenvalue; the state is
    (u, v) at the final detuning times exp(-i * integral).
    """
    if grid is None:
        grid = TimeGrid(spec.duration, default_step_count(spec.duration))
    t = grid.times
    half = 0.5 * spec.delta_omega(t)
    energy = half + np.hypot(half, 1.0)
    theta = float(np.trapezoid(energy, t))
    u, v, _ = StaPhaseModel(spec)._angles(spec.duration)
    phase = np.exp(-1j * theta)
    return AdiabaticTarget(TwoLevelState(u * phase, v * phase), phase_integral=theta)


def extract_sta_branches(
    model: StaPhaseModel, n_scan: int = SCAN_POINTS
) -> list[SpeedControlledTrajectory]:
    """Link the residual's zero curves into followable branches.

    Same as :func:`~ffsynth.zerocurves.link_branches`; the name stays
    because ``bench/layers.py`` probes it.
    """
    return link_branches(model, n_scan=n_scan)


def synthesize_sta_control(
    path, model: StaPhaseModel, grid: TimeGrid, label: str = ""
) -> DriveSchedule:
    """Detuning waveform realizing ``path`` on top of the sweep.

    ``path`` is the phase lift sampled on ``grid.half_times`` (a virtual
    trajectory's ``f2_lift``); zeros reproduce the input sweep exactly.
    """
    th = grid.half_times
    h2 = th[1] - th[0]

    dw = model.spec.delta_omega(th)
    f2 = _half_grid_samples("path", path, th)
    df2 = np.gradient(f2, h2, edge_order=2)

    u, v, _ = model._angles(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        dw_ff = dw + (v / u - u / v) * (1.0 - np.cos(f2)) + df2

    bad = (np.abs(u) < EIGEN_FLOOR) | (np.abs(v) < EIGEN_FLOOR) | ~np.isfinite(dw_ff)
    brackets = np.abs(1.0 - np.cos(f2))
    brackets[~bad] = 0.0
    dw_ff = _fill_singular(th, dw_ff, bad, brackets)

    return DriveSchedule(grid, dw_ff, np.ones_like(th), label=label)
