"""Shortcut-driven scaling without a solved reference trajectory.

For a sweep that starts in an instantaneous eigenstate, the adiabatic
ansatz (u, v) = (cos chi, sin chi) with chi = atan2(g, dw/2) / 2 replaces
the integrated reference amplitudes.  The residual that the phase path
must null is

    beta(t, f2) = -v * chi_dot - g * v * sin f2.

Synthesis is FFST's at alpha = 1 with g_ff = g = 1 (the time unit) and
the real (u, v) as the reference, on the control grid its caller passes,
where its detuning is the special case

    dw_ff = dw + g * (v/u - u/v) * (1 - cos f2) + df2/dt,

which returns the input sweep bitwise for the zero path.

Each arm is scored against :func:`adiabatic_target`, the upper eigenstate
at the sweep's end.  It carries no dynamical phase: the fidelity is
|<target|psi(T)>|, which a global phase does not change.
"""

from __future__ import annotations

import numpy as np

from .drives import CosineSweepSpec
from .dynamics import DriveSchedule, TimeGrid, TwoLevelState
from .ffst import MagnificationProfile, synthesize_control
from .zerocurves import SCAN_POINTS, SpeedControlledTrajectory, link_branches


def eigenstate(spec: CosineSweepSpec, t):
    """(u, v) = (cos chi, sin chi), the sweep's upper eigenstate at ``t``."""
    chi = 0.5 * np.arctan2(1.0, 0.5 * np.asarray(spec.delta_omega(t), dtype=float))
    return np.cos(chi), np.sin(chi)


class StaPhaseModel:
    """Phase residual of an eigenstate-following sweep (phi0 = 0), with the
    model interface of :func:`~ffsynth.ffst.synthesize_control`: the
    identity magnification ``prof``, the real eigenstate (u, v) for the
    reference amplitudes, and the sweep's detuning."""

    def __init__(self, spec: CosineSweepSpec):
        self.spec = spec
        self.prof = MagnificationProfile(spec.duration, spec.duration)
        self.t_final = spec.duration

    def delta_omega_at(self, lam):
        return self.spec.delta_omega(lam)

    def states_at(self, lam):
        return eigenstate(self.spec, lam)

    def sine_params(self, t):
        half = 0.5 * np.asarray(self.spec.delta_omega(t), dtype=float)
        # a huge detuning overflows half**2 to inf: chi_dot becomes -0, its limit
        with np.errstate(over="ignore"):
            chi_dot = -0.25 * self.spec.delta_omega_rate(t) / (half**2 + 1.0)
        _, v = eigenstate(self.spec, t)
        return -v * chi_dot, v, np.zeros_like(v)


def adiabatic_target(spec: CosineSweepSpec) -> TwoLevelState:
    """The upper eigenstate at the sweep's end; fidelity ignores its phase."""
    return TwoLevelState(*eigenstate(spec, spec.duration))


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
    """Same as :func:`~ffsynth.ffst.synthesize_control`; the name stays
    because ``bench/layers.py`` probes it."""
    return synthesize_control(path, model, grid, label=label)
