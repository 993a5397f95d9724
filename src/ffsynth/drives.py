"""Reference drive construction and integration.

The canonical reference is a half-period cosine detuning sweep

    dw(t) = dw0 * cos(pi t / T),   g(t) = 1,   t in [0, T],

which carries the qubit detuning from +dw0 through resonance to -dw0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DriveSchedule,
    ReferenceTrajectory,
    TimeGrid,
    TwoLevelState,
    integrate_schrodinger,
)

#: Largest default step size (in units of 1/g).  The Magnus step is
#: unitary, so the step is set by accuracy, not by norm drift: on the sta
#: sweep at T = 300 the default grid's fidelity agrees with four times the
#: steps to 1e-10, and every duration up to 300 takes the MIN_STEPS floor.
MAX_STEP = 1.5e-2

#: Floor on the number of integration steps regardless of duration.
MIN_STEPS = 20_000

#: Most integration steps one run may take (the paper's budget); the
#: default step count reaches it at a duration of 1500.
MAX_STEPS = 100_000


def default_step_count(duration: float) -> int:
    """Default integration step count for a run of the given duration."""
    # the 1e-12 relative slack keeps exact multiples of MAX_STEP from
    # rounding up when the quotient lands an ulp above the integer
    return max(MIN_STEPS, int(math.ceil(duration / MAX_STEP * (1.0 - 1e-12))))


@dataclass(frozen=True)
class CosineSweepSpec:
    """Parameters of the cosine detuning sweep."""

    delta_omega0: float
    duration: float

    def __post_init__(self) -> None:
        if not self.duration > 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    def delta_omega(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.delta_omega0 * np.cos(np.pi * np.asarray(t) / self.duration)

    def delta_omega_rate(self, t: np.ndarray | float) -> np.ndarray | float:
        w = np.pi / self.duration
        return -self.delta_omega0 * w * np.sin(w * np.asarray(t))


def _antisymmetrize(values: np.ndarray) -> np.ndarray:
    """Mirror the first half onto the second so v[m-k] == -v[k] bitwise."""
    v = values.copy()
    m = len(v) - 1
    h = (m + 1) // 2
    v[m - h + 1 :] = -v[:h][::-1]
    if m % 2 == 0:
        v[m // 2] = 0.0
    return v


def build_cosine_sweep(spec: CosineSweepSpec, grid: TimeGrid) -> DriveSchedule:
    """Sample the cosine sweep on ``grid`` with exact midpoint values.

    The grid must end at the sweep's duration.  The cosine is evaluated at
    the nodes and at the nodes' averages (not on ``grid.half_times``, whose
    midpoints differ in the last bit), and the interleaved samples are
    mirrored so the antisymmetry dw(T - t) = -dw(t) holds at the bit level
    on the grid, which the underlying cosine satisfies only up to rounding.
    """
    grid.check_span(spec.duration)
    t = grid.times
    dw = np.empty(2 * grid.n_steps + 1)
    dw[::2] = spec.delta_omega(t)
    dw[1::2] = spec.delta_omega(0.5 * (t[:-1] + t[1:]))
    return DriveSchedule(grid, _antisymmetrize(dw), np.ones_like(dw))


def solve_reference(
    spec: CosineSweepSpec,
    grid: TimeGrid | None = None,
    initial: TwoLevelState | None = None,
) -> ReferenceTrajectory:
    """Integrate the cosine sweep from the bare upper level (1, 0)."""
    if grid is None:
        grid = TimeGrid(spec.duration, default_step_count(spec.duration))
    if initial is None:
        initial = TwoLevelState(1.0 + 0.0j, 0.0 + 0.0j)
    drive = build_cosine_sweep(spec, grid)
    return integrate_schrodinger(drive, initial)
