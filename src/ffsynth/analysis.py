"""Independent verification and diagnostics for synthesized controls.

Every fidelity reported here comes from re-integrating the Schrodinger
equation under the synthesized waveform and comparing the final state
to the target by overlap magnitude; nothing is inferred from the
synthesis itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    DriveSchedule,
    ReferenceTrajectory,
    TimeGrid,
    TwoLevelState,
    fidelity,
    integrate_schrodinger,
)
from .zerocurves import SpeedControlledTrajectory, branch_lifts, x_and_y

#: Dominance hysteresis for shift counting, suppressing chatter where
#: the two branch overlaps are nearly equal.
SHIFT_HYSTERESIS = 1e-6


class VerificationError(ValueError):
    """Raised when a re-integration scores a fidelity outside [0, 1].  The
    step is unitary, so only a state off unit norm or rounding can."""


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Outcome of one verification run: the fidelity of the re-integrated
    final state, the trajectory it ends, and ``step_error``, the
    step-doubling estimate |F_h - F_2h| of the fidelity's integration
    error (for a fourth-order step, F_h itself is off by about 1/15 of
    it).  The estimate is a report; nothing is rejected on it."""

    fidelity: float
    trajectory: ReferenceTrajectory = field(repr=False)
    step_error: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fidelity <= 1.0 + 1e-12):
            raise VerificationError(f"fidelity {self.fidelity} outside [0, 1]")


def _coarse_final_state(control: DriveSchedule, initial: TwoLevelState) -> TwoLevelState:
    """The control's final state at twice its step.  The even nodes are
    the 2h grid's nodes and the odd nodes its midpoints, so no waveform is
    evaluated again; an odd step count takes its last step at h."""
    grid = control.grid
    n, m = grid.n_steps, grid.n_steps // 2
    dw, g = control.delta_omega, control.coupling
    state = initial
    if m:
        coarse = TimeGrid(grid.t_end - (n % 2) * grid.h, m)
        state = integrate_schrodinger(
            DriveSchedule(coarse, dw[: 4 * m + 1 : 2], g[: 4 * m + 1 : 2]), state
        ).final_state
    if n % 2:
        last = DriveSchedule(TimeGrid(grid.h, 1), dw[-3:], g[-3:])
        state = integrate_schrodinger(last, state).final_state
    return state


def verify_control(
    control: DriveSchedule, initial: TwoLevelState, target: TwoLevelState
) -> FidelityReport:
    """Re-integrate a control and score it against the target state, with
    the fidelity's step-doubling error estimate."""
    traj = integrate_schrodinger(control, initial)
    f_h = fidelity(traj.final_state, target)
    f_2h = fidelity(_coarse_final_state(control, initial), target)
    return FidelityReport(fidelity=f_h, trajectory=traj, step_error=abs(f_h - f_2h))


@dataclass(frozen=True, eq=False)
class TrajectoryShiftSeries:
    """Branch-overlap magnitudes along an integrated run.

    ``dominant`` holds "X"/"Y" per sample ("" while neither branch has
    won by more than the hysteresis); ``shift_times`` are the samples at
    which dominance changed.
    """

    times: np.ndarray
    overlap_x: np.ndarray
    overlap_y: np.ndarray
    dominant: np.ndarray
    shift_times: tuple[float, ...]

    @property
    def shift_count(self) -> int:
        return len(self.shift_times)


def _branch_overlaps(
    branch: SpeedControlledTrajectory,
    f: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    times: np.ndarray,
    psi1: np.ndarray,
    psi2: np.ndarray,
) -> np.ndarray:
    out = np.abs(np.conj(p1) * psi1 + np.conj(p2 * np.exp(1j * f)) * psi2)
    absent = (times < branch.t_start - 1e-12) | (times > branch.t_end + 1e-12)
    out[absent] = np.nan
    return out


def trajectory_shift_analysis(
    trajectory: ReferenceTrajectory,
    scts: list[SpeedControlledTrajectory],
    stride: int = 10,
) -> TrajectoryShiftSeries:
    """Which scaled branch the integrated state is riding, over time.

    Builds the scaled ansatz for each of the two full-span branches, from
    the FFST model that branch X follows, and tracks which has the larger
    overlap with the integrated state.  A shift event is a dominance
    change larger than the hysteresis; the initial label is deferred
    until one branch clearly leads.  Raises ``ScanError`` when C, D or
    phi0 is not finite at an analysis time.
    """
    xy = x_and_y(scts)
    if xy is None:
        raise ValueError(
            "shift analysis needs the two full-span branches labeled X and Y"
        )
    x, y = xy

    n = trajectory.grid.n_steps
    idx = np.arange(0, n + 1, stride)
    times = trajectory.grid.times[idx]
    psi1 = trajectory.phi1[idx]
    psi2 = trajectory.phi2[idx]

    p1, p2 = x.model.states_at(x.model.prof.lambda_at(times))

    fx, fy = branch_lifts((x, y), times)
    ox = _branch_overlaps(x, fx, p1, p2, times, psi1, psi2)
    oy = _branch_overlaps(y, fy, p1, p2, times, psi1, psi2)

    dominant = np.full(len(times), "", dtype=object)
    shifts: list[float] = []
    state = None
    for k in range(len(times)):
        if np.isnan(ox[k]) or np.isnan(oy[k]):
            dominant[k] = state or ""
            continue
        delta = ox[k] - oy[k]
        if state is None:
            if abs(delta) > SHIFT_HYSTERESIS:
                state = "X" if delta > 0 else "Y"
        elif state == "X" and delta < -SHIFT_HYSTERESIS:
            state = "Y"
            shifts.append(float(times[k]))
        elif state == "Y" and delta > SHIFT_HYSTERESIS:
            state = "X"
            shifts.append(float(times[k]))
        dominant[k] = state or ""
    return TrajectoryShiftSeries(
        times=times,
        overlap_x=ox,
        overlap_y=oy,
        dominant=dominant,
        shift_times=tuple(shifts),
    )
