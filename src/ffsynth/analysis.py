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
from .ffst import FfstPhaseModel, build_magnification
from .zerocurves import SpeedControlledTrajectory, mask_runs, root_table

#: Dominance hysteresis for shift counting, suppressing chatter where
#: the two branch overlaps are nearly equal.
SHIFT_HYSTERESIS = 1e-6


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Outcome of one verification run."""

    fidelity: float
    final_state: TwoLevelState
    target_state: TwoLevelState
    control_label: str
    population_series: np.ndarray
    trajectory: ReferenceTrajectory = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.fidelity <= 1.0 + 1e-12):
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


def verify_control(
    control: DriveSchedule,
    initial: TwoLevelState,
    target: TwoLevelState,
    label: str = "",
) -> FidelityReport:
    """Re-integrate a control and score it against the target state."""
    traj = integrate_schrodinger(control, initial)
    final = traj.final_state
    return FidelityReport(
        fidelity=fidelity(final, target),
        final_state=final,
        target_state=target,
        control_label=label or control.label,
        population_series=traj.populations(),
        trajectory=traj,
    )


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
    grid: TimeGrid = field(default=None, repr=False)

    @property
    def shift_count(self) -> int:
        return len(self.shift_times)


def _branch_overlaps(
    branch: SpeedControlledTrajectory,
    p1: np.ndarray,
    p2: np.ndarray,
    times: np.ndarray,
    psi1: np.ndarray,
    psi2: np.ndarray,
) -> np.ndarray:
    f = branch.values_at(times)
    out = np.abs(np.conj(p1) * psi1 + np.conj(p2 * np.exp(1j * f)) * psi2)
    absent = (times < branch.t_start - 1e-12) | (times > branch.t_end + 1e-12)
    out[absent] = np.nan
    return out


def trajectory_shift_analysis(
    trajectory: ReferenceTrajectory,
    scts: list[SpeedControlledTrajectory],
    model: FfstPhaseModel,
    stride: int = 10,
) -> TrajectoryShiftSeries:
    """Which scaled branch the integrated state is riding, over time.

    Builds the scaled ansatz for each of the two full-span branches and
    tracks which has the larger overlap with the integrated state.  A
    shift event is a dominance change larger than the hysteresis; the
    initial label is deferred until one branch clearly leads.
    """
    labeled = {b.branch_id: b for b in scts}
    if "X" not in labeled or "Y" not in labeled:
        raise ValueError(
            "shift analysis needs the two full-span branches labeled X and Y"
        )
    x, y = labeled["X"], labeled["Y"]

    n = trajectory.grid.n_steps
    idx = np.arange(0, n + 1, stride)
    times = trajectory.grid.times[idx]
    psi1 = trajectory.phi1[idx]
    psi2 = trajectory.phi2[idx]

    p1, p2 = model.states_at(model.prof.lambda_at(times))

    ox = _branch_overlaps(x, p1, p2, times, psi1, psi2)
    oy = _branch_overlaps(y, p1, p2, times, psi1, psi2)

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
        grid=trajectory.grid,
    )


@dataclass(frozen=True, eq=False)
class GapDirectionProfile:
    """Root-count-vs-time profile for one magnification."""

    t_final: float
    times: np.ndarray
    counts: np.ndarray
    classification: str

    @property
    def zero_intervals(self) -> list[tuple[float, float]]:
        """Maximal time intervals with no root at all."""
        t = self.times.tolist()
        return [(t[i], t[min(j, len(t) - 1)]) for i, j in mask_runs(self.counts == 0)]


def gap_direction_scan(
    ref: ReferenceTrajectory,
    t_f_values=(1.0, 0.95, 1.05, 0.9, 1.1),
    n_grid: int = 4000,
    n_scan: int = 8000,
) -> dict[float, GapDirectionProfile]:
    """How the root structure opens as the run is sped up or slowed down.

    Slowing down splits the branches horizontally (roots persist, count
    stays positive); speeding up opens root-free intervals (vertical
    opening).  The unscaled run keeps the zero path available throughout.
    Counts come from ``root_table``: degenerate samples (residual
    identically zero) admit any phase and count -1, and samples where the
    amplitude vanishes but the offset does not admit none and count 0.
    """
    t_ref = ref.grid.t_end
    out: dict[float, GapDirectionProfile] = {}
    for t_f in t_f_values:
        grid = TimeGrid(0.0, t_f, n_grid)
        prof = build_magnification(t_ref, grid)
        model = FfstPhaseModel(ref, prof)
        times = np.linspace(0.0, t_f, n_scan + 1)
        counts = root_table(*model.sine_params(times))[2]
        interior_zero = np.any(counts[1:-1] == 0)
        alpha = prof.alpha_at(times)
        if interior_zero:
            classification = "vertical"
        elif np.max(np.abs(alpha - 1.0)) < 1e-9:
            classification = "reference"
        else:
            classification = "horizontal"
        out[float(t_f)] = GapDirectionProfile(
            t_final=float(t_f),
            times=times,
            counts=counts,
            classification=classification,
        )
    return out


def global_phase_check(
    control: DriveSchedule,
    shift,
    initial: TwoLevelState,
    target: TwoLevelState | None = None,
) -> float:
    """Invariance of the overlap under a common frequency shift.

    Shifting both qubit frequencies by the same amount only adds a
    global phase, so the overlap magnitude with any fixed target must
    not change.  Returns the absolute difference of the two overlap
    magnitudes; ``shift`` is a callable of time or samples on the
    interleaved node/midpoint grid.
    """
    grid = control.grid
    if callable(shift):
        shift_samples = np.asarray(shift(grid.half_times), dtype=float)
    else:
        shift_samples = np.asarray(shift, dtype=float)

    base = integrate_schrodinger(control, initial)
    shifted = integrate_schrodinger(control, initial, common_shift=shift_samples)
    if target is None:
        target = base.final_state.normalized()
    return abs(fidelity(base.final_state, target) - fidelity(shifted.final_state, target))
