"""Structure and frame diagnostics that back acceptance criteria 06 and 09.

No pipeline stage runs these; they inspect the package's residual model
and integrator from outside, so they live with the tests that use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffsynth.dynamics import (
    DriveSchedule,
    ReferenceTrajectory,
    TimeGrid,
    TwoLevelState,
    fidelity,
    integrate_schrodinger,
)
from ffsynth.ffst import FfstPhaseModel, build_magnification
from ffsynth.zerocurves import mask_runs, root_table


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
        grid = TimeGrid(t_f, n_scan)
        prof = build_magnification(t_ref, grid)
        model = FfstPhaseModel(ref, prof)
        times = grid.times
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
    shift: np.ndarray,
    initial: TwoLevelState,
    target: TwoLevelState | None = None,
) -> float:
    """Invariance of the overlap under a common frequency shift.

    Shifting both qubit frequencies by the same amount only adds a
    global phase, so the overlap magnitude with any fixed target must
    not change.  Returns the absolute difference of the two overlap
    magnitudes; ``shift`` holds samples on the interleaved node/midpoint
    grid ``control.grid.half_times``.
    """
    shifted = integrate_schrodinger(control, initial, common_shift=shift)
    base = integrate_schrodinger(control, initial)
    if target is None:
        s = base.final_state
        n = np.hypot(abs(s.phi1), abs(s.phi2))
        target = TwoLevelState(s.phi1 / n, s.phi2 / n)
    return abs(fidelity(base.final_state, target) - fidelity(shifted.final_state, target))


def read_beta_map(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, phases and ln|beta| (times x phases) of a ``beta_map.tsv``
    matrix: the header row holds the phases after its ``t\\f2`` label,
    and each row below a time and its values."""
    with open(path, "r", encoding="utf-8") as fh:
        n_phase = len(fh.readline().split("\t")) - 1
    phases = np.loadtxt(path, max_rows=1, usecols=range(1, n_phase + 1))
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    return rows[:, 0], phases, rows[:, 1:]
