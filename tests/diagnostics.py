"""Structure and frame diagnostics that back acceptance criteria 06 and 09,
and the ln|beta| map rebuilt from ``residual.tsv``.

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
from ffsynth.ffst import FfstPhaseModel, MagnificationProfile
from ffsynth.zerocurves import mask_runs, residual, root_table


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
        prof = MagnificationProfile(t_ref, t_f)
        model = FfstPhaseModel(ref, prof)
        times = TimeGrid(t_f, n_scan).times
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


#: The phases of the ln|beta| map that output schema 2 wrote: 512 over
#: [-pi, pi), without the +pi column, which would repeat the first.
MAP_PHASES = -np.pi + 2.0 * np.pi * np.arange(512) / 512

#: Floor on |beta| before the logarithm, as that map took it.
LN_BETA_FLOOR = 1e-14


def beta_map_from_residual(
    path: str, t_final: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, phases and ln|beta| (times x phases) rebuilt from a
    ``residual.tsv`` over [0, ``t_final``]: the matrix output schema 2
    wrote as ``beta_map.tsv``.  The table's rows are uniform times."""
    c, d, phi0 = np.loadtxt(path, skiprows=1, unpack=True)
    t = np.linspace(0.0, t_final, len(c))
    beta = residual(c[:, None], d[:, None], phi0[:, None], MAP_PHASES[None, :])
    return t, MAP_PHASES, np.log(np.maximum(np.abs(beta), LN_BETA_FLOOR))
