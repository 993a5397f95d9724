"""Zero curves of sinusoidal phase residuals.

Both control-synthesis engines in this package reduce the condition
"the second-level population follows the prescribed dynamics" to a
residual of the common form

    residual(t, f) = C(t) - D(t) * sin(f + phi0(t)),   D >= 0,

whose zero set in the (t, f) plane consists of curves ("branches").
A model is anything with ``t_final`` and ``sine_params(t)``, which
returns (C, D, phi0).  This module evaluates the residual
(``residual``, the one copy of the formula), solves it for f in closed
form on a whole scan at once (``root_table``, the one place that
decides where roots exist), links the roots into continuous branches,
labels the two full-span ones X and Y, and detects the time intervals
where no root exists.

Phases are canonicalized to [-pi, pi); pi and -pi label the same
physical point because the residual is 2*pi periodic in f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import pchip

TWO_PI = 2.0 * np.pi

#: Below this residual amplitude D the residual is flat in f: every phase
#: is a root when C vanishes as well, and no phase is when it does not.
DEGENERATE_FLOOR = 1e-12

#: Largest phase step (radians) the branch linker will follow between
#: consecutive scan samples.
LINKING_THRESHOLD = 0.2


def wrap_phase(x):
    """Map angles to the canonical interval [-pi, pi)."""
    return (np.asarray(x) + np.pi) % TWO_PI - np.pi


def residual(c, d, phi0, f):
    """C - D sin(f + phi0); zero marks a followable phase path."""
    return c - d * np.sin(f + phi0)


def root_table(c, d, phi0):
    """Solve C = D sin(f + phi0) for f in [-pi, pi) at every sample.

    Returns arrays ``(x1, x2, count)``.  ``count`` is -1 where the
    residual vanishes identically (D and |C| at the floor), 0 where no
    phase is a root (|C/D| > 1, or D at the floor while C is not), 1 where
    |C/D| sits within 1e-12 of 1 and the pair collapses to ``x1``, and 2
    otherwise.  Roots that do not exist are nan.
    """
    c, d, phi0 = (np.asarray(v, dtype=float) for v in (c, d, phi0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = c / d
    clipped = np.clip(s, -1.0, 1.0)
    count = np.where(
        np.abs(s) > 1.0 + 1e-12, 0, np.where(np.abs(np.abs(clipped) - 1.0) < 1e-12, 1, 2)
    )
    flat = d < DEGENERATE_FLOOR
    count = np.where(flat, np.where(np.abs(c) <= DEGENERATE_FLOOR, -1, 0), count)
    a = np.arcsin(clipped)
    x1 = np.where(count >= 1, wrap_phase(a - phi0), np.nan)
    x2 = np.where(count == 2, wrap_phase(np.pi - a - phi0), np.nan)
    return x1, x2, count


def mask_runs(mask) -> list[tuple[int, int]]:
    """Half-open index ranges [i, j) of the maximal runs of True in a mask."""
    m = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(m[1:] != m[:-1]).tolist()
    return list(zip(edges[0::2], edges[1::2]))


@dataclass
class SpeedControlledTrajectory:
    """One continuous zero curve f(t) of the residual.

    ``f2`` holds the unwrapped lift of the curve on the scan grid (nan
    where the branch does not exist) and ``valid`` the existence mask.
    The lift is continuous; its canonical image may jump by 2*pi.
    """

    times: np.ndarray
    f2: np.ndarray
    valid: np.ndarray
    branch_id: str

    t_start: float = field(init=False)
    t_end: float = field(init=False)
    start_phase: float = field(init=False)
    end_phase: float = field(init=False)
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        idx = np.flatnonzero(self.valid)
        self.t_start = float(self.times[idx[0]])
        self.t_end = float(self.times[idx[-1]])
        self.start_phase = float(self.f2[idx[0]])
        self.end_phase = float(self.f2[idx[-1]])

    @property
    def f2_canonical(self) -> np.ndarray:
        out = np.full_like(self.f2, np.nan)
        out[self.valid] = wrap_phase(self.f2[self.valid])
        return out

    def spans_full_domain(self) -> bool:
        """True when the branch covers at least 99% of the scan."""
        span = self.times[-1] - self.times[0]
        return (self.t_end - self.t_start) >= 0.99 * span

    def is_connected(self) -> bool:
        """True when the lift starts and ends within 0.05 of phase 0.

        The test is on the unwrapped lift: a curve that returns to 0 only
        modulo 2*pi has wound around the cylinder and is not counted as
        connecting the endpoints.
        """
        full = self.times[-1] - self.times[0]
        if (self.t_start - self.times[0]) > 0.01 * full:
            return False
        if (self.times[-1] - self.t_end) > 0.01 * full:
            return False
        return abs(self.start_phase) < 0.05 and abs(self.end_phase) < 0.05

    def values_at(self, t) -> np.ndarray:
        """Lift values at arbitrary times, clamped to the valid span."""
        if self._interp is None:
            self._interp = pchip(self.times[self.valid], self.f2[self.valid])
        return self._interp(np.clip(t, self.t_start, self.t_end))


def link_branches(
    model,
    n_scan: int = 16_000,
    min_samples: int = 6,
) -> list[SpeedControlledTrajectory]:
    """Scan the residual over time and link roots into branches.

    At each scan sample the closed-form roots are claimed by the active
    branches through a globally nearest-first pairing; roots left over
    found new branches, and branches left without a root terminate.
    Branch lifts grow by wrapped increments so each stays continuous even
    while its canonical image crosses the -pi/pi seam.
    """
    t = np.linspace(0.0, model.t_final, n_scan + 1)
    x1, x2, count = root_table(*model.sine_params(t))
    active: list[dict] = []
    done: list[dict] = []

    pi, two_pi = float(np.pi), float(TWO_PI)

    def wrap(x: float) -> float:
        # wrap_phase's float operations on a Python float, so lifts keep their bits
        return (x + pi) % two_pi - pi

    for k, (r1, r2, n) in enumerate(zip(x1.tolist(), x2.tolist(), count.tolist())):
        if n < 0:
            # every phase is a root here; branches pass through untouched
            continue
        roots = (r1, r2)[:n]
        pairs = sorted(
            (abs(wrap(v - br["fs"][-1])), bi, ri)
            for bi, br in enumerate(active)
            for ri, v in enumerate(roots)
        )
        taken_b: set[int] = set()
        taken_r: set[int] = set()
        for dist, bi, ri in pairs:
            if bi in taken_b or ri in taken_r or dist >= LINKING_THRESHOLD:
                continue
            taken_b.add(bi)
            taken_r.add(ri)
            br = active[bi]
            br["ks"].append(k)
            br["fs"].append(br["fs"][-1] + wrap(roots[ri] - br["fs"][-1]))
        survivors = []
        for bi, br in enumerate(active):
            (survivors if bi in taken_b else done).append(br)
        for ri, v in enumerate(roots):
            if ri not in taken_r:
                survivors.append({"ks": [k], "fs": [v]})
        active = survivors

    done.extend(active)

    out: list[SpeedControlledTrajectory] = []
    for br in done:
        if len(br["ks"]) < min_samples:
            continue
        f2 = np.full(n_scan + 1, np.nan)
        valid = np.zeros(n_scan + 1, dtype=bool)
        ks = np.asarray(br["ks"], dtype=int)
        f2[ks] = br["fs"]
        valid[ks] = True
        out.append(
            SpeedControlledTrajectory(times=t, f2=f2, valid=valid, branch_id="")
        )
    out.sort(key=lambda b: (b.t_start, b.start_phase))
    for i, b in enumerate(out):
        b.branch_id = f"B{i}"

    # canonical X/Y labels for the two-branch full-span geometry: Y is the
    # branch whose canonical end phase is nearer 0
    full = [b for b in out if b.spans_full_domain()]
    if len(out) == 2 and len(full) == 2:
        a, b = sorted(out, key=lambda s: abs(float(wrap_phase(s.end_phase))))
        a.branch_id = "Y"
        b.branch_id = "X"
    return out


def x_and_y(branches):
    """The two full-span branches ``link_branches`` labelled X and Y, or
    None when the run does not have both."""
    labeled = {b.branch_id: b for b in branches}
    if "X" in labeled and "Y" in labeled:
        return labeled["X"], labeled["Y"]
    return None


@dataclass(frozen=True)
class Gap:
    """Maximal time interval where the residual has no root."""

    t_start: float
    t_end: float

    @property
    def width(self) -> float:
        return self.t_end - self.t_start


def detect_gaps(
    model,
    branches: Sequence[SpeedControlledTrajectory],
    n_scan: int = 16_000,
) -> list[Gap]:
    """Maximal intervals not covered by any branch.

    Degenerate samples (residual identically zero) count as covered, so a
    vanishing product of reference amplitudes does not open a gap; samples
    where no phase is a root do not.
    """
    t = np.linspace(0.0, model.t_final, n_scan + 1)
    covered = root_table(*model.sine_params(t))[2] < 0
    for br in branches:
        covered |= (t >= br.t_start - 1e-12) & (t <= br.t_end + 1e-12)

    gaps: list[Gap] = []
    for k, j in mask_runs(~covered):
        lo = t[k - 1] if k > 0 else t[0]
        hi = t[j] if j < len(t) else t[-1]
        gaps.append(Gap(t_start=float(lo), t_end=float(hi)))
    return gaps


def branch_touch_times(
    x: SpeedControlledTrajectory,
    y: SpeedControlledTrajectory,
    separation_threshold: float = 1.2,
    n_scan: int = 16_000,
) -> list[float]:
    """Times where two full-span branches approach each other.

    Local minima of the canonical phase separation below the threshold
    mark the narrow corridors where travel between the branches is cheap.
    """
    t0 = max(x.t_start, y.t_start)
    t1 = min(x.t_end, y.t_end)
    t = np.linspace(t0, t1, n_scan + 1)
    sep = np.abs(wrap_phase(x.values_at(t) - y.values_at(t)))
    mid = sep[1:-1]
    hit = (
        (mid < sep[:-2])
        & (mid <= sep[2:])
        & (mid < separation_threshold)
        & ((t[1:-1] - t0) > 0.05 * (t1 - t0))
    )
    return t[1:-1][hit].tolist()
