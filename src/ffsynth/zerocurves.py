"""Zero curves of sinusoidal phase residuals.

Both control-synthesis engines in this package reduce the condition
"the second-level population follows the prescribed dynamics" to a
residual of the common form

    residual(t, f) = C(t) - D(t) * sin(f + phi0(t)),   D >= 0,

whose zero set in the (t, f) plane consists of curves ("branches").
A model is anything with ``t_final`` and ``sine_params(t)``, which
returns (C, D, phi0); ``sample_params`` samples them and rejects a value
that is not finite.  This module evaluates the residual
(``residual``, the one copy of the formula), solves it for f in closed
form on a whole scan at once (``root_table``, the one place that
decides where roots exist), links the roots into continuous branches,
labels the two full-span ones X and Y, and detects the time intervals
where no root exists.  A branch holds only the scan samples where it
exists, with its lift at each; between them it is a root as well:
``branch_lifts`` evaluates it from the run's model.

There are at most two roots per sample, so linking pairs the roots of
each sample with those of the sample before it through a 2x2 table of
wrapped distances, for every sample at once (``_pair_rows``).  Each
branch's unwrapped lift then follows f <- f + wrap(r - f) on Python
floats, root by root (``_chains``); the few pairings that a rounding of
the lift could flip are re-decided on the lifts themselves
(``_settle_row``).

Phases are canonicalized to [-pi, pi); pi and -pi label the same
physical point because the residual is 2*pi periodic in f.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * np.pi

#: Below this residual amplitude D the residual is flat in f: every phase
#: is a root when C vanishes as well, and no phase is when it does not.
DEGENERATE_FLOOR = 1e-12

#: Scan intervals of the residual unless ``grid.scan_points`` sets them.
SCAN_POINTS = 16_000

#: Largest phase step (radians) the branch linker will follow between
#: consecutive scan samples.
LINKING_THRESHOLD = 0.2

#: Pairing decisions closer than this (radians) to another outcome are
#: re-decided on the exact lifts.  A lift differs from its canonical root
#: by a multiple of 2*pi and a few ulps of itself; lifts move by less than
#: LINKING_THRESHOLD per sample, so on scans of up to a million samples
#: that rounding stays below 2e-10.
NEAR_TIE = 1e-9

# distance of a pair with a missing root: beyond any wrapped distance (pi)
_MISSING = 4.0


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

    ``times`` holds the scan samples where the branch exists, in time
    order, and ``f2`` the unwrapped lift of the curve at them.  The lift
    is continuous; its canonical image may jump by 2*pi.  ``model`` is
    the residual model whose roots the branch follows (see
    ``branch_lifts``); the scan runs over [0, ``model.t_final``].
    """

    times: np.ndarray
    f2: np.ndarray
    branch_id: str
    model: object = field(repr=False, compare=False)

    t_start: float = field(init=False)
    t_end: float = field(init=False)
    start_phase: float = field(init=False)
    end_phase: float = field(init=False)

    def __post_init__(self) -> None:
        self.t_start = float(self.times[0])
        self.t_end = float(self.times[-1])
        self.start_phase = float(self.f2[0])
        self.end_phase = float(self.f2[-1])

    def spans_full_domain(self) -> bool:
        """True when the branch covers at least 99% of the scan."""
        return (self.t_end - self.t_start) >= 0.99 * self.model.t_final

    def is_connected(self) -> bool:
        """True when the lift starts and ends within 0.05 of phase 0.

        The test is on the unwrapped lift: a curve that returns to 0 only
        modulo 2*pi has wound around the cylinder and is not counted as
        connecting the endpoints.
        """
        full = self.model.t_final
        if self.t_start > 0.01 * full or (full - self.t_end) > 0.01 * full:
            return False
        return abs(self.start_phase) < 0.05 and abs(self.end_phase) < 0.05


class ScanError(ValueError):
    """Raised when the residual's parameters are not finite where sampled."""


def sample_params(model, t):
    """``model.sine_params(t)``, the residual's (C, D, phi0) at times ``t``.

    Raises ``ScanError`` naming the parameters and the time of the first
    sample where C, D or phi0 is not finite.
    """
    params = model.sine_params(t)
    finite = np.isfinite(params)
    if not finite.all():
        k = int(np.argmin(finite.all(axis=0)))
        names = "/".join(n for n, ok in zip(("C", "D", "phi0"), finite) if not ok[k])
        raise ScanError(f"residual {names} is not finite at t = {float(t[k])!r}")
    return params


def _pair_rows(roots):
    """Nearest-first pairing of each row of roots with the row before it.

    ``roots`` is (m, 2), nan where a root does not exist.  Returns
    ``pred`` (m, 2), the flat slot ``2 * j + b`` of the root each root
    continues or -1, and ``near`` (m,), the rows whose decision lies
    within ``NEAR_TIE`` of another outcome.  Of the two links that do not
    share a root, the identity pair (0-0, 1-1) or the swapped pair
    (0-1, 1-0), the family holding the smallest distance wins, and each
    of its links is made below ``LINKING_THRESHOLD``.  That is the greedy
    outcome on a 2x2 table whenever the two families' smallest distances
    differ; where they tie, the row is near.
    """
    m = len(roots)
    # e[j - 1, 2 * b + a] = |wrap(roots[j, a] - roots[j - 1, b])|; a missing
    # root reads as _MISSING, farther than any wrapped distance
    e = np.abs(wrap_phase(roots[1:, None, :] - roots[:-1, :, None])).reshape(-1, 4)
    e = np.nan_to_num(e, nan=_MISSING)
    same = np.minimum(e[:, 0], e[:, 3])
    cross = np.minimum(e[:, 1], e[:, 2])
    swap = cross < same
    link = np.where(swap[:, None], e[:, [2, 1]], e[:, [0, 3]]) < LINKING_THRESHOLD
    src = 2 * np.arange(m - 1)[:, None] + (swap[:, None] ^ np.array([False, True]))
    pred = np.full((m, 2), -1)
    pred[1:] = np.where(link, src, -1)
    near = np.zeros(m, dtype=bool)
    near[1:] = (
        (np.abs(same - cross) < NEAR_TIE) & (np.minimum(same, cross) < LINKING_THRESHOLD)
    ) | (np.abs(e - LINKING_THRESHOLD) < NEAR_TIE).any(axis=1)
    return pred.ravel(), near


def _chains(roots, pred):
    """Chains of the flat root slots under ``pred`` and their exact lifts.

    Returns ``head`` (each slot's chain start, found by pointer jumping),
    ``order`` (the slots that hold a root, grouped by chain in start order
    and in time order within a chain), ``cuts`` (where each chain begins
    in ``order``) and ``lift`` (the lift of every slot, nan where no root).
    Each lift runs the recurrence f <- f + wrap(r - f) on Python floats,
    the same operations in the same order as a per-sample loop would.
    """
    head = np.where(pred >= 0, pred, np.arange(len(pred)))
    while True:
        nxt = head[head]
        if np.array_equal(nxt, head):
            break
        head = nxt
    flat = roots.ravel()
    held = np.flatnonzero(~np.isnan(flat))
    order = held[np.argsort(head[held], kind="stable")]
    cuts = np.flatnonzero(np.diff(head[order], prepend=-1)).tolist()
    pi, two_pi = float(np.pi), float(TWO_PI)
    # floats pass one at a time through a memoryview into an array: lists
    # of every lift as Python floats left about 2 MB resident after the call
    values = memoryview(flat[order])
    lifted = array("d")
    for i, j in zip(cuts, cuts[1:] + [len(values)]):
        f = values[i]
        lifted.append(f)
        for r in values[i + 1 : j]:
            f += (r - f + pi) % two_pi - pi
            lifted.append(f)
    lift = np.full(len(flat), np.nan)
    lift[order] = np.frombuffer(lifted)
    return head, order, cuts, lift


def _settle_row(j, roots, head, lift):
    """Row ``j``'s pairing decided as the per-sample loop decides it.

    Distances are taken from the exact lifts of row ``j - 1``, and equal
    distances are ordered by the active list (chain start) and then by
    root.  Returns the row's two ``pred`` entries.
    """
    pi, two_pi = float(np.pi), float(TWO_PI)
    prev = [
        (float(lift[s]), int(head[s]), s)
        for s in (2 * j - 2, 2 * j - 1)
        if not np.isnan(lift[s])
    ]
    cur = [(a, v) for a, v in enumerate(roots[j].tolist()) if not np.isnan(v)]
    pairs = sorted(
        (abs((v - f + pi) % two_pi - pi), h, a, s)
        for f, h, s in prev
        for a, v in cur
    )
    row = [-1, -1]
    for dist, _, a, s in pairs:
        if dist < LINKING_THRESHOLD and row[a] < 0 and s not in row:
            row[a] = s
    return row


def link_branches(
    model,
    n_scan: int = SCAN_POINTS,
    min_samples: int = 6,
) -> list[SpeedControlledTrajectory]:
    """Scan the residual over time and link roots into branches.

    Degenerate samples (every phase a root) are passed over.  Between two
    consecutive other samples the active branches are exactly the roots
    of the earlier one, so each pairing is a 2x2 table of wrapped
    distances, decided for all samples at once: the roots are claimed
    globally nearest-first below ``LINKING_THRESHOLD``, roots left over
    found new branches, and branches left without a root terminate.
    Chains are labelled by pointer jumping over the predecessor array.
    Each lift grows by f <- f + wrap(r - f) on Python floats, so it stays
    continuous across the -pi/pi seam.  The decisions use canonical roots,
    which differ from the lifts by rounding only; a row within
    ``NEAR_TIE`` of another outcome is re-decided on the exact lifts, with
    equal distances ordered by branch age and then by root, as a
    per-sample loop orders them.

    Raises ``ScanError`` when C, D or phi0 is not finite at a scan sample.
    """
    t = np.linspace(0.0, model.t_final, n_scan + 1)
    x1, x2, count = root_table(*sample_params(model, t))
    keep = np.flatnonzero(count >= 0)
    roots = np.stack((x1[keep], x2[keep]), axis=1)

    pred, near = _pair_rows(roots)
    head, order, cuts, lift = _chains(roots, pred)
    for j in np.flatnonzero(near).tolist():
        row = _settle_row(j, roots, head, lift)
        if row != pred[2 * j : 2 * j + 2].tolist():
            pred[2 * j : 2 * j + 2] = row
            head, order, cuts, lift = _chains(roots, pred)

    out: list[SpeedControlledTrajectory] = []
    for i, j in zip(cuts, cuts[1:] + [len(order)]):
        if j - i < min_samples:
            continue
        slots = order[i:j]
        times, f2 = t[keep[slots // 2]], lift[slots]
        out.append(SpeedControlledTrajectory(times, f2, branch_id="", model=model))
    # no two branches share a first sample and root, so this order does not
    # depend on the order the chains were found in
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


def branch_lifts(branches, t) -> list[np.ndarray]:
    """Each branch's lift at times ``t``, from the roots of its model.

    Each model is sampled once at ``t``; the branches of a run share one.
    A branch's chord, the linear interpolant of its lift samples held at
    its end samples outside its span, picks the root: of the two roots,
    each lifted to the chord's turn, the one nearer the chord.  The chord
    stands where no root exists and outside the span.  Nearest to the
    chord, not to a scan sample's root slot: at a crossing the two roots
    trade slots between samples.

    Raises ``ScanError`` when C, D or phi0 is not finite at a time of
    ``t``.
    """
    t = np.asarray(t, dtype=float)
    tables: dict[int, np.ndarray] = {}
    out = []
    for b in branches:
        if id(b.model) not in tables:
            tables[id(b.model)] = np.stack(root_table(*sample_params(b.model, t))[:2])
        roots = tables[id(b.model)]
        chord = np.interp(t, b.times, b.f2)
        lifted = roots + TWO_PI * np.round((chord - roots) / TWO_PI)
        miss = np.abs(lifted - chord)
        # a missing x2 compares False and leaves x1, which is nan only
        # where both are
        lift = np.where(miss[1] < miss[0], lifted[1], lifted[0])
        root = (t >= b.t_start) & (t <= b.t_end) & ~np.isnan(lift)
        out.append(np.where(root, lift, chord))
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
    n_scan: int = SCAN_POINTS,
) -> list[Gap]:
    """Maximal intervals not covered by any branch.

    Degenerate samples (residual identically zero) count as covered, so a
    vanishing product of reference amplitudes does not open a gap; samples
    where no phase is a root do not.

    Raises ``ScanError`` when C, D or phi0 is not finite at a scan sample.
    """
    t = np.linspace(0.0, model.t_final, n_scan + 1)
    covered = root_table(*sample_params(model, t))[2] < 0
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
    n_scan: int = SCAN_POINTS,
) -> list[float]:
    """Times where two full-span branches approach each other.

    Local minima of the canonical phase separation below the threshold
    mark the narrow corridors where travel between the branches is cheap.
    """
    t0 = max(x.t_start, y.t_start)
    t1 = min(x.t_end, y.t_end)
    t = np.linspace(t0, t1, n_scan + 1)
    fx, fy = branch_lifts((x, y), t)
    sep = np.abs(wrap_phase(fx - fy))
    mid = sep[1:-1]
    hit = (
        (mid < sep[:-2])
        & (mid <= sep[2:])
        & (mid < separation_threshold)
        & ((t[1:-1] - t0) > 0.05 * (t1 - t0))
    )
    return t[1:-1][hit].tolist()
