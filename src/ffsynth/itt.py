"""Inter-trajectory travel: splicing zero-curve branches across gaps.

A virtual trajectory follows speed-controlled branches where they exist
and crosses gaps (or deliberate branch crossings) through Gaussian-bump
bridges.  Each bridge has three parameters (center, width, amplitude);
the bump rides on a monotone erf connector between the incoming and
outgoing branch lifts, with outgoing lifts re-aligned by whole turns so
the connector never sweeps a spurious 2 pi.  A final linear ramp pins
f2(0) = f2(T_F) = 0 exactly; the ramp is bounded by the branch sampling
resolution and is fidelity-neutral.

Bridge parameters are chosen by minimizing the integrated residual
|beta| along the path with a deterministic Nelder-Mead simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import TimeGrid
from .zerocurves import (
    TWO_PI,
    Gap,
    SpeedControlledTrajectory,
    branch_touch_times,
    wrap_phase,
)

#: Largest admissible bridge amplitude, in radians.
AMP_MAX = 4.0 * np.pi

#: The travel plans ``plan_travel`` builds.
PLAN_KINDS = ("auto", "vt-a", "vt-b")

#: Fraction of the run duration within which a branch must start to
#: count as a continuation candidate.
CONTINUATION_WINDOW = 0.02


class ConstructionError(RuntimeError):
    """Raised when a virtual trajectory cannot be assembled."""


class OptimizerError(RuntimeError):
    """Raised when the bridge-parameter search produces a bad cost."""


@dataclass(frozen=True)
class BridgeSettings:
    """Bounds and family selection for the bridge builder.

    ``mode`` is "local" for the windowed branch-blend family or
    "detached" for a bump anchored to zero over the whole run (used when
    no branch reaches the domain edges near phase zero).
    """

    width_bounds: tuple[float, float]
    center_slack: float
    mode: str = "local"

    def __post_init__(self) -> None:
        lo, hi = self.width_bounds
        if not (0.0 < lo < hi):
            raise ValueError("width_bounds must satisfy 0 < lower < upper")
        if self.center_slack <= 0.0:
            raise ValueError("center_slack must be positive")
        if self.mode not in ("local", "detached"):
            raise ValueError(f"mode must be 'local' or 'detached', got {self.mode!r}")


def default_bridge_settings(kind: str, t_final: float) -> BridgeSettings:
    """Per-scenario bridge bounds.

    Deceleration crossings are narrow touches, acceleration gaps are
    wider, and the detached family needs room up to the full duration.
    """
    if kind == "decelerate":
        return BridgeSettings(width_bounds=(0.01, 0.05), center_slack=0.05)
    if kind == "accelerate":
        return BridgeSettings(width_bounds=(0.005, 0.2), center_slack=0.08)
    if kind == "sta":
        return BridgeSettings(
            width_bounds=(0.05, t_final),
            center_slack=t_final / 4.0,
            mode="detached",
        )
    raise ValueError(f"unknown bridge-settings kind {kind!r}")


@dataclass(frozen=True)
class TravelPlan:
    """Ordered branches to follow and the regions bridged between them.

    ``crossings`` holds one (lo, hi) interval per bridge; a deliberate
    crossing between coexisting branches has lo == hi.  The plan always
    has one more branch than bridges.
    """

    branches: tuple[SpeedControlledTrajectory, ...]
    crossings: tuple[tuple[float, float], ...]
    t_final: float

    def __post_init__(self) -> None:
        if len(self.branches) != len(self.crossings) + 1:
            raise ConstructionError(
                f"plan visits {len(self.branches)} branches but has "
                f"{len(self.crossings)} bridges; need exactly one more "
                f"branch than bridges"
            )

    @property
    def n_bridges(self) -> int:
        return len(self.crossings)


def bridge_mode(plan: TravelPlan, settings: BridgeSettings) -> str:
    """The bridge family of ``plan``: "detached" only when the settings ask
    for it and there is a bridge; a plan with none follows its branches."""
    return "detached" if settings.mode == "detached" and plan.n_bridges else "local"


def plan_through_gaps(
    scts: list[SpeedControlledTrajectory],
    gaps: list[Gap],
    t_final: float,
) -> TravelPlan:
    """Default chain across root-free gaps.

    Starts on the branch nearest phase zero at t ~ 0; after each gap it
    continues on the branch starting at the gap's right edge whose far
    endpoint is nearest zero modulo 2 pi, breaking ties by the smallest
    phase travel.
    """
    window = CONTINUATION_WINDOW * t_final
    starters = [b for b in scts if b.t_start < window]
    if not starters:
        raise ConstructionError("no branch starts near t = 0")
    chain = [min(starters, key=lambda b: abs(wrap_phase(b.start_phase)))]
    for gap in gaps:
        cands = [
            b
            for b in scts
            if b is not chain[-1] and abs(b.t_start - gap.t_end) < window
        ]
        if not cands:
            raise ConstructionError(
                f"no branch continues after the gap ending at t = {gap.t_end:.6g}"
            )
        chain.append(
            min(
                cands,
                key=lambda b: (
                    round(abs(wrap_phase(b.end_phase)), 3),
                    abs(b.end_phase - b.start_phase),
                ),
            )
        )
    crossings = tuple((g.t_start, g.t_end) for g in gaps)
    return TravelPlan(branches=tuple(chain), crossings=crossings, t_final=t_final)


def _x_and_y(scts, what: str):
    """The two full-span branches that ``link_branches`` labelled X and Y."""
    labeled = {b.branch_id: b for b in scts}
    if "X" not in labeled or "Y" not in labeled:
        raise ConstructionError(
            f"{what} needs the two full-span branches X and Y, "
            "which this run does not have"
        )
    return labeled["X"], labeled["Y"]


def plan_with_crossings(
    scts: list[SpeedControlledTrajectory],
    crossing_times: list[float],
    t_final: float,
) -> TravelPlan:
    """Alternate between the coexisting branches X and Y, starting on X
    and swapping at every crossing."""
    x, y = _x_and_y(scts, "a crossing plan")
    times = sorted(float(c) for c in crossing_times)
    if any(not (0.0 < c < t_final) for c in times):
        raise ConstructionError("crossing times must lie strictly inside the run")
    branches = tuple(x if i % 2 == 0 else y for i in range(len(times) + 1))
    crossings = tuple((c, c) for c in times)
    return TravelPlan(branches=branches, crossings=crossings, t_final=t_final)


def plan_travel(kind: str, branches, gaps, t_final: float) -> TravelPlan:
    """The travel plan of one of the ``PLAN_KINDS``: "auto" chains across
    the root-free gaps; "vt-a" crosses from X to Y at the median corridor
    (touch time) and "vt-b" alternates at every corridor."""
    if kind not in PLAN_KINDS:
        raise ValueError(f"plan kind must be one of {list(PLAN_KINDS)}, got {kind!r}")
    if kind == "auto":
        return plan_through_gaps(branches, gaps, t_final)
    touches = branch_touch_times(*_x_and_y(branches, f"crossing plan {kind!r}"))
    if not touches:
        raise ConstructionError("no corridor found between the X and Y branches")
    times = [touches[len(touches) // 2]] if kind == "vt-a" else touches
    return plan_with_crossings(branches, times, t_final)


def default_bridge_params(
    plan: TravelPlan, settings: BridgeSettings
) -> list[tuple[float, float, float]]:
    """Deterministic starting parameters for the bridge search.

    Center at the gap midpoint; width at half the gap length (a fixed
    0.02 for zero-width crossings); amplitude at the wrapped phase
    difference between the branches being joined.  The detached family
    starts from zero amplitude since its bump is not anchored to branch
    endpoints.
    """
    init = []
    for i, (lo, hi) in enumerate(plan.crossings):
        center = 0.5 * (lo + hi)
        width = 0.5 * (hi - lo) if hi > lo else 0.02
        if bridge_mode(plan, settings) == "detached":
            amp = 0.0
        elif hi > lo:
            amp = float(
                wrap_phase(plan.branches[i + 1].start_phase - plan.branches[i].end_phase)
            )
        else:
            amp = float(
                wrap_phase(
                    plan.branches[i + 1].values_at(center)
                    - plan.branches[i].values_at(center)
                )
            )
        init.append((center, width, amp))
    return init


def _flatten_params(params) -> np.ndarray:
    arr = np.asarray(params, dtype=float).reshape(-1)
    if arr.size % 3 != 0:
        raise ValueError("bridge parameters come in (center, width, amplitude) triples")
    return arr


def _bridges(plan: TravelPlan, params, settings: BridgeSettings) -> list[tuple]:
    """Clamped ``(center, width, amplitude, lo, hi)`` of each bridge, where
    ``[lo, hi]`` is its window (the whole run for a detached bump).  Total
    in its inputs: widths and centers outside bounds are clamped, never
    rejected, so the simplex search sees a flat (not discontinuous)
    landscape there.
    """
    sig_lo, sig_hi = settings.width_bounds
    out = []
    for i, (glo, ghi) in enumerate(plan.crossings):
        c, sig, amp = params[3 * i : 3 * i + 3]
        sig = min(max(abs(sig), sig_lo), sig_hi)
        gc = 0.5 * (glo + ghi)
        c = min(max(c, gc - settings.center_slack), gc + settings.center_slack)
        if bridge_mode(plan, settings) == "detached":
            lo, hi = 0.0, plan.t_final
        else:
            lo = max(0.0, min(c - 3.0 * sig, glo))
            hi = min(plan.t_final, max(c + 3.0 * sig, ghi))
        out.append((c, sig, amp, lo, hi))
    return out


def _realignment_shifts(plan: TravelPlan) -> list[float]:
    """Whole turns added to each branch so it meets the previous one at
    the crossing center; the connector then never sweeps a spurious 2 pi."""
    shifts = [0.0]
    for (glo, ghi), fin, fout in zip(plan.crossings, plan.branches, plan.branches[1:]):
        gc = 0.5 * (glo + ghi)
        step = fout.values_at(gc) - (fin.values_at(gc) + shifts[-1])
        shifts.append(-TWO_PI * np.round(step / TWO_PI))
    return shifts


def _branch_samples(
    t: np.ndarray, plan: TravelPlan, settings: BridgeSettings
) -> tuple[list[np.ndarray], list[float]]:
    """Each plan branch's samples on ``t`` and its realignment shift, or
    nothing for the detached family, which ignores the branches.  They
    depend on the plan alone, so a search over bridge parameters takes
    them once."""
    if bridge_mode(plan, settings) == "detached":
        return [], []
    return [b.values_at(t) for b in plan.branches], _realignment_shifts(plan)


def _assemble_lift(
    t_eval: np.ndarray,
    plan: TravelPlan,
    params: np.ndarray,
    settings: BridgeSettings,
    samples: tuple[list[np.ndarray], list[float]],
) -> np.ndarray:
    """Raw spliced lift before endpoint pinning, on ascending ``t_eval``
    with the ``_branch_samples`` taken there.

    Each bridge changes only the samples after its window opens: inside
    ``(lo, hi)`` the shifted branches are blended, and from ``hi`` on the
    path is the outgoing shifted branch.
    """
    t_f = plan.t_final
    bridges = _bridges(plan, params, settings)

    if bridge_mode(plan, settings) == "detached":
        f = np.zeros_like(t_eval)
        for c, sig, amp, _, _ in bridges:
            g = np.exp(-((t_eval - c) ** 2) / (2.0 * sig**2))
            g0 = np.exp(-(c**2) / (2.0 * sig**2))
            g1 = np.exp(-((t_f - c) ** 2) / (2.0 * sig**2))
            f = f + amp * (g - (g0 + (g1 - g0) * t_eval / t_f))
        return f

    from scipy.special import erf

    values, shifts = samples
    f = values[0].copy()
    for i, (c, sig, amp, lo, hi) in enumerate(bridges):
        start = np.searchsorted(t_eval, lo, side="right")
        stop = np.searchsorted(t_eval, hi, side="left")
        t = t_eval[start:stop]
        z_lo = erf((lo - c) / (np.sqrt(2.0) * sig))
        z_hi = erf((hi - c) / (np.sqrt(2.0) * sig))
        w = np.clip(
            (erf((t - c) / (np.sqrt(2.0) * sig)) - z_lo) / (z_hi - z_lo), 0.0, 1.0
        )

        g = np.exp(-((t - c) ** 2) / (2.0 * sig**2))
        g_lo = np.exp(-((lo - c) ** 2) / (2.0 * sig**2))
        g_hi = np.exp(-((hi - c) ** 2) / (2.0 * sig**2))
        base = g_lo + (g_hi - g_lo) * (t - lo) / (hi - lo)

        fi = values[i][start:stop] + shifts[i]
        fo = values[i + 1][start:stop] + shifts[i + 1]
        f[start:stop] = fi * (1.0 - w) + fo * w + amp * (g - base)
        np.add(values[i + 1][stop:], shifts[i + 1], out=f[stop:])
    return f


def _pinned_lift(
    t, plan: TravelPlan, params, settings: BridgeSettings, samples, ends=None
):
    """Spliced lift minus the linear ramp that pins both ends to zero, and
    the ramp's ``ends``: the wrapped raw lift at t = 0 and t = T_F, read
    off ``t[0]`` and ``t[-1]`` unless given."""
    raw = _assemble_lift(t, plan, params, settings, samples)
    if ends is None:
        ends = (float(wrap_phase(raw[0])), float(wrap_phase(raw[-1])))
    e0, e1 = ends
    return raw - (e0 + (e1 - e0) * t / plan.t_final), ends


@dataclass(frozen=True, eq=False)
class VirtualTrajectory:
    """A spliced phase path sampled on a grid.

    ``f2`` is the canonical path (wrapped, with pi and -pi identified);
    ``f2_lift`` is the continuous unwrapped lift used for
    differentiation.  Both endpoints of ``f2`` are exactly zero.
    ``segments`` lists (time interval, source id) in order, where the
    source is a branch id or "bridge-<k>".  ``bridge_mode`` is the bridge
    family the path was built with (see the function ``bridge_mode``).
    """

    grid: TimeGrid
    f2: np.ndarray
    f2_lift: np.ndarray
    segments: tuple[tuple[tuple[float, float], str], ...]
    bridge_params: tuple[tuple[float, float, float], ...]
    bridge_mode: str

    _plan: TravelPlan = field(default=None, repr=False)
    _raw_params: np.ndarray = field(default=None, repr=False)
    _settings: BridgeSettings = field(default=None, repr=False)
    _ramp: tuple[float, float] = field(default=(0.0, 0.0), repr=False)

    def values_at(self, t) -> np.ndarray:
        """Continuous lift at times ascending in C order (any shape, or a
        scalar; the bridge windows are found by binary search), endpoint
        ramp included."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        if np.any(flat[1:] < flat[:-1]):
            raise ValueError("values_at needs times in ascending order")
        samples = _branch_samples(flat, self._plan, self._settings)
        lift = _pinned_lift(
            flat, self._plan, self._raw_params, self._settings, samples, self._ramp
        )[0]
        return lift.reshape(t.shape)


def build_virtual_trajectory(
    plan: TravelPlan,
    params,
    grid: TimeGrid,
    settings: BridgeSettings,
) -> VirtualTrajectory:
    """Assemble and endpoint-pin the spliced path on ``grid``.

    The pinning ramp removes the wrapped residuals of the raw lift at
    t = 0 and t = T_F (each bounded by the branch scan resolution), so
    the canonical path is exactly zero at both ends.
    """
    p = _flatten_params(params)
    if len(p) != 3 * plan.n_bridges:
        raise ConstructionError(
            f"expected {3 * plan.n_bridges} bridge parameters, got {len(p)}"
        )
    for i in range(plan.n_bridges):
        bridge = p[3 * i : 3 * i + 3]
        if not np.all(np.isfinite(bridge)):
            raise ConstructionError(
                f"bridge {i} parameters {np.array2string(bridge)} are not all finite"
            )
        amp = bridge[2]
        if abs(amp) > AMP_MAX:
            raise ConstructionError(
                f"bridge {i} amplitude {amp:.4g} exceeds the bound "
                f"{AMP_MAX:.4g}; endpoints unreachable"
            )

    samples = _branch_samples(grid.times, plan, settings)
    lift, ends = _pinned_lift(grid.times, plan, p, settings, samples)
    if not (abs(wrap_phase(lift[0])) <= 1e-9 and abs(wrap_phase(lift[-1])) <= 1e-9):
        raise ConstructionError("endpoint pinning failed to reach phase zero")
    canonical = wrap_phase(lift)
    canonical[0] = 0.0
    canonical[-1] = 0.0

    bridges = _bridges(plan, p, settings)
    segments: list[tuple[tuple[float, float], str]] = []
    cursor = 0.0
    for i, (_, _, _, lo, hi) in enumerate(bridges):
        if lo > cursor:
            segments.append(((cursor, lo), plan.branches[i].branch_id))
        segments.append(((max(lo, cursor), hi), f"bridge-{i}"))
        cursor = hi
    if cursor < plan.t_final:
        segments.append(((cursor, plan.t_final), plan.branches[-1].branch_id))

    return VirtualTrajectory(
        grid=grid,
        f2=canonical,
        f2_lift=lift,
        segments=tuple(segments),
        bridge_params=tuple(
            (float(c), float(sig), float(amp)) for c, sig, amp, _, _ in bridges
        ),
        bridge_mode=bridge_mode(plan, settings),
        _plan=plan,
        _raw_params=p,
        _settings=settings,
        _ramp=ends,
    )


@dataclass(frozen=True)
class IttCostReport:
    """Integrated path residual and its decomposition over bridges."""

    integrated_residual: float
    per_gap_residual: tuple[float, ...]
    evaluations: int

    def __post_init__(self) -> None:
        if not (self.integrated_residual >= 0.0):
            raise ValueError("integrated residual must be non-negative")


def itt_cost(
    vt: VirtualTrajectory,
    model,
    n_cost: int = 4000,
    evaluations: int = 1,
) -> IttCostReport:
    """Trapezoidal integral of |beta| along the path.

    ``model`` is any phase-residual model (FFST or eigenstate-following)
    exposing ``sine_params``.  The per-gap component restricts the same
    quadrature to each bridge window.
    """
    plan = vt._plan
    tt = np.linspace(0.0, plan.t_final, n_cost + 1)
    c, d, phi0 = model.sine_params(tt)
    f = vt.values_at(tt)
    absbeta = np.abs(c - d * np.sin(f + phi0))
    total = float(np.trapezoid(absbeta, tt))
    per_gap = []
    for _, _, _, lo, hi in _bridges(plan, vt._raw_params, vt._settings):
        mask = (tt >= lo) & (tt <= hi)
        per_gap.append(float(np.trapezoid(absbeta[mask], tt[mask])))
    return IttCostReport(
        integrated_residual=total,
        per_gap_residual=tuple(per_gap),
        evaluations=evaluations,
    )


def optimize_virtual_trajectory(
    plan: TravelPlan,
    model,
    grid: TimeGrid,
    settings: BridgeSettings,
    init=None,
    n_cost: int = 4000,
    maxfev: int = 2000,
) -> tuple[VirtualTrajectory, IttCostReport]:
    """Minimize the integrated residual over bridge parameters.

    Deterministic Nelder-Mead with an explicit initial simplex; the
    default start follows ``default_bridge_params``.  A plan with no
    bridges returns the (pinned) branch path unchanged.
    """
    from scipy.optimize import minimize

    if plan.n_bridges == 0:
        vt = build_virtual_trajectory(plan, [], grid, settings)
        return vt, itt_cost(vt, model, n_cost=n_cost, evaluations=0)

    if init is None:
        init = default_bridge_params(plan, settings)
    p0 = _flatten_params(init)
    if len(p0) != 3 * plan.n_bridges:
        raise ConstructionError(
            f"expected {3 * plan.n_bridges} initial parameters, got {len(p0)}"
        )

    tt = np.linspace(0.0, plan.t_final, n_cost + 1)
    c, d, phi0 = model.sine_params(tt)
    t_f = plan.t_final
    detached = bridge_mode(plan, settings) == "detached"
    samples = _branch_samples(tt, plan, settings)
    evals = [0]

    def cost(p: np.ndarray) -> float:
        evals[0] += 1
        if not np.all(np.isfinite(p)):
            raise OptimizerError(f"non-finite bridge parameters {np.array2string(p)}")
        f = _pinned_lift(tt, plan, p, settings, samples)[0]
        value = float(np.trapezoid(np.abs(c - d * np.sin(f + phi0)), tt))
        if not np.isfinite(value):
            raise OptimizerError(
                f"non-finite cost at bridge parameters {np.array2string(p)}"
            )
        return value

    sig_lo, sig_hi = settings.width_bounds
    simplex = [p0]
    for j in range(len(p0)):
        q = p0.copy()
        kind = j % 3
        if kind == 0:
            q[j] += t_f / 8.0 if detached else 0.25 * sig_hi
        elif kind == 1:
            q[j] += t_f / 8.0 if detached else 0.5 * (sig_hi - sig_lo)
        else:
            q[j] += -0.9 if detached else 0.3
        simplex.append(q)

    res = minimize(
        cost,
        p0,
        method="Nelder-Mead",
        options={
            "initial_simplex": np.asarray(simplex),
            "xatol": 1e-6,
            "fatol": 1e-12,
            "maxfev": maxfev,
        },
    )
    vt = build_virtual_trajectory(plan, res.x, grid, settings)
    report = itt_cost(vt, model, n_cost=n_cost, evaluations=evals[0])
    return vt, report
