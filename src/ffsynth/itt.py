"""Inter-trajectory travel: splicing zero-curve branches across gaps.

A virtual trajectory follows speed-controlled branches where they exist
and crosses gaps (or deliberate branch crossings) through Gaussian-bump
bridges.  Each bridge has three parameters (center, width, amplitude);
the bump rides on a quintic smoothstep connector between the incoming
and outgoing branch lifts, with outgoing lifts re-aligned by whole turns
so the connector never sweeps a spurious 2 pi.  The connector and the
bump's taper have zero slope at both ends of the bridge window, so the
lift has no kink there and the synthesized detuning no jump.  A final
linear ramp pins f2(0) = f2(T_F) = 0 exactly; a path that would need a
ramp larger than the branch linker's step is rejected.

Bridge parameters are chosen by minimizing the integrated residual
|beta| along the path with a deterministic Nelder-Mead simplex, one
search per bridge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid
from .numerics import nelder_mead
from .zerocurves import (
    LINKING_THRESHOLD,
    SCAN_POINTS,
    TWO_PI,
    Gap,
    SpeedControlledTrajectory,
    branch_lifts,
    branch_touch_times,
    residual,
    sample_params,
    wrap_phase,
    x_and_y,
)

#: Largest admissible bridge amplitude, in radians.
AMP_MAX = 4.0 * np.pi

#: Cost intervals of the bridge search unless ``grid.cost_points`` sets them.
COST_POINTS = 4_000

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
    xy = x_and_y(scts)
    if xy is None:
        raise ConstructionError(
            f"{what} needs the two full-span branches X and Y, "
            "which this run does not have"
        )
    return xy


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


def plan_travel(
    kind: str, branches, gaps, t_final: float, n_scan: int = SCAN_POINTS
) -> TravelPlan:
    """The travel plan of one of the ``PLAN_KINDS``: "auto" chains across
    the root-free gaps; "vt-a" crosses from X to Y at the median corridor
    (touch time) and "vt-b" alternates at every corridor."""
    if kind not in PLAN_KINDS:
        raise ValueError(f"plan kind must be one of {list(PLAN_KINDS)}, got {kind!r}")
    if kind == "auto":
        return plan_through_gaps(branches, gaps, t_final)
    x, y = _x_and_y(branches, f"crossing plan {kind!r}")
    touches = branch_touch_times(x, y, n_scan=n_scan)
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
    centers = [0.5 * (lo + hi) for lo, hi in plan.crossings]
    at_centers = branch_lifts(plan.branches, centers)
    init = []
    for i, ((lo, hi), center) in enumerate(zip(plan.crossings, centers)):
        width = 0.5 * (hi - lo) if hi > lo else 0.02
        if bridge_mode(plan, settings) == "detached":
            amp = 0.0
        elif hi > lo:
            amp = float(
                wrap_phase(plan.branches[i + 1].start_phase - plan.branches[i].end_phase)
            )
        else:
            amp = float(wrap_phase(at_centers[i + 1][i] - at_centers[i][i]))
        init.append((center, width, amp))
    return init


def _flatten_params(params) -> np.ndarray:
    arr = np.asarray(params, dtype=float).reshape(-1)
    if arr.size % 3 != 0:
        raise ValueError("bridge parameters come in (center, width, amplitude) triples")
    return arr


def _bridge(plan: TravelPlan, settings: BridgeSettings, i: int, triple) -> tuple:
    """Clamped ``(center, width, amplitude, lo, hi)`` of bridge ``i`` from
    its (center, width, amplitude) ``triple``, where ``[lo, hi]`` is its
    window (the whole run for a detached bump).  Total in its inputs:
    widths and centers outside bounds are clamped, never rejected, so the
    simplex search sees a flat (not discontinuous) landscape there.
    """
    c, sig, amp = triple
    sig_lo, sig_hi = settings.width_bounds
    sig = min(max(abs(sig), sig_lo), sig_hi)
    glo, ghi = plan.crossings[i]
    gc = 0.5 * (glo + ghi)
    c = min(max(c, gc - settings.center_slack), gc + settings.center_slack)
    if bridge_mode(plan, settings) == "detached":
        lo, hi = 0.0, plan.t_final
    else:
        lo = max(0.0, min(c - 3.0 * sig, glo))
        hi = min(plan.t_final, max(c + 3.0 * sig, ghi))
    return c, sig, amp, lo, hi


def _bridges(plan: TravelPlan, params, settings: BridgeSettings) -> list[tuple]:
    """``_bridge`` of every bridge, from the flat parameters."""
    return [
        _bridge(plan, settings, i, params[3 * i : 3 * i + 3])
        for i in range(plan.n_bridges)
    ]


def _window(t: np.ndarray, bridge: tuple) -> tuple[int, int]:
    """``[start, stop)``, the indices of ascending ``t`` strictly inside the
    window of the clamped ``bridge``.  On a grid from 0 to T_F, ``t[0]``
    <= lo and hi <= ``t[-1]``, so 1 <= start and stop < len(t): no window
    reaches either end."""
    *_, lo, hi = bridge
    return (
        int(np.searchsorted(t, lo, side="right")),
        int(np.searchsorted(t, hi, side="left")),
    )


def _aligned_lifts(t: np.ndarray, plan: TravelPlan) -> list[np.ndarray]:
    """Each plan branch's lift on ``t``, shifted by the whole turns that
    realign it with the branch before it at the crossing center, so the
    connector never sweeps a spurious 2 pi."""
    lifts = branch_lifts(plan.branches, t)
    at_centers = branch_lifts(plan.branches, [0.5 * (lo + hi) for lo, hi in plan.crossings])
    shift = 0.0
    for i, (fin, fout) in enumerate(zip(at_centers, at_centers[1:])):
        shift = -TWO_PI * np.round((fout[i] - (fin[i] + shift)) / TWO_PI)
        lifts[i + 1] += shift
    return lifts


def _blend(t, lifts, i: int, bridge: tuple, start: int, stop: int) -> np.ndarray:
    """The raw lift of bridge ``i`` on ``t[start:stop]``, inside its window:
    with u = (t - lo) / (hi - lo) the branches are blended by the quintic
    smoothstep u^3 (10 - 15 u + 6 u^2) and the Gaussian bump is tapered
    by 16 u^2 (1 - u)^2; both meet the branches with matching value and
    slope at ``lo`` and ``hi``."""
    c, sig, amp, lo, hi = bridge
    s = t[start:stop]
    u = (s - lo) / (hi - lo)
    w = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
    v = u * (1.0 - u)
    bump = np.exp(-((s - c) ** 2) / (2.0 * sig**2)) * (16.0 * v * v)
    return lifts[i][start:stop] * (1.0 - w) + lifts[i + 1][start:stop] * w + amp * bump


def _spliced(t: np.ndarray, lifts, bridges) -> np.ndarray:
    """The first branch with ``bridges`` applied in plan order: each one
    blends inside its window and copies the outgoing branch after it, over
    whatever the bridges before it wrote there."""
    f = lifts[0].copy()
    for i, bridge in enumerate(bridges):
        start, stop = _window(t, bridge)
        f[start:stop] = _blend(t, lifts, i, bridge, start, stop)
        f[stop:] = lifts[i + 1][stop:]
    return f


def _splice(t: np.ndarray, plan: TravelPlan, settings: BridgeSettings):
    """The raw spliced lift on ascending ``t``, before endpoint pinning, as
    a function of the flat bridge parameters.

    The realigned branch lifts depend on the plan alone: they are sampled
    here, once, and each call applies the clamped bridges to them
    (``_spliced``).  The search on the local family does not call this on
    every evaluation: it assembles the same path from pieces fixed per
    search and the searched bridge's window (``optimize_virtual_trajectory``),
    with the same ``_blend``.  The detached family ignores the branches:
    each bump minus its chord from t = 0 to T_F.
    """
    if bridge_mode(plan, settings) == "detached":
        t_f = plan.t_final

        def detached(params) -> np.ndarray:
            f = np.zeros_like(t)
            for c, sig, amp, _, _ in _bridges(plan, params, settings):
                g = np.exp(-((t - c) ** 2) / (2.0 * sig**2))
                g0 = np.exp(-(c**2) / (2.0 * sig**2))
                g1 = np.exp(-((t_f - c) ** 2) / (2.0 * sig**2))
                f = f + amp * (g - (g0 + (g1 - g0) * t / t_f))
            return f

        return detached

    lifts = _aligned_lifts(t, plan)
    return lambda params: _spliced(t, lifts, _bridges(plan, params, settings))


def _ramp(t: np.ndarray, raw: np.ndarray, t_f: float):
    """The linear ramp whose removal pins both ends of ``raw`` to zero, and
    its ends: the wrapped raw lift at ``t[0]`` = 0 and ``t[-1]`` = T_F."""
    e0, e1 = float(wrap_phase(raw[0])), float(wrap_phase(raw[-1]))
    return e0 + (e1 - e0) * t / t_f, (e0, e1)


@dataclass(frozen=True, eq=False)
class VirtualTrajectory:
    """A spliced phase path sampled on a grid.

    ``f2_lift`` is the continuous unwrapped lift on ``grid.half_times``
    (nodes and midpoints interleaved), the samples both synthesizers
    differentiate; ``f2`` is the canonical path on the nodes (wrapped,
    with pi and -pi identified), exactly zero at both ends.
    ``bridge_params`` are the clamped (center, width, amplitude) triples
    and ``bridge_mode`` the bridge family the path was built with (see
    the function ``bridge_mode``).
    """

    grid: TimeGrid
    f2: np.ndarray
    f2_lift: np.ndarray
    bridge_params: tuple[tuple[float, float, float], ...]
    bridge_mode: str


def build_virtual_trajectory(
    plan: TravelPlan,
    params,
    grid: TimeGrid,
    settings: BridgeSettings,
) -> VirtualTrajectory:
    """Assemble and endpoint-pin the spliced path on ``grid.half_times``.

    The pinning ramp removes the wrapped residuals of the raw lift at
    t = 0 and t = T_F, so the canonical path is exactly zero at both
    ends.  A path whose raw end lies more than ``LINKING_THRESHOLD`` (the
    largest step the branch linker follows) from phase zero does not
    reach the target state; it is rejected rather than ramped there.
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

    th = grid.half_times
    raw = _splice(th, plan, settings)(p)
    ramp, ends = _ramp(th, raw, plan.t_final)
    lift = raw - ramp
    for end, e in zip(("t = 0", "t = T_F"), ends):
        if abs(e) > LINKING_THRESHOLD:
            raise ConstructionError(
                f"path ends {e:.4g} rad from phase zero at {end}, more than "
                f"the {LINKING_THRESHOLD} rad the branch linker follows"
            )
    if not (abs(wrap_phase(lift[0])) <= 1e-9 and abs(wrap_phase(lift[-1])) <= 1e-9):
        raise ConstructionError("endpoint pinning failed to reach phase zero")
    canonical = wrap_phase(lift[::2])
    canonical[0] = 0.0
    canonical[-1] = 0.0

    return VirtualTrajectory(
        grid=grid,
        f2=canonical,
        f2_lift=lift,
        bridge_params=tuple(
            (float(c), float(sig), float(amp))
            for c, sig, amp, _, _ in _bridges(plan, p, settings)
        ),
        bridge_mode=bridge_mode(plan, settings),
    )


def _check_finite(i: int, q: np.ndarray) -> None:
    """Raise ``OptimizerError`` unless bridge ``i``'s triple ``q`` is finite."""
    if not np.all(np.isfinite(q)):
        raise OptimizerError(
            f"non-finite bridge parameters {np.array2string(q)} for bridge {i}"
        )


@dataclass(frozen=True)
class IttCostReport:
    """Integrated path residual, its decomposition over bridges, and the
    searches that chose the bridges, one per bridge: ``bridge_evaluations``
    counts each search's cost evaluations, of at most ``max_evaluations``
    in all, and ``bridge_converged`` flags each search that met its
    tolerance rule before the cap.  A plan without bridges needs no
    search: it reports 0 evaluations and counts as converged."""

    integrated_residual: float
    per_gap_residual: tuple[float, ...]
    max_evaluations: int = 0
    bridge_evaluations: tuple[int, ...] = ()
    bridge_converged: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not (self.integrated_residual >= 0.0):
            raise ValueError("integrated residual must be non-negative")
        if not (0 <= self.evaluations <= self.max_evaluations):
            raise ValueError("evaluations must lie within [0, max_evaluations]")
        if not self.converged and self.evaluations != self.max_evaluations:
            raise ValueError("a search can stop unconverged only at its evaluation cap")
        if len(self.bridge_evaluations) != len(self.bridge_converged):
            raise ValueError("need one evaluation count and one flag per bridge")

    @property
    def evaluations(self) -> int:
        """Cost evaluations of all the searches together."""
        return sum(self.bridge_evaluations)

    @property
    def converged(self) -> bool:
        """Whether every search met its tolerance rule before the cap."""
        return all(self.bridge_converged)


def optimize_virtual_trajectory(
    plan: TravelPlan,
    model,
    grid: TimeGrid,
    settings: BridgeSettings,
    init=None,
    n_cost: int = COST_POINTS,
    maxfev: int = 2000,
) -> tuple[VirtualTrajectory, IttCostReport]:
    """Minimize the integrated residual over bridge parameters.

    The cost is the trapezoidal integral of |beta| along the pinned path
    on ``n_cost + 1`` uniform times; ``model`` is any phase-residual
    model (FFST or eigenstate-following) exposing ``sine_params``.
    One deterministic Nelder-Mead search per bridge, in plan order, from
    an explicit initial simplex over the bridge's own triple; each stops
    by its tolerance rule or when the searches together have made
    ``maxfev`` cost evaluations.  The default start follows
    ``default_bridge_params``.  A local search evaluates only its own
    bridge's window on the fixed rest of the path, bit for bit the cost
    of the whole path; a detached one costs the whole path.  A plan with
    no bridges returns the (pinned) branch path unchanged.  Raises
    ``OptimizerError`` naming the bridge when a seed triple is not finite,
    before any sampling.  The report integrates the same
    |beta| samples at the chosen parameters, whole and restricted to
    each bridge window.  Raises ``ScanError`` when C, D or phi0 is not
    finite on the cost grid.
    """
    if init is None:
        init = default_bridge_params(plan, settings)
    p0 = _flatten_params(init)
    if len(p0) != 3 * plan.n_bridges:
        raise ConstructionError(
            f"expected {3 * plan.n_bridges} initial parameters, got {len(p0)}"
        )
    for i in range(plan.n_bridges):
        _check_finite(i, p0[3 * i : 3 * i + 3])

    tt = np.linspace(0.0, plan.t_final, n_cost + 1)
    dt = np.diff(tt)
    c, d, phi0 = sample_params(model, tt)
    t_f = plan.t_final
    detached = bridge_mode(plan, settings) == "detached"
    if detached:
        splice = _splice(tt, plan, settings)
    else:
        lifts = _aligned_lifts(tt, plan)

        def splice(p: np.ndarray) -> np.ndarray:
            return _spliced(tt, lifts, _bridges(plan, p, settings))

    def beta(f: np.ndarray, k: slice = slice(None)) -> np.ndarray:
        """|beta| of the pinned lift ``f`` on the cost samples ``k``."""
        return np.abs(residual(c[k], d[k], phi0[k], f))

    def pinned_beta(p: np.ndarray) -> np.ndarray:
        raw = splice(p)
        return beta(raw - _ramp(tt, raw, t_f)[0])

    def integrate(samples: np.ndarray, i: int, q: np.ndarray) -> float:
        # np.trapezoid(samples, tt), with the spacing taken once
        value = float((dt * (samples[1:] + samples[:-1]) / 2.0).sum())
        if not np.isfinite(value):
            raise OptimizerError(
                f"non-finite cost at bridge {i} parameters {np.array2string(q)}"
            )
        return value

    def path_cost(i: int):
        """Bridge ``i``'s cost on the whole path, the others held at ``x``."""

        def cost(q: np.ndarray) -> float:
            _check_finite(i, q)
            p = x.copy()
            p[3 * i : 3 * i + 3] = q
            return integrate(pinned_beta(p), i, q)

        return cost

    def window_cost(i: int):
        """Bridge ``i``'s cost assembled from three |beta| arrays fixed for
        the search and the samples its window reaches.  Before its window
        the path is that of the bridges before it (``before``); after its
        window it is its outgoing branch (``after``), up to ``m``, the
        first sample a later bridge's window reaches; from ``m`` on the
        later bridges overwrite bridge ``i`` whatever its triple, so the
        whole path at ``x`` holds there (``samples``).  Every sample is the
        same elementwise expression as on the whole path, so each cost is
        ``path_cost``'s bit for bit, overlapping windows included."""
        bridges = _bridges(plan, x, settings)
        m = min((_window(tt, b)[0] for b in bridges[i + 1 :]), default=len(tt))
        raw = _spliced(tt, lifts, bridges)
        ramp = _ramp(tt, raw, t_f)[0]  # the raw ends are the plan's alone
        samples = beta(raw - ramp)
        before = beta(_spliced(tt, lifts, bridges[:i]) - ramp)
        after = beta(lifts[i + 1] - ramp)

        def cost(q: np.ndarray) -> float:
            _check_finite(i, q)
            bridge = _bridge(plan, settings, i, q)
            start, stop = (min(k, m) for k in _window(tt, bridge))
            k = slice(start, stop)
            samples[:start] = before[:start]
            samples[k] = beta(_blend(tt, lifts, i, bridge, start, stop) - ramp[k], k)
            samples[stop:m] = after[stop:m]
            return integrate(samples, i, q)

        return cost

    # Each search varies its own triple, with the bridges before it at
    # their optima and those after it at their seeds.  A bridge's triple
    # moves only the samples inside its window, and the pinning ramp reads
    # the raw ends, which the plan alone fixes: so the local family's
    # search evaluates only its window (``window_cost``), and with
    # disjoint windows the cost is a sum of per-bridge terms and one pass
    # finds the joint optimum.  Where windows overlap, the pass is one
    # sweep of block coordinate descent, never worse than the seed.  A
    # detached bump spans the whole run, so its search costs the whole
    # path.
    sig_lo, sig_hi = settings.width_bounds
    if detached:
        steps = (t_f / 8.0, t_f / 8.0, -0.9)
    else:
        steps = (0.25 * sig_hi, 0.5 * (sig_hi - sig_lo), 0.3)
    x = p0.copy()
    counts, flags = [], []
    for i in range(plan.n_bridges):
        block = slice(3 * i, 3 * i + 3)
        budget = maxfev - sum(counts)
        if not budget:
            counts.append(0)
            flags.append(False)
            continue
        bridge_cost = path_cost(i) if detached else window_cost(i)
        simplex = [x[block]]
        for j, step in enumerate(steps):
            q = x[block].copy()
            q[j] += step
            simplex.append(q)
        res = nelder_mead(bridge_cost, simplex, xatol=1e-6, fatol=1e-12, maxfev=budget)
        x[block] = res.x
        counts.append(res.evaluations)
        flags.append(res.converged)

    vt = build_virtual_trajectory(plan, x, grid, settings)
    absbeta = pinned_beta(x)
    per_gap = []
    for _, _, _, lo, hi in _bridges(plan, x, settings):
        mask = (tt >= lo) & (tt <= hi)
        per_gap.append(float(np.trapezoid(absbeta[mask], tt[mask])))
    report = IttCostReport(
        integrated_residual=float(np.trapezoid(absbeta, tt)),
        per_gap_residual=tuple(per_gap),
        max_evaluations=maxfev,
        bridge_evaluations=tuple(counts),
        bridge_converged=tuple(flags),
    )
    return vt, report
