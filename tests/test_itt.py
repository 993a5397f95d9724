"""Travel plans, bridge assembly, endpoint pinning, and the search."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

import ffsynth.itt as itt
from ffsynth import (
    BridgeSettings,
    ConstructionError,
    OptimizerError,
    SpeedControlledTrajectory,
    TimeGrid,
    TravelPlan,
    branch_lifts,
    branch_touch_times,
    build_virtual_trajectory,
    default_bridge_params,
    default_bridge_settings,
    optimize_virtual_trajectory,
    plan_through_gaps,
    plan_travel,
    plan_with_crossings,
    wrap_phase,
)
from ffsynth.itt import AMP_MAX, PLAN_KINDS, _bridges
from ffsynth.numerics import SimplexResult, nelder_mead
from ffsynth.zerocurves import (
    LINKING_THRESHOLD,
    TWO_PI,
    ScanError,
    residual,
    sample_params,
)

OTHER_NON_FINITE = {
    "nan-width": (0.9, np.nan, 0.1),
    "nan-amp": (0.9, 0.02, np.nan),
    "+inf-amp": (0.9, 0.02, np.inf),
    "-inf-amp": (0.9, 0.02, -np.inf),
}
NON_FINITE = {"nan-center": (np.nan, 0.02, 0.1), **OTHER_NON_FINITE}


def _oracle_lift(t_eval, plan, params, settings):
    """The raw lift evaluated on the whole of ``t_eval`` for every bridge,
    re-evaluating each branch and its realignment turns on every call:
    the reference for the windowed lift on per-plan samples."""
    bridges = _bridges(plan, params, settings)
    branches = plan.branches
    at_centers = branch_lifts(branches, [0.5 * (lo + hi) for lo, hi in plan.crossings])
    shifts = [0.0]
    for i in range(plan.n_bridges):
        step = at_centers[i + 1][i] - (at_centers[i][i] + shifts[-1])
        shifts.append(-TWO_PI * np.round(step / TWO_PI))
    f = branch_lifts(branches[:1], t_eval)[0]
    for i, (c, sig, amp, lo, hi) in enumerate(bridges):
        u = (t_eval - lo) / (hi - lo)
        w = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
        w = np.where(t_eval <= lo, 0.0, np.where(t_eval >= hi, 1.0, w))

        g = np.exp(-((t_eval - c) ** 2) / (2.0 * sig**2))
        v = u * (1.0 - u)
        bump = np.where((t_eval > lo) & (t_eval < hi), g * (16.0 * v * v), 0.0)

        fi, fo = branch_lifts(branches[i : i + 2], t_eval)
        fi, fo = fi + shifts[i], fo + shifts[i + 1]
        blend = fi * (1.0 - w) + fo * w + amp * bump
        f = np.where(t_eval <= lo, f, blend)
    return f


def _oracle_cost(bundle, params, n_cost=4000, plan=None):
    """The optimizer's objective computed on the oracle lift of ``plan``
    (the bundle's unless given)."""
    plan = plan or bundle.plan
    tt = np.linspace(0.0, plan.t_final, n_cost + 1)
    p = np.asarray(params, dtype=float).reshape(-1)
    raw = _oracle_lift(tt, plan, p, bundle.settings)
    e0, e1 = float(wrap_phase(raw[0])), float(wrap_phase(raw[-1]))
    f = raw - (e0 + (e1 - e0) * tt / plan.t_final)
    c, d, phi0 = bundle.model.sine_params(tt)
    return float(np.trapezoid(np.abs(c - d * np.sin(f + phi0)), tt))


def _oracle_plan(kind, scts, gaps):
    """The plan builder of the command line before ``plan_travel``, with
    the crossing plan's own X/Y choice (the two full-span branches, Y the
    one ending nearer phase zero): the reference for ``plan_travel``."""
    if kind == "auto":
        return plan_through_gaps(scts, gaps)
    labeled = {b.branch_id: b for b in scts if b.spans_full_domain()}
    if "X" not in labeled or "Y" not in labeled:
        raise ConstructionError(
            f"crossing plan {kind!r} needs the two full-span "
            "branches X and Y, which this run does not have"
        )
    touches = branch_touch_times(labeled["X"], labeled["Y"])
    if not touches:
        raise ConstructionError("no corridor found between the X and Y branches")
    times = [touches[len(touches) // 2]] if kind == "vt-a" else touches
    full = [b for b in scts if b.spans_full_domain()]
    y, x = sorted(full, key=lambda b: abs(wrap_phase(b.end_phase)))
    branches = tuple(x if i % 2 == 0 else y for i in range(len(times) + 1))
    crossings = tuple((c, c) for c in sorted(times))
    return TravelPlan(branches=branches, crossings=crossings)


class _ConstantPhase:
    """Residual sin p - sin f, whose roots are p and pi - p at all times,
    over a run of duration 1."""

    t_final = 1.0

    def __init__(self, phase):
        self.phase = phase

    def sine_params(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, np.sin(self.phase)), np.ones_like(t), np.zeros_like(t)


def _flat_branch(times, phase, branch_id):
    return SpeedControlledTrajectory(
        times=times,
        f2=np.full_like(times, phase),
        branch_id=branch_id,
        model=_ConstantPhase(phase),
    )


def _lift(t, plan, params, settings):
    return itt._splice(t, plan, settings)(params)


class _Checked(Exception):
    """Stops the optimizer once every search's cost has been checked."""


def _assert_search_costs_match_oracle(monkeypatch, bundle, params, plan=None):
    """Each search's cost at its own triple of ``params``, with the other
    bridges at theirs, is the oracle cost of ``params`` bit for bit.  The
    searches are replaced by that one evaluation, so the bridges stay at
    ``params`` throughout."""
    plan = plan or bundle.plan
    p = np.asarray(params, dtype=float).reshape(-1)
    expected = _oracle_cost(bundle, p, plan=plan)
    checked = []

    def checking(func, simplex, **options):
        value = func(np.copy(simplex[0]))
        assert value == expected, (len(checked), value - expected, p)
        checked.append(value)
        if len(checked) == plan.n_bridges:
            raise _Checked
        return SimplexResult(x=simplex[0], fun=value, evaluations=1, converged=True)

    monkeypatch.setattr(itt, "nelder_mead", checking)
    with pytest.raises(_Checked):
        optimize_virtual_trajectory(
            plan, bundle.grid, bundle.settings, init=p
        )


class TestBridgeSettings:
    def test_defaults_per_kind(self):
        dec = default_bridge_settings("decelerate", 1.1)
        acc = default_bridge_settings("accelerate", 0.9)
        sta = default_bridge_settings("sta", 20.0)
        assert dec.mode == "local" and acc.mode == "local"
        assert sta.mode == "detached"
        assert dec.width_bounds == (0.01, 0.05)
        assert sta.width_bounds[1] == 20.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            default_bridge_settings("sideways", 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BridgeSettings(width_bounds=(0.05, 0.01), center_slack=0.1)
        with pytest.raises(ValueError):
            BridgeSettings(width_bounds=(0.01, 0.05), center_slack=0.0)
        with pytest.raises(ValueError):
            BridgeSettings(width_bounds=(0.01, 0.05), center_slack=0.1, mode="x")


class TestPlans:
    def test_chain_spans_all_gaps(self, accel):
        plan = accel.plan
        assert plan.n_bridges == len(accel.gaps) == 3
        assert len(plan.branches) == 4
        assert plan.branches[0].t_start < 0.02 * accel.t_final
        for (lo, hi), gap in zip(plan.crossings, accel.gaps):
            assert lo == gap.t_start and hi == gap.t_end

    def test_crossing_plan_alternates(self, decel_b):
        ids = [b.branch_id for b in decel_b.plan.branches]
        assert ids == ["X", "Y", "X", "Y"]
        assert all(lo == hi for lo, hi in decel_b.plan.crossings)

    def test_crossing_plan_needs_two_full_span(self, accel):
        with pytest.raises(ConstructionError, match="full-span"):
            plan_with_crossings(accel.scts, [0.5])

    def test_crossing_inside_domain(self, decel_a):
        with pytest.raises(ConstructionError, match="inside"):
            plan_with_crossings(decel_a.scts, [1.2])

    def test_branch_bridge_count_coupled(self, decel_a):
        labeled = {b.branch_id: b for b in decel_a.scts}
        with pytest.raises(ConstructionError, match="branch"):
            TravelPlan(branches=(labeled["X"],), crossings=((0.9, 0.9),))

    def test_chain_requires_start_branch(self, decel_a):
        with pytest.raises(ConstructionError, match="t = 0"):
            plan_through_gaps([], [])

    @pytest.mark.parametrize(
        "name, kind", [("accel", "auto"), ("decel_a", "vt-a"), ("decel_a", "vt-b")]
    )
    def test_plan_travel_matches_oracle(self, request, name, kind):
        bundle = request.getfixturevalue(name)
        args = (kind, bundle.scts, bundle.gaps)
        ours, oracle = plan_travel(*args), _oracle_plan(*args)
        assert [b.branch_id for b in ours.branches] == [
            b.branch_id for b in oracle.branches
        ]
        assert all(a is b for a, b in zip(ours.branches, oracle.branches))
        assert ours.crossings == oracle.crossings
        assert ours.t_final == oracle.t_final

    @pytest.mark.parametrize("kind", ["vt-a", "vt-b"])
    def test_plan_travel_names_missing_x_and_y(self, accel, kind):
        with pytest.raises(ConstructionError) as excinfo:
            plan_travel(kind, accel.scts, accel.gaps)
        assert str(excinfo.value) == (
            f"crossing plan {kind!r} needs the two full-span branches X and Y, "
            "which this run does not have"
        )

    def test_plan_travel_needs_a_corridor(self):
        t = np.linspace(0.0, 1.0, 101)
        apart = [_flat_branch(t, 0.0, "X"), _flat_branch(t, 2.0, "Y")]
        with pytest.raises(ConstructionError) as excinfo:
            plan_travel("vt-a", apart, [])
        assert str(excinfo.value) == "no corridor found between the X and Y branches"

    def test_plan_travel_rejects_unknown_kind(self, decel_a):
        assert PLAN_KINDS == ("auto", "vt-a", "vt-b")
        with pytest.raises(ValueError, match="plan kind"):
            plan_travel("vt-c", decel_a.scts, decel_a.gaps)

    @pytest.mark.parametrize(
        "name",
        ["accel", "accel_overlap", "decel_a", "decel_b",
         "sta10", "sta20", "sta30", "sta300", "sta300_fine"],
    )
    def test_plan_reads_the_run_from_its_branches(self, request, name):
        """A plan holds no duration or model of its own: both are the
        branches' model's, the one the run scanned, so a caller cannot pass
        a duration that disagrees with the branches."""
        bundle = request.getfixturevalue(name)
        plan = bundle.plan
        assert all(b.model is bundle.model for b in plan.branches)
        assert plan.model is bundle.model
        assert plan.t_final == bundle.model.t_final == bundle.grid.t_end


class TestDefaultParams:
    def test_crossing_start_amplitude(self, decel_a):
        params = default_bridge_params(decel_a.plan, decel_a.settings)
        assert len(params) == 1
        center, width, amp = params[0]
        assert center == pytest.approx(decel_a.plan.crossings[0][0])
        assert width == 0.02  # zero-width crossing gets the fixed seed
        x, y = decel_a.plan.branches
        fx, fy = branch_lifts((x, y), [center])
        expected = wrap_phase(fy[0] - fx[0])
        assert amp == pytest.approx(float(expected))

    def test_gap_start_amplitude(self, accel):
        params = default_bridge_params(accel.plan, accel.settings)
        for (center, width, amp), gap, nxt, prev in zip(
            params, accel.gaps, accel.plan.branches[1:], accel.plan.branches[:-1]
        ):
            assert center == pytest.approx(0.5 * (gap.t_start + gap.t_end))
            assert width == pytest.approx(0.5 * gap.width)
            assert amp == pytest.approx(
                float(wrap_phase(nxt.start_phase - prev.end_phase))
            )

    def test_detached_starts_at_zero(self, sta20):
        params = default_bridge_params(sta20.plan, sta20.settings)
        assert params[0][2] == 0.0


class TestVirtualTrajectory:
    def test_endpoints_exactly_zero(self, decel_a, decel_b, accel, sta20):
        for bundle in (decel_a, decel_b, accel, sta20):
            assert bundle.vt.f2[0] == 0.0
            assert bundle.vt.f2[-1] == 0.0

    def test_lift_wraps_to_canonical(self, decel_a):
        vt = decel_a.vt
        assert np.allclose(wrap_phase(vt.f2_lift[::2]), vt.f2, atol=1e-12)

    @pytest.mark.parametrize(
        "name", ["decel_a", "decel_b", "accel", "sta30", "sta20", "sta10"]
    )
    def test_lift_on_half_grid_canonical_on_nodes(self, request, name):
        """``f2_lift`` holds the 2 n_steps + 1 node/midpoint samples the
        synthesis reads, and ``f2`` is its wrapped node samples with both
        ends exactly zero."""
        vt = request.getfixturevalue(name).vt
        assert vt.f2_lift.shape == (2 * vt.grid.n_steps + 1,)
        expected = wrap_phase(vt.f2_lift[::2])
        assert abs(expected[0]) <= 1e-9 and abs(expected[-1]) <= 1e-9
        expected[[0, -1]] = 0.0
        assert np.array_equal(vt.f2, expected)

    def test_amplitude_bound_enforced(self, decel_a):
        big = [(0.9, 0.02, 20.0)]
        with pytest.raises(ConstructionError, match="unreachable"):
            build_virtual_trajectory(
                decel_a.plan, big, decel_a.grid, decel_a.settings
            )

    @pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_params_rejected(self, decel_b, bad):
        """A nan or infinite parameter used to come back as a path that was
        nan everywhere but its two forced-zero endpoints."""
        params = default_bridge_params(decel_b.plan, decel_b.settings)
        params[1] = bad
        with pytest.raises(ConstructionError, match="bridge 1 "):
            build_virtual_trajectory(
                decel_b.plan, params, decel_b.grid, decel_b.settings
            )

    def test_far_end_rejected(self, decel_a):
        """A slowdown run with the accelerate plan follows branch X alone,
        which ends 1.6 rad from phase zero: ramping that away used to cost
        the path its target (F = 0.93, below both baselines)."""
        plan = plan_travel("auto", decel_a.scts, decel_a.gaps)
        assert plan.n_bridges == 0
        settings = default_bridge_settings("accelerate", decel_a.t_final)
        with pytest.raises(ConstructionError) as excinfo:
            build_virtual_trajectory(plan, [], decel_a.grid, settings)
        message = str(excinfo.value)
        assert message.startswith("path ends -1.607 rad from phase zero at t = T_F")
        assert f"the {LINKING_THRESHOLD} rad the branch linker follows" in message

    @pytest.mark.parametrize("phase, rejected", [(0.15, False), (0.25, True)])
    def test_ramp_bounded_by_linking_threshold(self, phase, rejected):
        t = np.linspace(0.0, 1.0, 101)
        plan = TravelPlan(branches=(_flat_branch(t, phase, "X"),), crossings=())
        settings = default_bridge_settings("accelerate", 1.0)
        grid = TimeGrid(1.0, 50)
        if rejected:
            with pytest.raises(ConstructionError, match="0.25 rad .* at t = 0,"):
                build_virtual_trajectory(plan, [], grid, settings)
        else:
            vt = build_virtual_trajectory(plan, [], grid, settings)
            assert np.array_equal(vt.f2, np.zeros_like(grid.times))

    def test_param_count_checked(self, decel_a):
        with pytest.raises(ConstructionError, match="parameters"):
            build_virtual_trajectory(
                decel_a.plan, [(0.9, 0.02, 0.1)] * 2, decel_a.grid, decel_a.settings
            )


class TestOptimizer:
    def test_never_worse_than_the_seed(self, decel_a):
        seed = default_bridge_params(decel_a.plan, decel_a.settings)
        start = _oracle_cost(decel_a, seed)
        assert decel_a.cost.integrated_residual <= start + 1e-12

    def test_deterministic(self, decel_a):
        vt2, cost2 = optimize_virtual_trajectory(
            decel_a.plan, decel_a.grid, decel_a.settings
        )
        assert vt2.bridge_params == decel_a.vt.bridge_params
        assert cost2.integrated_residual == decel_a.cost.integrated_residual

    def test_evaluation_budget(self, decel_a, decel_b, accel, sta20, sta10):
        for bundle in (decel_a, decel_b, accel, sta20, sta10):
            assert 0 < bundle.cost.evaluations <= 2000

    @pytest.mark.parametrize(
        "name, converged",
        [("accel", True), ("decel_a", True), ("decel_b", True), ("sta30", True)],
    )
    def test_converged_unless_stopped_at_the_cap(self, request, name, converged):
        """``converged`` is false exactly when the searches spent all their
        evaluations without meeting the tolerance rule (none of these do;
        ``test_numerics`` checks the rule against SciPy's)."""
        cost = request.getfixturevalue(name).cost
        assert cost.max_evaluations == 2000
        assert cost.converged is converged
        assert cost.converged == (cost.evaluations < cost.max_evaluations)

    def test_report_rejects_inconsistent_search(self):
        with pytest.raises(ValueError, match="evaluation cap"):
            itt.IttCostReport(
                0.1, (0.1,), max_evaluations=20,
                bridge_evaluations=(10,), bridge_converged=(False,),
            )
        with pytest.raises(ValueError, match="within"):
            itt.IttCostReport(
                0.1, (0.1,), max_evaluations=20,
                bridge_evaluations=(21,), bridge_converged=(True,),
            )
        with pytest.raises(ValueError, match="one flag per bridge"):
            itt.IttCostReport(
                0.1, (0.1,), max_evaluations=20,
                bridge_evaluations=(10,), bridge_converged=(),
            )

    def test_report_totals_are_its_bridge_counts(self):
        cost = itt.IttCostReport(
            0.1, (0.1, 0.0), max_evaluations=20,
            bridge_evaluations=(20, 0), bridge_converged=(False, False),
        )
        assert (cost.evaluations, cost.converged) == (20, False)
        empty = itt.IttCostReport(0.1, ())
        assert (empty.evaluations, empty.converged) == (0, True)

    @pytest.mark.parametrize("name", ["accel", "decel_b"])
    def test_second_pass_finds_nothing(self, request, name):
        """The bridge windows are disjoint at the optimum, so the cost is a
        sum of per-bridge terms and one pass of per-bridge searches is the
        joint optimum: a second pass from it gains less than 1e-12."""
        bundle = request.getfixturevalue(name)
        _, again = optimize_virtual_trajectory(
            bundle.plan, bundle.grid, bundle.settings,
            init=bundle.vt.bridge_params,
        )
        gain = bundle.cost.integrated_residual - again.integrated_residual
        assert 0.0 <= gain < 1e-12

    def test_later_bridges_keep_their_seed_at_the_cap(self, accel):
        """A cap the first search exhausts leaves nothing for the others:
        they make no evaluation and their bridges stay at the seed."""
        seed = default_bridge_params(accel.plan, accel.settings)
        vt, cost = optimize_virtual_trajectory(
            accel.plan, accel.grid, accel.settings, maxfev=50
        )
        assert (cost.evaluations, cost.max_evaluations) == (50, 50)
        assert cost.bridge_evaluations == (50, 0, 0)
        assert cost.bridge_converged == (False, False, False)
        assert not cost.converged
        clamped = [b[:3] for b in _bridges(accel.plan, np.ravel(seed), accel.settings)]
        assert vt.bridge_params[1:] == tuple(clamped[1:])
        assert vt.bridge_params[0] != clamped[0]

    @pytest.mark.parametrize("name", ["decel_a", "sta20"])
    def test_one_bridge_plan_matches_the_joint_search(self, request, name):
        """With one bridge the per-bridge search is the joint simplex over
        all parameters, from the same steps, on the same cost: same path,
        same report."""
        bundle = request.getfixturevalue(name)
        plan, settings = bundle.plan, bundle.settings
        assert plan.n_bridges == 1
        p0 = np.ravel(default_bridge_params(plan, settings)).astype(float)
        tt = np.linspace(0.0, plan.t_final, 4001)
        c, d, phi0 = bundle.model.sine_params(tt)
        splice = itt._splice(tt, plan, settings)

        def cost(p):
            raw = splice(p)
            f = raw - itt._ramp(tt, raw, plan.t_final)[0]
            return float(np.trapezoid(np.abs(c - d * np.sin(f + phi0)), tt))

        sig_lo, sig_hi = settings.width_bounds
        if bundle.vt.bridge_mode == "detached":
            steps = (plan.t_final / 8.0, plan.t_final / 8.0, -0.9)
        else:
            steps = (0.25 * sig_hi, 0.5 * (sig_hi - sig_lo), 0.3)
        simplex = [p0]
        for j in range(len(p0)):
            q = p0.copy()
            q[j] += steps[j % 3]
            simplex.append(q)
        joint = nelder_mead(cost, simplex, xatol=1e-6, fatol=1e-12, maxfev=2000)

        vt = build_virtual_trajectory(plan, joint.x, bundle.grid, settings)
        assert vt.bridge_params == bundle.vt.bridge_params
        assert np.array_equal(vt.f2_lift, bundle.vt.f2_lift)
        assert np.array_equal(vt.f2, bundle.vt.f2)
        report = bundle.cost
        assert report.integrated_residual == joint.fun
        assert (report.evaluations, report.converged) == (joint.evaluations, joint.converged)
        assert report.bridge_evaluations == (joint.evaluations,)
        assert report.bridge_converged == (joint.converged,)

    def test_no_bridges_returns_branch_path(self, sta30):
        assert sta30.cost.evaluations == 0
        branch = sta30.plan.branches[0]
        th = sta30.grid.half_times
        k = len(th) // 2  # t = 15
        assert sta30.vt.f2_lift[k] == pytest.approx(
            float(branch_lifts([branch], th[k : k + 1])[0][0]), abs=0.05
        )

    def test_plan_without_bridge_follows_its_branch(self, sta30):
        """The sta preset asks for the detached family, which a plan with no
        bridge cannot use: the search follows the branch, exactly as with
        local settings, instead of returning the zero path."""
        preset = default_bridge_settings("sta", sta30.duration)
        assert preset.mode == "detached" and sta30.plan.n_bridges == 0
        vt, cost = optimize_virtual_trajectory(
            sta30.plan, sta30.grid, preset
        )
        local = replace(preset, mode="local")
        vt_local, cost_local = optimize_virtual_trajectory(
            sta30.plan, sta30.grid, local
        )
        assert vt.bridge_mode == vt_local.bridge_mode == "local"
        assert np.array_equal(vt.f2, vt_local.f2)
        assert cost.integrated_residual == cost_local.integrated_residual

    def test_bridge_mode_per_run(self, decel_a, accel, sta20, sta10):
        assert decel_a.vt.bridge_mode == accel.vt.bridge_mode == "local"
        assert sta20.vt.bridge_mode == sta10.vt.bridge_mode == "detached"

    def test_per_gap_decomposition(self, accel):
        report = accel.cost
        assert len(report.per_gap_residual) == 3
        assert all(v >= 0 for v in report.per_gap_residual)
        assert sum(report.per_gap_residual) <= report.integrated_residual + 1e-12

    @pytest.mark.parametrize("name", ["accel", "decel_b", "sta20"])
    def test_cost_samples_the_one_residual(self, request, monkeypatch, name):
        """Every |beta| sample the search integrates is |zerocurves.residual|
        at the model's own (C, D, phi0) on the cost grid, bit for bit, and
        the report integrates the samples at the chosen parameters.  A
        local search calls the residual on its three fixed arrays and then
        on its window alone, so each call's (C, D, phi0) is checked to be
        the cost grid's samples at the call's own offset."""
        bundle = request.getfixturevalue(name)
        tt = np.linspace(0.0, bundle.plan.t_final, 4001)
        params = np.asarray(bundle.model.sine_params(tt))
        sampled, calls = [], []

        def sampling(model, t):
            out = sample_params(model, t)
            sampled.append(out)
            return out

        def recording(c, d, phi0, f):
            out = residual(c, d, phi0, f)
            calls.append((c, d, phi0, f, out))
            return out

        monkeypatch.setattr(itt, "sample_params", sampling)
        monkeypatch.setattr(itt, "residual", recording)
        _, cost = optimize_virtual_trajectory(
            bundle.plan, bundle.grid, bundle.settings, maxfev=30
        )
        searches = sum(n > 0 for n in cost.bridge_evaluations)
        fixed = 3 * searches if bundle.vt.bridge_mode == "local" else 0
        assert len(calls) == cost.evaluations + fixed + 1
        (grid_params,) = sampled
        for c, d, phi0, f, out in calls:
            n = len(f)
            for j, view in enumerate((c, d, phi0)):
                whole = grid_params[j]
                assert np.shares_memory(view, whole)
                at = (view.ctypes.data - whole.ctypes.data) // whole.itemsize
                assert np.array_equal(view, params[j][at : at + n])
            assert np.array_equal(out, residual(c, d, phi0, f))
        assert len(calls[-1][-1]) == len(tt)
        assert cost.integrated_residual == float(np.trapezoid(np.abs(calls[-1][-1]), tt))

    def test_non_finite_cost_grid_sample_raises(self, decel_a):
        """A residual parameter that is not finite on the cost grid used to
        surface as a non-finite cost at the seed's bridge parameters; it is
        now named, with its time, before the search starts.  The search
        reads the poisoned model from the plan's branches."""
        tt = np.linspace(0.0, decel_a.t_final, 1002)

        class Poisoned:
            t_final = decel_a.model.t_final

            def sine_params(self, t):
                c, d, phi0 = decel_a.model.sine_params(t)
                return np.where(t == tt[500], np.nan, c), d, phi0

        poisoned = Poisoned()
        branches = tuple(replace(b, model=poisoned) for b in decel_a.plan.branches)
        plan = replace(decel_a.plan, branches=branches)
        assert plan.model is poisoned
        message = re.escape(f"residual C is not finite at t = {float(tt[500])!r}")
        with pytest.raises(ScanError, match=message + "$"):
            optimize_virtual_trajectory(plan, decel_a.grid, decel_a.settings, n_cost=1001)

    def test_nan_seed_raises(self, decel_a):
        with pytest.raises(OptimizerError, match="non-finite"):
            optimize_virtual_trajectory(
                decel_a.plan,
                decel_a.grid,
                decel_a.settings,
                init=[(np.nan, 0.02, 0.1)],
            )

    @pytest.mark.parametrize(
        "bad", OTHER_NON_FINITE.values(), ids=OTHER_NON_FINITE.keys()
    )
    def test_non_finite_seed_raises(self, decel_a, bad):
        """A bad amplitude reaches only the samples inside its bridge's
        window, which still makes the cost non-finite."""
        with pytest.raises(OptimizerError, match="non-finite"):
            optimize_virtual_trajectory(
                decel_a.plan,
                decel_a.grid,
                decel_a.settings,
                init=[bad],
            )

    @pytest.mark.parametrize("bad", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_build_and_search_name_the_same_triple(self, decel_b, bad):
        """One check serves the build and the search's seed: each names the
        bridge and its triple in the same words, in its own error class."""
        params = default_bridge_params(decel_b.plan, decel_b.settings)
        params[1] = bad
        triple = np.array2string(np.asarray(bad, dtype=float))
        message = f"bridge 1 has non-finite parameters {triple}"
        with pytest.raises(ConstructionError) as built:
            build_virtual_trajectory(decel_b.plan, params, decel_b.grid, decel_b.settings)
        with pytest.raises(OptimizerError) as searched:
            optimize_virtual_trajectory(
                decel_b.plan, decel_b.grid, decel_b.settings, init=params
            )
        assert str(built.value) == str(searched.value) == message

    def test_init_length_checked(self, decel_a):
        with pytest.raises(ConstructionError, match="expected 3 bridge parameters, got 9"):
            optimize_virtual_trajectory(
                decel_a.plan,
                decel_a.grid,
                decel_a.settings,
                init=[(0.9, 0.02, 0.1)] * 3,
            )


BUNDLES = ["accel", "decel_a", "decel_b"]


class TestLiftOracle:
    """The windowed lift on per-plan samples against the whole-grid lift."""

    @staticmethod
    def _assert_equal(plan, settings, params, t=None):
        if t is None:
            t = np.linspace(0.0, plan.t_final, 4001)
        p = np.asarray(params, dtype=float).reshape(-1)
        ours = _lift(t, plan, p, settings)
        oracle = _oracle_lift(t, plan, p, settings)
        assert np.array_equal(ours, oracle), (
            f"max |diff| {np.max(np.abs(ours - oracle)):.3g} at {p}"
        )

    @pytest.mark.parametrize("name", BUNDLES)
    def test_seed_and_optimum(self, request, name):
        bundle = request.getfixturevalue(name)
        seed = default_bridge_params(bundle.plan, bundle.settings)
        for params in (seed, bundle.vt.bridge_params):
            self._assert_equal(bundle.plan, bundle.settings, params)
            self._assert_equal(
                bundle.plan, bundle.settings, params, bundle.grid.half_times
            )

    @pytest.mark.parametrize("name", BUNDLES)
    def test_random_triples(self, request, monkeypatch, name):
        bundle = request.getfixturevalue(name)
        rng = np.random.default_rng(20)
        sig_hi = bundle.settings.width_bounds[1]
        slack = bundle.settings.center_slack
        centers = np.array([0.5 * (lo + hi) for lo, hi in bundle.plan.crossings])
        for _ in range(50):
            n = len(centers)
            params = np.column_stack(
                [
                    centers + rng.uniform(-2.0, 2.0, n) * slack,
                    rng.uniform(-1.5, 1.5, n) * sig_hi,
                    rng.uniform(-AMP_MAX, AMP_MAX, n),
                ]
            )
            self._assert_equal(bundle.plan, bundle.settings, params)
            _assert_search_costs_match_oracle(monkeypatch, bundle, params)

    @pytest.mark.parametrize("name", BUNDLES)
    def test_clamp_cases(self, request, monkeypatch, name):
        bundle = request.getfixturevalue(name)
        plan, settings = bundle.plan, bundle.settings
        sig_lo, sig_hi = settings.width_bounds
        slack = settings.center_slack
        centers = np.array([0.5 * (lo + hi) for lo, hi in plan.crossings])
        n = len(centers)
        amp = np.full(n, 0.7)
        for c, sig in [
            (centers, np.full(n, 0.1 * sig_lo)),
            (centers, np.full(n, -0.1 * sig_lo)),
            (centers, np.zeros(n)),
            (centers, np.full(n, 10.0 * sig_hi)),
            (centers - 3.0 * slack, np.full(n, sig_lo)),
            (centers + 3.0 * slack, np.full(n, sig_hi)),
        ]:
            params = np.column_stack([c, sig, amp])
            self._assert_equal(plan, settings, params)
            _assert_search_costs_match_oracle(monkeypatch, bundle, params)

        # windows clipped at 0 and at T_F, on plans bridging near the edges
        t_f = plan.t_final
        two = plan.branches[:2]
        for gc in (0.0, 0.01 * t_f, 0.99 * t_f, t_f):
            edge = TravelPlan(branches=two, crossings=((gc, gc),))
            for params in ([gc, sig_hi, -1.3], [gc, sig_lo, 2.0]):
                (_, _, _, lo, hi), = _bridges(edge, params, settings)
                assert lo == 0.0 or hi == t_f
                self._assert_equal(edge, settings, params)
                _assert_search_costs_match_oracle(monkeypatch, bundle, params, edge)

        # the widest windows of neighbouring bridges overlap
        if n > 1:
            wide = np.column_stack([centers, np.full(n, sig_hi), amp])
            windows = [(lo, hi) for *_, lo, hi in _bridges(plan, wide.ravel(), settings)]
            assert any(hi > lo2 for (_, hi), (lo2, _) in zip(windows, windows[1:]))
            self._assert_equal(plan, settings, wide)
            _assert_search_costs_match_oracle(monkeypatch, bundle, wide)

    @pytest.mark.parametrize("name", ["decel_a", "decel_b"])
    def test_search_matches_oracle(self, request, monkeypatch, name):
        """Nelder-Mead on the oracle cost takes the same steps to the same
        bits, and the reported residual is the oracle cost at the optimum.
        Each search runs on the oracle cost of its own triple, with the
        bridges before it at the optima the oracle searches found and
        those after it at their seeds."""
        bundle = request.getfixturevalue(name)
        assert bundle.cost.integrated_residual == _oracle_cost(
            bundle, bundle.vt.bridge_params
        )
        seed = np.ravel(default_bridge_params(bundle.plan, bundle.settings)).astype(float)
        found = []

        def on_oracle(func, simplex, **options):
            i = len(found)
            x = np.concatenate([*(r.x for r in found), seed[3 * i :]])

            def oracle(q):
                p = x.copy()
                p[3 * i : 3 * i + 3] = q
                return _oracle_cost(bundle, p)

            found.append(nelder_mead(oracle, simplex, **options))
            return found[-1]

        monkeypatch.setattr(itt, "nelder_mead", on_oracle)
        vt, cost = optimize_virtual_trajectory(
            bundle.plan, bundle.grid, bundle.settings
        )
        assert len(found) == bundle.plan.n_bridges
        assert cost.bridge_evaluations == bundle.cost.bridge_evaluations
        assert vt.bridge_params == bundle.vt.bridge_params
        assert cost.integrated_residual == bundle.cost.integrated_residual

    @pytest.mark.parametrize("name", BUNDLES)
    def test_every_search_cost_is_the_oracle_cost(self, request, monkeypatch, name):
        """Every cost a search evaluates on its window is the oracle cost on
        the whole path bit for bit, with the bridges before it at their
        optima and those after it at their seeds; the report's residual is
        the last search's best cost."""
        bundle = request.getfixturevalue(name)
        seed = np.ravel(default_bridge_params(bundle.plan, bundle.settings)).astype(float)
        found, evaluated = [], []

        def recording(func, simplex, **options):
            i = len(found)
            x = np.concatenate([*(r.x for r in found), seed[3 * i :]])

            def cost(q):
                value = func(q)
                p = x.copy()
                p[3 * i : 3 * i + 3] = q
                evaluated.append((p, value))
                return value

            found.append(nelder_mead(cost, simplex, **options))
            return found[-1]

        monkeypatch.setattr(itt, "nelder_mead", recording)
        vt, cost = optimize_virtual_trajectory(
            bundle.plan, bundle.grid, bundle.settings
        )
        assert vt.bridge_params == bundle.vt.bridge_params
        assert len(evaluated) == cost.evaluations == bundle.cost.evaluations
        for p, value in evaluated:
            assert value == _oracle_cost(bundle, p), p
        assert cost.integrated_residual == found[-1].fun


class TestDetachedLift:
    """The detached family's splice against its closed form: each clamped
    bump minus its chord from t = 0 to T_F."""

    @staticmethod
    def _assert_closed_form(plan, settings, params, t):
        p = np.asarray(params, dtype=float).reshape(-1)
        t_f = plan.t_final
        expected = np.zeros_like(t)
        for c, sig, amp, _, _ in _bridges(plan, p, settings):
            g = np.exp(-((t - c) ** 2) / (2.0 * sig**2))
            g0 = np.exp(-(c**2) / (2.0 * sig**2))
            g1 = np.exp(-((t_f - c) ** 2) / (2.0 * sig**2))
            expected = expected + amp * (g - (g0 + (g1 - g0) * t / t_f))
        assert np.array_equal(_lift(t, plan, p, settings), expected), p

    @pytest.mark.parametrize("name", ["sta20", "sta10"])
    def test_seed_optimum_and_random_triples(self, request, name):
        bundle = request.getfixturevalue(name)
        plan, settings = bundle.plan, bundle.settings
        assert bundle.vt.bridge_mode == "detached"
        tt = np.linspace(0.0, plan.t_final, 4001)
        seed = default_bridge_params(plan, settings)
        for params in (seed, bundle.vt.bridge_params):
            for t in (tt, bundle.grid.half_times):
                self._assert_closed_form(plan, settings, params, t)

        rng = np.random.default_rng(20)
        sig_hi = settings.width_bounds[1]
        slack = settings.center_slack
        centers = np.array([0.5 * (lo + hi) for lo, hi in plan.crossings])
        n = len(centers)
        for _ in range(50):
            params = np.column_stack(
                [
                    centers + rng.uniform(-2.0, 2.0, n) * slack,
                    rng.uniform(-1.5, 1.5, n) * sig_hi,
                    rng.uniform(-AMP_MAX, AMP_MAX, n),
                ]
            )
            self._assert_closed_form(plan, settings, params, tt)


def test_branch_evaluations_do_not_grow_with_the_search(monkeypatch, accel):
    """The search evaluates the branches a fixed number of times, however
    many cost evaluations it makes."""
    calls = [0]

    def counting(branches, t):
        calls[0] += 1
        return branch_lifts(branches, t)

    monkeypatch.setattr(itt, "branch_lifts", counting)
    counts = []
    for maxfev in (50, 400):
        calls[0] = 0
        _, cost = optimize_virtual_trajectory(
            accel.plan, accel.grid, accel.settings, maxfev=maxfev
        )
        assert cost.evaluations >= maxfev
        counts.append(calls[0])
    assert counts[0] == counts[1]
    assert counts[0] <= 5
