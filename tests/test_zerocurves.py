"""Root structure of the phase residual and branch linking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import diagnostics
from diagnostics import gap_direction_scan
from ffsynth import (
    CosineSweepSpec,
    FfstPhaseModel,
    SpeedControlledTrajectory,
    StaPhaseModel,
    TimeGrid,
    branch_lifts,
    branch_touch_times,
    build_magnification,
    default_step_count,
    detect_gaps,
    link_branches,
    wrap_phase,
)
from ffsynth import zerocurves
from ffsynth.zerocurves import (
    DEGENERATE_FLOOR,
    LINKING_THRESHOLD,
    ScanError,
    _pair_rows,
    residual,
    root_table,
    sample_params,
)


def _scalar_sine_roots(c: float, d: float, phi0: float):
    """Per-sample root solver the root table replaced: (roots, degenerate)."""
    if d < DEGENERATE_FLOOR:
        return (), abs(c) <= DEGENERATE_FLOOR
    s = c / d
    if abs(s) > 1.0 + 1e-12:
        return (), False
    s = min(1.0, max(-1.0, s))
    x1 = float(wrap_phase(np.arcsin(s) - phi0))
    if abs(abs(s) - 1.0) < 1e-12:
        return (x1,), False
    x2 = float(wrap_phase(np.pi - np.arcsin(s) - phi0))
    return (x1, x2), False


def _table_roots(c: float, d: float, phi0: float):
    """One row of ``root_table`` in the oracle's form: (roots, degenerate)."""
    x1, x2, n = root_table(c, d, phi0)
    return (float(x1), float(x2))[: max(int(n), 0)], bool(n < 0)


def _oracle_link(model, n_scan=16_000, threshold=LINKING_THRESHOLD, min_samples=6):
    """Per-sample branch linker the root-table linker replaced."""
    t = np.linspace(0.0, model.t_final, n_scan + 1)
    cs, ds, phis = model.sine_params(t)
    active: list[dict] = []
    done: list[dict] = []
    for k in range(n_scan + 1):
        roots, degenerate = _scalar_sine_roots(float(cs[k]), float(ds[k]), float(phis[k]))
        if degenerate:
            continue
        pairs = []
        for bi, br in enumerate(active):
            for ri, v in enumerate(roots):
                pairs.append((abs(float(wrap_phase(v - br["last"]))), bi, ri))
        pairs.sort()
        taken_b: set[int] = set()
        taken_r: set[int] = set()
        for dist, bi, ri in pairs:
            if bi in taken_b or ri in taken_r or dist >= threshold:
                continue
            taken_b.add(bi)
            taken_r.add(ri)
            br = active[bi]
            br["ks"].append(k)
            br["fs"].append(br["fs"][-1] + float(wrap_phase(roots[ri] - br["last"])))
            br["last"] = br["fs"][-1]
        survivors = []
        for bi, br in enumerate(active):
            (survivors if bi in taken_b else done).append(br)
        for ri, v in enumerate(roots):
            if ri not in taken_r:
                survivors.append({"ks": [k], "fs": [v], "last": v})
        active = survivors
    done.extend(active)

    out = []
    for br in done:
        if len(br["ks"]) < min_samples:
            continue
        out.append(
            SpeedControlledTrajectory(
                times=t[br["ks"]], f2=np.array(br["fs"]), branch_id="", model=model
            )
        )
    out.sort(key=lambda b: (b.t_start, b.start_phase))
    for i, b in enumerate(out):
        b.branch_id = f"B{i}"
    full = [b for b in out if b.spans_full_domain()]
    if len(out) == 2 and len(full) == 2:
        a, b = sorted(out, key=lambda s: abs(float(wrap_phase(s.end_phase))))
        a.branch_id = "Y"
        b.branch_id = "X"
    return out


def _oracle_touch_times(x, y, separation_threshold=1.2, n_scan=16_000):
    """Per-sample local-minimum loop ``branch_touch_times`` replaced."""
    t0 = max(x.t_start, y.t_start)
    t1 = min(x.t_end, y.t_end)
    t = np.linspace(t0, t1, n_scan + 1)
    fx, fy = branch_lifts((x, y), t)
    sep = np.abs(wrap_phase(fx - fy))
    out = []
    span = t1 - t0
    for k in range(1, n_scan):
        if (
            sep[k] < sep[k - 1]
            and sep[k] <= sep[k + 1]
            and sep[k] < separation_threshold
            and (t[k] - t0) > 0.05 * span
        ):
            out.append(float(t[k]))
    return out


def _assert_same_branches(got, want):
    assert [b.branch_id for b in got] == [b.branch_id for b in want]
    for g, w in zip(got, want):
        assert g.times.tobytes() == w.times.tobytes(), g.branch_id
        assert g.f2.tobytes() == w.f2.tobytes(), g.branch_id
        assert g.t_start == g.times[0] and g.t_end == g.times[-1]
        assert g.start_phase == g.f2[0] and g.end_phase == g.f2[-1]
        assert g.model is w.model


class _TableModel:
    """Residual given sample by sample on the integer times 0..n."""

    def __init__(self, c, d, phi0):
        self.c, self.d, self.phi0 = c, d, phi0
        self.t_final = float(len(c) - 1)

    def sine_params(self, t):
        k = np.rint(np.asarray(t)).astype(int)
        return self.c[k], self.d[k], self.phi0[k]


class _SingularModel:
    """Two roots everywhere except a middle stretch where D = 0 and C = 1."""

    def __init__(self, t_final: float):
        self.t_final = t_final

    def sine_params(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t > 0.4 * self.t_final) & (t < 0.6 * self.t_final)
        c = np.where(inside, 1.0, 0.5)
        d = np.where(inside, 0.0, 1.0)
        return c, d, np.zeros_like(t)


def _random_residual(seed: int, n: int = 3000):
    """Seeded (C, D, phi0) samples with seam crossings, tangencies, jumps,
    degenerate runs (D = C = 0) and singular runs (D = 0, C = 1)."""
    rng = np.random.default_rng(seed)
    phi0 = np.linspace(0.0, 6.0 * np.pi, n) + np.cumsum(rng.normal(0.0, 0.04, n))
    phi0[rng.integers(0, n, 6)] += rng.choice([-1.0, 1.0], 6) * rng.uniform(0.1, 0.4, 6)
    ratio = 1.4 * np.sin(np.cumsum(rng.normal(0.0, 0.02, n)) + rng.uniform(0, 2 * np.pi))
    tangent = rng.integers(0, n, 40)
    ratio[tangent] = rng.choice([-1.0, 1.0], 40) * (1.0 + rng.uniform(-9e-13, 9e-13, 40))
    d = 1.0 + 0.5 * np.sin(np.linspace(0.0, 7.0, n))
    c = ratio * d
    for value in (0.0, 1.0):
        for start in rng.integers(0, n - 30, 3):
            width = rng.integers(1, 25)
            d[start : start + width] = rng.choice([0.0, 1e-13])
            c[start : start + width] = value
    return c, d, phi0


def _rows(*runs):
    """(C, D, phi0) samples with D = 1, given as ``(C, phi0, repeats)`` runs."""
    c = np.concatenate([np.full(n, float(ci)) for ci, _, n in runs])
    phi0 = np.concatenate([np.full(n, float(p)) for _, p, n in runs])
    return c, np.ones_like(c), phi0


def _assert_links_like_oracle(c, d, phi0, threshold=LINKING_THRESHOLD):
    """The linker equals the loop bit for bit at min_samples 1 and 6; returns
    the loop's branches at min_samples 1."""
    model = _TableModel(*(np.asarray(v, dtype=float) for v in (c, d, phi0)))
    n_scan = len(c) - 1
    for min_samples in (6, 1):
        want = _oracle_link(model, n_scan, threshold, min_samples)
        _assert_same_branches(link_branches(model, n_scan, min_samples), want)
    return want


def _lift_at(b, k):
    """A ``_TableModel`` branch's lift at sample ``k`` (at time k), nan where
    the branch does not exist."""
    i = np.searchsorted(b.times, k)
    return float(b.f2[i]) if i < len(b.times) and b.times[i] == k else np.nan


def _lift_distances(branches, k, c, d, phi0):
    """The loop's |wrap(root - lift)| from each branch alive at sample k - 1
    (in start order) to each root at sample k."""
    roots = _table_roots(c[k], d[k], phi0[k])[0]
    return [
        [abs(float(wrap_phase(r - _lift_at(b, k - 1)))) for r in roots]
        for b in sorted(branches, key=lambda b: b.t_start)
        if not np.isnan(_lift_at(b, k - 1))
    ]


def _oracle_roots(c: float, d: float, phi0: float) -> list[float]:
    """Independent bracketing root finder for beta(f) = c - d sin(f + phi0)."""

    def beta(f):
        return c - d * np.sin(f + phi0)

    grid = np.linspace(-np.pi, np.pi, 20_001)
    vals = beta(grid)
    roots = []
    for k in range(len(grid) - 1):
        if vals[k] == 0.0:
            roots.append(grid[k])
        elif vals[k] * vals[k + 1] < 0.0:
            roots.append(brentq(beta, grid[k], grid[k + 1], xtol=1e-14))
    # drop the duplicate at +pi and merge near-coincident brackets
    out = []
    for r in roots:
        r = float(wrap_phase(r))
        if not any(abs(r - q) < 1e-8 for q in out):
            out.append(r)
    return sorted(out)


class TestWrapPhase:
    def test_range(self):
        x = np.linspace(-20, 20, 1001)
        w = wrap_phase(x)
        assert np.all(w >= -np.pi)
        assert np.all(w < np.pi)

    @given(st.floats(-50, 50), st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_period_invariance(self, x, k):
        assert wrap_phase(x + 2 * np.pi * k) == pytest.approx(
            wrap_phase(x), abs=1e-9
        )


class TestSineRoots:
    def test_matches_bracketing_oracle(self):
        cases = [
            (0.3, 1.0, 0.0),
            (-0.4, 0.9, 1.2),
            (0.0, 1.0, -2.0),
            (0.7, 0.8, 3.0),
            (-0.2, 0.25, -0.5),
        ]
        for c, d, phi0 in cases:
            got = sorted(_table_roots(c, d, phi0)[0])
            want = _oracle_roots(c, d, phi0)
            assert len(got) == len(want), (c, d, phi0)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9), (c, d, phi0)

    @given(
        st.floats(-2, 2),
        st.floats(0.05, 2),
        st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_roots_zero_the_residual(self, c, d, phi0):
        roots, _ = _table_roots(c, d, phi0)
        for r in roots:
            assert abs(residual(c, d, phi0, r)) < 1e-9 * (1 + abs(c) + abs(d))
            assert -np.pi <= r < np.pi

    def test_counts(self):
        assert len(_table_roots(0.5, 1.0, 0.0)[0]) == 2
        assert len(_table_roots(1.5, 1.0, 0.0)[0]) == 0
        assert len(_table_roots(-1.5, 1.0, 0.3)[0]) == 0

    def test_degenerate_amplitude(self):
        assert _table_roots(0.0, DEGENERATE_FLOOR / 10, 0.0)[1]

    def test_offset_roots_shift(self):
        base = sorted(_table_roots(0.3, 1.0, 0.0)[0])
        shifted = sorted(wrap_phase(np.asarray(_table_roots(0.3, 1.0, 0.4)[0]) + 0.4))
        assert np.allclose(sorted(base), sorted(shifted), atol=1e-9)


class TestBranchLinking:
    def test_decel_has_two_full_span_branches(self, decel_a):
        full = [b for b in decel_a.scts if b.spans_full_domain()]
        assert len(full) == 2
        ids = sorted(b.branch_id for b in full)
        assert ids == ["X", "Y"]

    def test_y_end_phase_nearest_zero(self, decel_a):
        labeled = {b.branch_id: b for b in decel_a.scts}
        wy = abs(wrap_phase(labeled["Y"].end_phase))
        wx = abs(wrap_phase(labeled["X"].end_phase))
        assert wy <= wx

    def test_decel_has_no_gaps(self, decel_a):
        assert decel_a.gaps == []

    def test_accel_gap_count_and_order(self, accel):
        assert len(accel.gaps) == 3
        starts = [g.t_start for g in accel.gaps]
        assert starts == sorted(starts)
        for g in accel.gaps:
            assert 0.0 < g.t_start < g.t_end < accel.t_final

    def test_touch_times_near_known_corridors(self, decel_a):
        touches = decel_a.touches
        assert len(touches) == 3
        for touch, target in zip(touches, (0.7, 0.9, 1.0)):
            assert abs(touch - target) < 0.05

    def test_values_at_clamps_outside_support(self, decel_a):
        """``branch_lifts`` holds a branch at its end samples outside its
        span."""
        b = decel_a.scts[0]
        t = np.array([b.t_start - 1.0, b.t_start, b.t_end, b.t_end + 1.0])
        lo, start, end, hi = branch_lifts([b], t)[0]
        assert lo == b.start_phase and hi == b.end_phase
        assert start == pytest.approx(b.start_phase, abs=1e-9)
        assert end == pytest.approx(b.end_phase, abs=1e-9)

    def test_winding_branch_is_not_connected(self, decel_a):
        # ends one full turn away from the start: closed only modulo 2 pi
        labeled = {b.branch_id: b for b in decel_a.scts}
        assert not labeled["Y"].is_connected()

    def test_long_sta_branch_is_connected(self, sta30):
        chained = sta30.plan.branches[0]
        assert chained.is_connected()
        assert chained.spans_full_domain()


FIXTURES = ["decel_a", "decel_b", "accel", "sta10", "sta20", "sta30"]


class TestBranchShape:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_branch_holds_only_its_samples(self, request, name):
        """A branch holds the scan samples where it exists, in time order,
        and no placeholder for the others."""
        bundle = request.getfixturevalue(name)
        branches = bundle.scts if hasattr(bundle, "scts") else bundle.branches
        assert branches
        for b in branches:
            assert len(b.times) == len(b.f2), b.branch_id
            assert np.all(np.diff(b.times) > 0.0), b.branch_id
            assert not np.isnan(b.f2).any(), b.branch_id


class TestBranchLifts:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_every_fixture_branch_is_a_root(self, request, name):
        """Between its scan samples a branch is a root of the residual, to
        rounding; an interpolant of the samples was off by up to 6.3e-6."""
        bundle = request.getfixturevalue(name)
        branches = bundle.scts if hasattr(bundle, "scts") else bundle.branches
        assert branches
        for b in branches:
            mid = 0.5 * (b.times[1:] + b.times[:-1])
            c, d, phi0 = sample_params(b.model, mid)
            err = np.abs(residual(c, d, phi0, branch_lifts([b], mid)[0]))
            assert np.all(err <= 1e-12 * (1.0 + d)), b.branch_id

    def test_samples_are_kept(self, accel):
        """At its own scan samples a branch keeps its lift, to rounding."""
        for b in accel.scts:
            lift = branch_lifts([b], b.times)[0]
            assert np.max(np.abs(lift - b.f2)) < 1e-12, b.branch_id

    def test_one_root_table_per_model(self, monkeypatch, decel_a):
        calls = []
        monkeypatch.setattr(
            zerocurves, "root_table", lambda *a: calls.append(1) or root_table(*a)
        )
        x, y = zerocurves.x_and_y(decel_a.scts)
        branch_lifts((x, y, x), np.linspace(0.0, 1.1, 11))
        assert len(calls) == 1


class TestRootTable:
    def test_rows_match_scalar_solver(self):
        rng = np.random.default_rng(7)
        n = 4000
        d = rng.uniform(0.0, 2.0, n)
        floor_values = [0.0, 1e-13, DEGENERATE_FLOOR, 2e-12]
        d[rng.integers(0, n, 300)] = rng.choice(floor_values, 300)
        c = d * rng.uniform(-1.6, 1.6, n)
        c[rng.integers(0, n, 200)] = rng.choice([0.0, 1e-13, 1e-11, -0.5], 200)
        near = rng.integers(0, n, 300)
        sign = rng.choice([-1.0, 1.0], 300)
        c[near] = d[near] * sign * (1.0 + rng.uniform(-2e-12, 2e-12, 300))
        phi0 = rng.uniform(-10.0, 10.0, n)
        x1, x2, count = root_table(c, d, phi0)
        assert {-1, 0, 1, 2} <= set(count.tolist())
        for k in range(n):
            args = float(c[k]), float(d[k]), float(phi0[k])
            roots, degenerate = _scalar_sine_roots(*args)
            row = (float(x1[k]), float(x2[k]))[: max(int(count[k]), 0)]
            assert row == roots and (count[k] < 0) == degenerate, k
            assert _table_roots(*args) == (roots, degenerate), k

    def test_singular_samples_have_no_root(self):
        x1, x2, count = root_table([1.0, 0.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        assert count.tolist() == [0, -1, 2]
        assert np.isnan(x1[:2]).all() and np.isnan(x2[:2]).all()


class TestLinkerOracle:
    @pytest.mark.parametrize(
        "kind, t_final",
        [("ffst", 0.9), ("ffst", 1.0), ("ffst", 1.1)]
        + [("sta", 30.0), ("sta", 20.0), ("sta", 10.0)],
    )
    def test_shipped_scenarios(self, reference, kind, t_final):
        if kind == "ffst":
            grid = TimeGrid(t_final, default_step_count(t_final))
            model = FfstPhaseModel(reference, build_magnification(1.0, grid))
        else:
            model = StaPhaseModel(CosineSweepSpec(30.0, t_final))
        _assert_same_branches(link_branches(model), _oracle_link(model))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_residuals(self, seed):
        c, d, phi0 = _random_residual(seed)
        model = _TableModel(c, d, phi0)
        n_scan = len(c) - 1
        count = root_table(c, d, phi0)[2]
        assert {-1, 0, 1, 2} <= set(count.tolist())
        for min_samples in (1, 6):
            got = link_branches(model, n_scan=n_scan, min_samples=min_samples)
            want = _oracle_link(model, n_scan=n_scan, min_samples=min_samples)
            assert got
            _assert_same_branches(got, want)
        # some lift leaves the canonical interval, so a seam was crossed
        assert any(np.max(np.abs(b.f2)) > np.pi for b in got)

    def test_touch_times_match_loop(self, decel_a):
        labeled = {b.branch_id: b for b in decel_a.scts}
        x, y = labeled["X"], labeled["Y"]
        for threshold, n_scan in ((1.2, 16_000), (0.5, 16_000), (3.0, 999)):
            got = branch_touch_times(x, y, threshold, n_scan)
            assert got == _oracle_touch_times(x, y, threshold, n_scan)


class TestLinkerDecisionEdges:
    """Tables built so that a pairing decision sits exactly on an edge:
    equal distances, where the loop's order (branch age, then root)
    decides, and distances at the linking threshold."""

    S = 0.9978  # two roots 2 * arccos(S) = 0.133 apart around pi / 2 - phi0
    GAP = np.pi - 2.0 * np.arcsin(S)

    def test_tie_in_root_order(self):
        # sample 3 shifts both roots by half their gap: root 0 sits exactly
        # halfway between the two branches, and root 1 as far from branch 1
        c, d, phi0 = _rows((self.S, 0.0, 3), (self.S, -self.GAP / 2, 3))
        want = _assert_links_like_oracle(c, d, phi0)
        (e00, e01), (e10, e11) = _lift_distances(want, 3, c, d, phi0)
        assert e00 == e10 == e11 < e01 < LINKING_THRESHOLD
        # the older branch is root 0's, so identity wins the tie
        assert [len(b.times) for b in want] == [6, 6]

    def test_tie_after_a_swap_follows_branch_age(self):
        # C -> -C with phi0 -> phi0 + pi swaps the two roots at sample 3, so
        # from then on the older branch holds root 1; at sample 6 root 0 sits
        # exactly halfway between the branches, and the loop gives it to the
        # older one where a 2x2 table in root order would keep identity
        c, d, phi0 = _rows(
            (self.S, 0.0, 3), (-self.S, np.pi, 3), (self.S, -self.GAP / 2, 3)
        )
        want = _assert_links_like_oracle(c, d, phi0)
        (older_0, older_1), (newer_0, newer_1) = _lift_distances(want, 6, c, d, phi0)
        assert older_0 == newer_0 == newer_1 < older_1 < LINKING_THRESHOLD
        older = min(want, key=lambda b: _lift_at(b, 5))  # root 1 at sample 5
        x1, x2, _ = root_table(c, d, phi0)
        assert _lift_at(older, 5) == x2[5] and _lift_at(older, 6) == x1[6]
        # the canonical table keeps identity, the settlement swaps
        canonical, near = _pair_rows(np.stack((x1, x2), axis=1))
        assert near[6] and canonical[12:14].tolist() == [10, 11]

    def test_tie_after_a_one_sided_claim(self):
        # the single root of samples 0-2 claims root 1 at sample 3 and root 0
        # founds a newer branch; sample 6 has one root exactly halfway
        c, d, phi0 = _rows((1.0, -0.1, 3), (self.S, 0.0, 3), (1.0, 0.0, 3))
        want = _assert_links_like_oracle(c, d, phi0)
        (older,), (newer,) = _lift_distances(want, 6, c, d, phi0)
        assert older == newer < LINKING_THRESHOLD
        assert not np.isnan(_lift_at(min(want, key=lambda b: b.t_start), 6))

    @staticmethod
    def _step_to(target, above):
        """Count-1 samples 0-2 and 3-5 whose lift distance at sample 3 is the
        reachable value nearest ``target``, above it or at or below it."""
        best = None
        for shift in target + np.arange(-16, 17) * 1e-16:
            c, d, phi0 = _rows((1.0, 0.0, 3), (1.0, -shift, 3))
            x1 = root_table(c, d, phi0)[0]
            dist = abs(float(wrap_phase(x1[3] - x1[2])))
            if (dist > target) == above and (
                best is None or abs(dist - target) < abs(best[0] - target)
            ):
                best = dist, (c, d, phi0)
        return best

    @pytest.mark.parametrize("above", [False, True])
    def test_shipped_threshold(self, above):
        # a wrapped distance is a multiple of 2**-51 here, so 0.2 itself is
        # out of reach: take the nearest reachable distance on each side
        dist, table = self._step_to(LINKING_THRESHOLD, above)
        assert abs(dist - LINKING_THRESHOLD) < 1e-15
        want = _assert_links_like_oracle(*table)
        assert len(want) == (2 if above else 1)

    @pytest.mark.parametrize("ulps_above", [0, 1])
    def test_distance_at_threshold(self, monkeypatch, ulps_above):
        # the threshold moves onto the distance, and one ulp above it
        dist, table = self._step_to(0.25, above=False)
        threshold = dist if ulps_above == 0 else np.nextafter(dist, np.inf)
        monkeypatch.setattr(zerocurves, "LINKING_THRESHOLD", threshold)
        want = _assert_links_like_oracle(*table, threshold=threshold)
        assert len(want) == (1 if ulps_above else 2)

    def test_collapse_and_empty_samples_between_pairs(self):
        a = float(np.arcsin(self.S))
        c, d, phi0 = _rows(
            (self.S, 0.0, 4), (1.0, 0.0, 2), (self.S, 0.0, 3),
            (1.5, 0.0, 1), (self.S, 0.05, 4), (1.0, 0.1, 1), (self.S, 0.1, 2),
        )
        counts = [2] * 4 + [1] * 2 + [2] * 3 + [0] + [2] * 4 + [1] + [2] * 2
        assert root_table(c, d, phi0)[2].tolist() == counts
        want = _assert_links_like_oracle(c, d, phi0)
        assert np.isclose(a, _lift_at(want[0], 0))
        # the empty sample ends every branch; the collapses end one of two
        assert min(b.t_end for b in want) < 4.0 and max(b.t_start for b in want) > 9.0

    def test_swap_across_a_degenerate_run(self):
        c, d, phi0 = _rows((self.S, 0.0, 4), (0.0, 0.0, 5), (-self.S, np.pi, 4))
        d[4:9] = 0.0
        assert root_table(c, d, phi0)[2].tolist() == [2] * 4 + [-1] * 5 + [2] * 4
        want = _assert_links_like_oracle(c, d, phi0)
        # both branches pass the run, each continuing into the other root
        assert [len(b.times) for b in want] == [8, 8]
        x1, x2, _ = root_table(c, d, phi0)
        for b in want:
            assert (_lift_at(b, 3) == x1[3]) == (_lift_at(b, 9) == x2[9])


#: Per-sample residual lattice for the property test.  A two-root sample
#: has its roots _GAP apart around pi / 2 - phi0, and a tangency (C/D = 1)
#: its one root at the centre.  phi0 walks a grid of _GAP / 2 steps, so
#: equal distances abound; a turn (C -> -C, phi0 -> phi0 + pi) swaps the
#: roots, so the branches' age order differs from the root order; a nudge
#: of 0.2 lands within rounding of the threshold.  C/D = 1.5 gives empty
#: samples, and D = 0 gives flat (C = 0) and singular (C = 1) ones.
_RATIO = 0.9978
_GAP = np.pi - 2.0 * np.arcsin(_RATIO)
_LATTICE_KINDS = [_RATIO, _RATIO, _RATIO, 1.0, 1.5, "flat", "singular"]


class TestLinkerProperty:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_LATTICE_KINDS),
                st.sampled_from([-1, 0, 1]),
                st.sampled_from([False, False, True]),
                st.sampled_from([0.0, 0.0, 0.0, 0.2]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_on_lattice_tables(self, samples):
        kinds, steps, turns, nudges = zip(*samples)
        turned = np.cumsum(turns) % 2
        c = np.array([{"flat": 0.0, "singular": 1.0}.get(k, k) for k in kinds])
        d = np.array([0.0 if k in ("flat", "singular") else 1.0 for k in kinds])
        c = np.where(d > 0, c * (1 - 2 * turned), c)
        phi0 = np.cumsum(steps) * (_GAP / 2) + np.pi * turned + nudges
        _assert_links_like_oracle(c, d, phi0)


class TestNonFiniteResidual:
    def _model(self):
        c = np.full(200, 0.3)
        c[100] = np.nan
        return _TableModel(c, np.ones(200), np.linspace(0.0, 1.0, 200))

    def test_scan_names_first_bad_sample(self):
        with pytest.raises(ScanError, match=r"residual C is not finite at t = 100\.0$"):
            link_branches(self._model(), n_scan=199)

    def test_every_parameter_is_checked(self):
        model = self._model()
        model.c[100] = 0.3
        model.d = model.d.copy()
        model.d[150] = np.inf
        model.phi0[150] = np.nan
        message = r"residual D/phi0 is not finite at t = 150\.0$"
        with pytest.raises(ScanError, match=message):
            link_branches(model, n_scan=199)

    def test_sampling_names_first_bad_sample(self):
        """The one checked sampling every caller goes through."""
        model = self._model()
        t = np.arange(200.0)
        with pytest.raises(ScanError, match=r"residual C is not finite at t = 100\.0$"):
            sample_params(model, t)
        c, d, phi0 = sample_params(model, t[:100])
        assert np.array_equal(c, model.c[:100]) and np.array_equal(phi0, model.phi0[:100])

    def test_gap_scan_names_first_bad_sample(self):
        """A nan sample used to come out of ``root_table`` as a count-2 row,
        so ``detect_gaps`` counted it as a root rather than failing."""
        model = self._model()
        with pytest.raises(ScanError, match=r"residual C is not finite at t = 100\.0$"):
            detect_gaps(model, [], n_scan=199)


class TestSingularStretch:
    def test_opens_a_gap(self):
        model = _SingularModel(1.0)
        branches = link_branches(model, n_scan=1000)
        gaps = detect_gaps(model, branches, n_scan=1000)
        assert len(gaps) == 1
        assert gaps[0].t_start == pytest.approx(0.4, abs=2e-3)
        assert gaps[0].t_end == pytest.approx(0.6, abs=2e-3)

    def test_counts_zero_in_gap_direction_scan(self, reference, monkeypatch):
        toy = _SingularModel(1.1)
        monkeypatch.setattr(diagnostics, "FfstPhaseModel", lambda ref, prof: toy)
        profile = gap_direction_scan(reference, (1.1,), n_scan=1000)[1.1]
        assert profile.classification == "vertical"
        (lo, hi), = profile.zero_intervals
        assert lo == pytest.approx(0.44, abs=2e-3) and hi == pytest.approx(0.66, abs=2e-3)
