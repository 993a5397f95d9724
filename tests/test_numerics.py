"""The numpy ports of ``ffsynth.numerics`` against the SciPy routines they
mirror.  SciPy is a test-only dependency; here it is the oracle.

Bounds, fixed before the code was written: the simplex search must
agree with SciPy bit for bit.  The reference's Hermite interpolants
must agree with SciPy's not-a-knot ``CubicSpline`` through the same
knots to within 1e-12, and the sweep's with its closed form to within
5e-14 (1e-12 on a 2,000-step grid).  ``format_g17`` must write exactly
the bytes of ``'%.17g' % v``, Python's own formatting, on every value.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize

from ffsynth import CosineSweepSpec, TimeGrid, build_cosine_sweep, itt
from ffsynth.numerics import G17_FIELD_BYTES, format_g17, hermite, nelder_mead

#: Largest allowed distance of the reference's interpolants from SciPy's spline.
SPLINE_TOLERANCE = 1e-12


def _probe_times(x, n: int, seed: int = 0, margin: float = 0.01) -> np.ndarray:
    """Random times over the knot span and a ``margin`` (a fraction of the
    span) on each side, where interpolants extrapolate, plus every knot and
    interval midpoint."""
    rng = np.random.default_rng(seed)
    margin *= x[-1] - x[0]
    t = rng.uniform(x[0] - margin, x[-1] + margin, n)
    return np.concatenate([t, x, 0.5 * (x[1:] + x[:-1])])


class TestHermite:
    def test_reference_grid(self, reference):
        """psi_1, psi_2 (complex), the detuning and the coupling on the
        20,001-knot reference grid, against SciPy's spline."""
        x = reference.grid.times
        ours = reference.interpolators() + reference.drive.interpolators()
        ys = (
            reference.phi1,
            reference.phi2,
            reference.drive.delta_omega[::2],
            reference.drive.coupling[::2],
        )
        t = _probe_times(x, 200_000, margin=0.0)
        for interp, y in zip(ours, ys):
            assert np.max(np.abs(interp(t) - CubicSpline(x, y)(t))) < SPLINE_TOLERANCE

    @pytest.mark.parametrize(
        "n_steps, bound", [(2_000, 1e-12), (20_000, 5e-14), (100_000, 5e-14)]
    )
    def test_sweep_matches_closed_form(self, n_steps, bound):
        spec = CosineSweepSpec(30.0, 1.0)
        drive = build_cosine_sweep(spec, TimeGrid(1.0, n_steps))
        dw, _ = drive.interpolators()
        t = _probe_times(drive.grid.times, 200_000, margin=0.0)
        assert np.max(np.abs(dw(t) - spec.delta_omega(t))) < bound

    def test_knot_slopes_are_schrodinger(self, reference):
        """The slopes at the knots are -i H psi, bit for bit."""
        p1, p2 = reference.interpolators()
        dw, g = reference.drive.delta_omega[::2], reference.drive.coupling[::2]
        phi1, phi2 = reference.phi1, reference.phi2
        assert np.array_equal(p1.c[2], (-1j * (dw * phi1 + g * phi2))[:-1])
        assert np.array_equal(p2.c[2], (-1j * (g * phi1))[:-1])

    def test_matches_one_expression_form_bitwise(self, reference):
        """Gathering one coefficient row at a time keeps every bit of the
        one-expression form ``0.0 + c3 + c2 s + c1 s^2 + c0 (s^2 s)`` on the
        reference's complex and real interpolants, inside and outside the
        knots."""
        ours = reference.interpolators() + reference.drive.interpolators()
        assert {interp.c.dtype.kind for interp in ours} == {"c", "f"}
        t = _probe_times(reference.grid.times, 200_000)
        for interp in ours:
            x, c = interp.x, interp.c
            i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
            s = t - x[i]
            z = s * s
            expected = 0.0 + c[3, i] + c[2, i] * s + c[1, i] * z + c[0, i] * (z * s)
            assert np.array_equal(interp(t), expected)

    def test_unit_coupling_is_exact(self, reference):
        _, g = reference.drive.interpolators()
        t = _probe_times(reference.grid.times, 200_000)
        assert np.all(g(t) == 1.0)

    def test_shapes(self):
        x = np.linspace(0.0, 1.0, 50)
        ours = hermite(x, np.sin(x), np.cos(x))
        assert ours(0.01).shape == ()
        assert ours(np.zeros((3, 2))).shape == (3, 2)
        assert float(ours(0.01)) == ours(np.array([0.01, 0.5]))[0]

    @pytest.mark.parametrize(
        "x, y, dydx",
        [
            ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]),
            ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]),
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, np.nan, 1.0], [0.0, 0.0, 0.0, 0.0]),
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], [0.0, np.inf, 0.0, 0.0]),
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0]),
        ],
        ids=[
            "too-few-knots",
            "repeated-knot",
            "nan-value",
            "length-mismatch",
            "infinite-slope",
            "slope-length-mismatch",
        ],
    )
    def test_rejects_bad_input(self, x, y, dydx):
        with pytest.raises(ValueError):
            hermite(np.array(x), np.array(y), np.array(dydx))


def _rosenbrock(p: np.ndarray) -> float:
    return float(np.sum(100.0 * (p[1:] - p[:-1] ** 2) ** 2 + (1.0 - p[:-1]) ** 2))


def _terraces(p: np.ndarray) -> float:
    # piecewise constant: tied values at almost every step
    return float(np.floor(4.0 * np.sum((p - 0.3) ** 2)))


def _scipy_search(func, simplex, xatol, fatol, maxfev):
    simplex = np.asarray(simplex, dtype=float)
    return minimize(
        func,
        simplex[0],
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": xatol,
            "fatol": fatol,
            "maxfev": maxfev,
        },
    )


def _assert_same_search(ours, theirs):
    assert np.array_equal(ours.x, theirs.x)
    assert ours.fun == theirs.fun
    assert ours.evaluations == theirs.nfev
    assert ours.converged == theirs.success


@pytest.mark.parametrize("func", [_rosenbrock, _terraces], ids=["rosenbrock", "terraces"])
@pytest.mark.parametrize("maxfev", [2, 5, 17, 60, 400, 5000])
def test_nelder_mead_matches_scipy(func, maxfev):
    """Caps from inside the first simplex to beyond convergence, on a
    smooth valley and on a landscape of tied values."""
    simplex = [[-1.2, 1.0, 0.5], [-1.0, 1.0, 0.5], [-1.2, 1.3, 0.5], [-1.2, 1.0, 0.9]]
    ours = nelder_mead(func, simplex, xatol=1e-8, fatol=1e-10, maxfev=maxfev)
    _assert_same_search(ours, _scipy_search(func, simplex, 1e-8, 1e-10, maxfev))


@pytest.mark.parametrize("name, converged", [("accel", True), ("decel_a", True)])
def test_bridge_search_matches_scipy(request, monkeypatch, name, converged):
    """Every per-bridge search, against SciPy's from the same simplex on
    the same cost: the three of accelerate and the one of decelerate,
    single shift.  Each replay runs before the search, while the other
    bridges still hold the values that search sees."""
    bundle = request.getfixturevalue(name)
    calls = []

    def recording(func, simplex, **options):
        theirs = _scipy_search(func, simplex, **options)
        ours = nelder_mead(func, simplex, **options)
        calls.append((ours, theirs))
        return ours

    monkeypatch.setattr(itt, "nelder_mead", recording)
    _, cost = itt.optimize_virtual_trajectory(
        bundle.plan, bundle.model, bundle.grid, bundle.settings
    )
    assert len(calls) == bundle.plan.n_bridges
    for ours, theirs in calls:
        _assert_same_search(ours, theirs)
    assert cost.bridge_evaluations == tuple(ours.evaluations for ours, _ in calls)
    assert cost.bridge_converged == tuple(ours.converged for ours, _ in calls)
    assert cost.converged is converged
    assert cost == bundle.cost


def _g17_samples() -> dict[str, np.ndarray]:
    """About 1.2M doubles: random ones over every range, decade edges,
    exact rounding ties and the special values."""
    rng = np.random.default_rng(19)
    n = 200_000
    signs = rng.choice([-1.0, 1.0], n)
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)] + [10.0**k for k in range(-300, 301)])
    # a * 2^-j with a odd and a 5^j of 18 digits sits exactly halfway
    # between two 17-digit decimals
    ties = [
        a * 2.0**-j
        for j in range(1, 26)
        for a in range(-(-10**17 // 5**j) | 1, min(10**18 // 5**j, 2**53), 2)[:2000]
    ]
    return {
        "uniform": rng.uniform(-10.0, 10.0, n),
        "normal": rng.normal(size=n),
        "log-uniform": signs * 10.0 ** rng.uniform(-300.0, 300.0, n),
        "decade edges": np.concatenate(
            [decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf)]
        ),
        "integers": rng.integers(-(2**53), 2**53, n).astype(float),
        "m 2^e": np.ldexp(rng.integers(1, 2**53, n).astype(float), rng.integers(-1126, 972, n)),
        "short m 2^e": signs * np.ldexp(rng.integers(1, 2**20, n).astype(float), rng.integers(-70, 60, n)),
        "exact ties": np.array(ties),
        "special": np.array(
            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 1e-5, 9.9999999999999991e-6,
             1e-4, 1e16, 1e17, 9.9999999999999984e16, 2.0**53, 2.0**53 + 2.0, 0.1, 1.0 / 3.0]
        ),
    }


def test_g17_matches_percent_formatting():
    """Every sample's field, NULs deleted, is the text of ``'%.17g' % v``,
    and its last byte is a NUL."""
    samples = _g17_samples()
    assert sum(map(len, samples.values())) >= 1_000_000
    for name, values in samples.items():
        fields = format_g17(values)
        assert fields.shape == (len(values), G17_FIELD_BYTES)
        assert not fields[:, -1].any(), name  # the table writer's separator byte
        lines = np.concatenate([fields, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
        ours = lines.tobytes().translate(None, b"\0")
        theirs = b"".join([b"%.17g\n" % v for v in values.tolist()])
        if ours != theirs:
            pairs = zip(values.tolist(), ours.split(b"\n"), theirs.split(b"\n"))
            wrong = [(v, a, b) for v, a, b in pairs if a != b]
            pytest.fail(f"{name}: {len(wrong)} of {len(values)} differ, first {wrong[:3]}")


def test_g17_samples_hold_exact_ties():
    """The tie sample is what it claims: 18 significant digits ending in 5,
    the one case where 17-digit rounding needs round-half-even."""
    ties = _g17_samples()["exact ties"]
    assert len(ties) > 10_000
    for v in ties[:: len(ties) // 50].tolist():
        a, b = v.as_integer_ratio()  # b = 2^j, v = a 5^j / 10^j
        digits = str(a * 5 ** (b.bit_length() - 1))
        assert len(digits) == 18 and digits.endswith("5")


def test_g17_keeps_the_shape():
    x = np.array([[1.5, -2.0], [np.nan, 0.0]])
    fields = format_g17(x)
    assert fields.shape == (2, 2, G17_FIELD_BYTES)
    texts = [bytes(f[f != 0]) for f in fields.reshape(-1, G17_FIELD_BYTES)]
    assert texts == [b"1.5", b"-2", b"nan", b"0"]
