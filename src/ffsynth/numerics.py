"""Interpolation, a simplex search and exact number text on numpy alone.

The package needs three numerical routines: a cubic Hermite interpolant
of given values and slopes, a Nelder-Mead search and the text of
``'%.17g' % v`` for every float in an array.  They are written here in
numpy so that a run imports nothing heavier.

The interpolant is a :class:`PiecewiseCubic` value evaluated in SciPy's
``PPoly`` term order.  The other routines follow the operation order of
the established implementation each mirrors, so their results are
reproducible bit for bit:

- :func:`nelder_mead` is the simplex method of Nelder and Mead, Comput.
  J. 7, 308 (1965), with the standard coefficients (1, 2, 1/2, 1/2);
- :func:`format_g17` writes the bytes of CPython's correctly rounded
  ``'%.17g' % v``, from an exact double-double product with a
  correctly rounded power of ten (Dekker, Numer. Math. 18, 224 (1971)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


@dataclass(frozen=True, eq=False)
class PiecewiseCubic:
    """A cubic on each interval ``[x[i], x[i+1]]``, extrapolated from the
    end pieces.  With ``s = t - x[i]`` the value is
    ``c[0, i] s^3 + c[1, i] s^2 + c[2, i] s + c[3, i]``; ``c`` may be
    complex."""

    x: np.ndarray
    c: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        i = np.searchsorted(self.x, flat, side="right") - 1
        np.clip(i, 0, len(self.x) - 2, out=i)
        s = flat - self.x[i]
        # PPoly's order: lowest power first, powers accumulated as z *= s;
        # one coefficient row is gathered at a time, so beside the sum and
        # the powers only one gathered row and one product are alive
        c0, c1, c2, c3 = self.c
        out = 0.0 + c3[i]
        out += c2[i] * s
        z = s * s
        out += c1[i] * z
        z *= s
        out += c0[i] * z
        return out.reshape(t.shape)


def _knots(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 4:
        raise ValueError("knots must be a 1-D array of at least 4 values")
    if not np.all(np.isfinite(x)) or np.any(np.diff(x) <= 0):
        raise ValueError("knots must be finite and strictly increasing")
    return x


def _values(x: np.ndarray, y) -> np.ndarray:
    y = np.asarray(y)
    y = y.astype(complex if np.iscomplexobj(y) else float, copy=False)
    if y.shape != x.shape:
        raise ValueError(f"values of shape {y.shape} do not match {len(x)} knots")
    if not np.all(np.isfinite(y)):
        raise ValueError("values must be finite")
    return y


def hermite(x, y, dydx) -> PiecewiseCubic:
    """The cubic Hermite interpolant of values ``y`` and slopes ``dydx`` at
    the knots ``x``; ``y`` and ``dydx`` may be complex.

    Each piece depends only on its two end knots, so nothing is solved.
    """
    x = _knots(x)
    y = _values(x, y)
    dydx = _values(x, dydx)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))
    return PiecewiseCubic(x=x, c=c)


@dataclass(frozen=True)
class SimplexResult:
    """Best vertex, its value, the evaluations spent, and whether the
    tolerance rule stopped the search (rather than the evaluation cap)."""

    x: np.ndarray
    fun: float
    evaluations: int
    converged: bool


class _EvaluationCap(Exception):
    pass


def nelder_mead(func, simplex, xatol: float, fatol: float, maxfev: int) -> SimplexResult:
    """Minimize ``func`` from the ``(N + 1, N)`` initial ``simplex``.

    Stops when every vertex lies within ``xatol`` of the best in every
    coordinate and every value within ``fatol`` of the best, or when the
    next evaluation would exceed ``maxfev``.  The steps, their order and
    the evaluation count are those of SciPy's non-adaptive
    ``minimize(method="Nelder-Mead")`` with an ``initial_simplex``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1] + 1:
        raise ValueError("the initial simplex must be shaped (N + 1, N)")
    n = sim.shape[1]
    fsim = np.full((n + 1,), np.inf, dtype=float)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _EvaluationCap
        calls += 1
        return func(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _EvaluationCap:
        pass
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)

    converged = False
    while calls < maxfev:
        try:
            if (
                np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
            ):
                converged = True
                break

            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            doshrink = False

            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            elif fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = True
                else:
                    # inside contraction
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = True
                if doshrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _EvaluationCap:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return SimplexResult(
        x=sim[0], fun=float(np.min(fsim)), evaluations=calls, converged=converged
    )


# Exact '%.17g'.  With k = floor(log10|x|), the text is the 17-digit
# integer D = round(|x| 10^(16 - k)) laid out by k.  Each value becomes a
# field of six 8-byte words,
#   [- 0 . 0 0 0 d0 .] [d1 . d2 . d3 . d4 .] ... [d13 . ... d16 .] [e ± X X X]
# and a mask per (layout, significant digits) clears the bytes the text
# does not use, so the text is the field with its NUL bytes deleted.

#: Bytes per field of :func:`format_g17`.
G17_FIELD_BYTES = 48

_WORD = np.dtype("<u8")

# decimal exponents of the finite nonzero doubles, 5e-324 to 1.8e308
_K_MIN, _K_MAX = -324, 308

#: Veltkamp's splitter for doubles, 2^27 + 1.
_SPLIT = 134217729.0

_LOG10_2 = 0.30102999566398120

#: A value whose |x| 10^(16 - k) has a fraction this close to 1/2 is
#: written by ``%`` itself; the fast path errs by about 1e-14 on it.
_TIE_MARGIN = 1e-6


def _veltkamp(a):
    # a = hi + lo with both halves of at most 26 significant bits
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _g17_powers():
    """Per decimal exponent k: 10^(16 - k) = (h + l) 2^f with h in
    [0.5, 1); the smallest double at or above 10^k; and the exponent
    suffix (``e-05``), all zero bytes where ``%g`` uses fixed notation.

    CPython's int true division rounds correctly, so h, l and the bounds
    are correctly rounded from integers alone.
    """
    tens = [10**i for i in range(17 - _K_MIN)]

    def ratio(n):
        return (tens[n], 1) if n >= 0 else (1, tens[-n])

    h, lo, f, decades = [], [], [], []
    suffix = np.zeros((_K_MAX - _K_MIN + 1, 8), dtype=np.uint8)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        p, q = ratio(16 - k)
        b = p.bit_length() - q.bit_length()  # p / q in [2^(b-1), 2^(b+1))
        p, q = (p, q << b) if b >= 0 else (p << -b, q)
        if p >= q:
            q <<= 1
            b += 1
        hi = p / q
        h.append(hi)
        lo.append(((p << 53) - int(hi * 2**53) * q) / (q << 53))
        f.append(b)
        p, q = ratio(k)
        c = p / q
        a, b = c.as_integer_ratio()
        decades.append(c if a * q >= p * b else math.nextafter(c, math.inf))
        if not -4 <= k < 17:
            text = b"e%+03d" % k
            suffix[i, : len(text)] = list(text)
    decades.append(math.inf)
    return (
        np.array(h),
        np.array(lo),
        np.array(f, dtype=np.int32),
        np.array(decades),
        suffix.view(_WORD).ravel(),
    )


def _g17_masks():
    """Byte masks per (layout c, significant digits s): c = 0 is
    ``d.ddde±XX``, c = 1..21 fixed notation with k = c - 5."""
    c = np.arange(22)[:, None, None]
    s = np.arange(1, 18)[None, :, None]
    k = c - 5
    j = np.arange(17)
    # the point follows digit `dot`; below k = 0 it is in the prefix
    dot = np.where(c == 0, 0, np.where(k >= 0, k, -1))
    keep = np.ones((22, 17, G17_FIELD_BYTES), dtype=bool)
    keep[..., 1:6] = (c > 0) & (k < 0) & (np.arange(5) < 1 - k)  # "0.000"
    keep[..., 6:40:2] = j <= np.maximum(dot, s - 1)
    keep[..., 7:40:2] = (j == dot) & (dot < s - 1)
    return np.where(keep, 0xFF, 0).astype(np.uint8).reshape(22 * 17, -1).view(_WORD)


def _g17_quads():
    """Every four digits as ``[d . d . d . d .]``, and their trailing
    zeros, with 4 for 0000."""
    digits = np.indices((10,) * 4).reshape(4, -1)  # column q: the digits of q
    quads = np.full((10_000, 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = ord("0") + digits.T
    d0, d1, d2, d3 = digits == 0
    zeros = d3 * (1 + d2 * (1 + d1 * (1 + d0.astype(np.intp))))
    return quads.view(_WORD).ravel(), zeros


@functools.cache
def _g17_tables() -> SimpleNamespace:
    """Every table of :func:`format_g17`, built at its first call so that
    importing the package does not pay for them."""
    h, lo, f, decade, suffix = _g17_powers()
    h_hi, h_lo = _veltkamp(h)
    quads, quad_zeros = _g17_quads()
    return SimpleNamespace(
        h=h, h_hi=h_hi, h_lo=h_lo, lo=lo, f=f, decade=decade, suffix=suffix,
        masks=_g17_masks(), quads=quads, quad_zeros=quad_zeros,
    )


# word 0 before the sign and the leading digit
_HEAD = np.frombuffer(b"\x000.000\x00.", dtype=_WORD)[0]


def format_g17(x) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for every float64 ``v`` of ``x``, as
    fields of :data:`G17_FIELD_BYTES` bytes, shaped ``x.shape + (48,)``:
    deleting a field's NUL bytes leaves exactly the text of its value.
    The text is at most 24 bytes, so a field's last byte is always NUL.

    The fast path rounds the exact double-double |x| 10^(16 - k) to the
    17-digit integer D.  NaN, infinities and values whose D lies within
    1e-6 of a rounding tie are formatted by ``%`` one at a time.
    """
    tab = _g17_tables()
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    ax = np.abs(flat)
    finite = np.isfinite(ax)
    zero = ax == 0.0
    ax[zero | ~finite] = 1.0  # patched below
    m, e = np.frexp(ax)
    # k: |x| lies in [2^(e-1), 2^e), so floor((e - 1) log10 2) or one more
    k = np.floor((e - 1) * _LOG10_2).astype(np.intp) - _K_MIN
    k += ax >= tab.decade.take(k + 1)
    # |x| 10^(16 - k) = (p + r) 2^g: the product m h exactly (Dekker),
    # plus m l
    p = m * tab.h.take(k)
    mh, ml = _veltkamp(m)
    hh, hl = tab.h_hi.take(k), tab.h_lo.take(k)
    r = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    r += m * tab.lo.take(k)
    g = e + tab.f.take(k)
    # p 2^g is an integer above 2^53; r 2^g holds the fraction
    r = np.ldexp(r, g)
    whole = np.floor(r)
    frac = r - whole
    whole += frac >= 0.5
    d = np.ldexp(p, g).astype(np.int64) + whole.astype(np.int64)
    # 17 digits can round up into the next decade
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    d[zero] = 0
    slow = ~finite | (np.abs(frac - 0.5) < _TIE_MARGIN)

    top = d // 10**8
    head = top // 10**8
    quads = []
    for q in (top - head * 10**8, d - top * 10**8):
        hi = q // 10**4
        quads += [hi, q - hi * 10**4]
    zeros = tab.quad_zeros.take(quads[3])
    for i, q in enumerate(quads[2::-1], start=1):
        zeros += np.where(zeros == 4 * i, tab.quad_zeros.take(q), 0)

    out = np.empty((flat.size, 6), dtype=_WORD)
    out[:, 0] = (head.astype(_WORD) + ord("0")) << 48
    out[:, 0] |= _HEAD
    out[:, 0] |= np.signbit(flat).astype(_WORD) * ord("-")
    for i, q in enumerate(quads, start=1):
        out[:, i] = tab.quads.take(q)
    out[:, 5] = tab.suffix.take(k)
    k += _K_MIN
    layout = np.where((k >= -4) & (k < 17), k + 5, 0)
    out &= tab.masks.take(17 * layout + 16 - zeros, axis=0)

    fields = out.view(np.uint8)
    for i in np.flatnonzero(slow):
        text = b"%.17g" % flat[i]
        fields[i] = 0
        fields[i, : len(text)] = list(text)
    return fields.reshape(x.shape + (G17_FIELD_BYTES,))
