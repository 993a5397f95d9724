"""Fast-forward scaling of a solved reference drive.

Given a reference trajectory phi(tau) and a magnification profile
alpha(t) with rescaled time Lambda(t) = integral of alpha, the scaled
dynamics phi_m(Lambda(t)) e^{i f_m(t)} solves the Schrodinger equation
exactly whenever the phase path f_2(t) (with f_1 = 0) keeps the residual

    beta(t, f2) = alpha * b - (a sin f2 + b cos f2),
    a + i b = conj(phi1) * phi2 evaluated at Lambda(t),

equal to zero.  The synthesized detuning that realizes a chosen path is

    dw_ff = Re[(phi2/phi1)(alpha g - g_ff e^{i f2})]
          - Re[(phi1/phi2)(alpha g - g_ff e^{-i f2})]
          + alpha * dw(Lambda) + df2/dt,

which reduces to the fixed-coupling control for g_ff = g and to the
trivially rescaled drive (alpha * dw(Lambda), with zero path) for
g_ff = alpha * g.

A run builds one :class:`FfstPhaseModel` from its (reference,
magnification) pair; the residual scan, the synthesis and the baselines
all take that model, and every waveform they return is a
:class:`~ffsynth.dynamics.DriveSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DriveSchedule, ReferenceTrajectory, TimeGrid
from .zerocurves import (
    SCAN_POINTS,
    Gap,
    SpeedControlledTrajectory,
    detect_gaps,
    link_branches,
)

#: Population threshold below which a reference amplitude counts as
#: singular during synthesis and the sample is filled by extrapolation.
SINGULAR_POPULATION = 1e-6

#: Largest admissible bracket magnitude at a singular sample.  A larger
#: bracket means the divergence is not removable.
BRACKET_TOLERANCE = 1e-2


class SynthesisError(RuntimeError):
    """Raised when a control cannot be synthesized along the given path."""


@dataclass(frozen=True)
class MagnificationProfile:
    """Cosine-bump magnification for running [0, t_ref] in grid.t_end.

        alpha(t)  = 1 - k (1 - cos(2 pi t / T_F)),   k = (T_F - T) / T_F
        Lambda(t) = t - k (t - (T_F / 2 pi) sin(2 pi t / T_F))

    Lambda is the exact integral of alpha, so it runs from 0 to T over
    [0, T_F].  T_F > T decelerates (alpha dips below 1), T_F < T
    accelerates (alpha rises above 1), and T_F = T gives alpha = 1 and
    Lambda = t bit for bit.
    """

    grid: TimeGrid
    t_ref: float

    @property
    def t_final(self) -> float:
        return self.grid.t_end

    @property
    def _k(self) -> float:
        return (self.t_final - self.t_ref) / self.t_final

    def alpha_at(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 - self._k * (1.0 - np.cos(2.0 * np.pi * t / self.t_final))

    def lambda_at(self, t):
        t = np.asarray(t, dtype=float)
        t_f = self.t_final
        return t - self._k * (t - t_f / (2.0 * np.pi) * np.sin(2.0 * np.pi * t / t_f))


def build_magnification(t_ref: float, grid: TimeGrid) -> MagnificationProfile:
    """The cosine-bump profile taking [0, t_ref] to [0, grid.t_end]."""
    return MagnificationProfile(grid=grid, t_ref=t_ref)


class FfstPhaseModel:
    """Phase residual of a (reference, magnification) pair.

    Holds cubic Hermite interpolants of the reference amplitudes and of
    its drive (:meth:`ReferenceTrajectory.interpolators` and
    :meth:`DriveSchedule.interpolators`), so the residual's parameters and
    the rescaled drive can be evaluated at arbitrary times.
    """

    def __init__(self, ref: ReferenceTrajectory, prof: MagnificationProfile):
        self.ref = ref
        self.prof = prof
        self.t_final = prof.t_final
        self._p1, self._p2 = ref.interpolators()
        self._dw, self._g = ref.drive.interpolators()

    def states_at(self, lam):
        """Renormalized reference amplitudes at rescaled times."""
        p1 = self._p1(lam)
        p2 = self._p2(lam)
        nrm = np.sqrt(np.abs(p1) ** 2 + np.abs(p2) ** 2)
        return p1 / nrm, p2 / nrm

    def sine_params(self, t):
        """(C, D, phi0) with residual = C - D sin(f2 + phi0)."""
        t = np.asarray(t, dtype=float)
        alpha = self.prof.alpha_at(t)
        lam = self.prof.lambda_at(t)
        p1, p2 = self.states_at(lam)
        g = self._g(lam)
        prod = np.conj(p1) * p2
        a = prod.real
        b = prod.imag
        return alpha * g * b, g * np.hypot(a, b), np.arctan2(b, a)


def extract_scts(
    ref: ReferenceTrajectory,
    prof: MagnificationProfile,
    n_scan: int = SCAN_POINTS,
) -> list[SpeedControlledTrajectory]:
    """Link the residual's zero curves into speed-controlled trajectories.

    Builds its own model; a run that already has one calls
    :func:`~ffsynth.zerocurves.link_branches` with it instead.  The name
    stays because ``bench/layers.py`` probes it.
    """
    return link_branches(FfstPhaseModel(ref, prof), n_scan=n_scan)


def detect_phase_gaps(
    ref: ReferenceTrajectory,
    prof: MagnificationProfile,
    branches,
    n_scan: int = SCAN_POINTS,
) -> list[Gap]:
    """Time intervals with no speed-controlled trajectory to follow.

    Builds its own model; a run that already has one calls
    :func:`~ffsynth.zerocurves.detect_gaps` with it instead.  The name
    stays because ``bench/layers.py`` probes it.
    """
    return detect_gaps(FfstPhaseModel(ref, prof), branches, n_scan=n_scan)


def _half_grid_samples(name: str, values, th: np.ndarray) -> np.ndarray:
    """``values`` as floats, checked to hold one sample per time of ``th``
    (the interleaved node/midpoint grid)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != th.shape:
        raise ValueError(
            f"{name} must have {len(th)} node/midpoint samples, got {arr.shape}"
        )
    return arr


def _fill_singular(
    t_half: np.ndarray, dw: np.ndarray, bad: np.ndarray, brackets: np.ndarray
) -> np.ndarray:
    """Replace singular samples by extrapolating 4 regular neighbours.

    A singular sample is removable only when its bracket is small; a
    bracket above tolerance means the path genuinely diverges there.
    """
    bad_idx = np.flatnonzero(bad)
    if len(bad_idx) == 0:
        return dw
    worst = np.argmax(brackets[bad_idx])
    if brackets[bad_idx][worst] > BRACKET_TOLERANCE:
        t_bad = t_half[bad_idx[worst]]
        raise SynthesisError(
            f"path is not scalable at t = {t_bad:.9g}: reference amplitude "
            f"vanishes while the bracket magnitude "
            f"{brackets[bad_idx][worst]:.3g} exceeds {BRACKET_TOLERANCE}"
        )
    good_idx = np.flatnonzero(~bad)
    if len(good_idx) < 4:
        raise SynthesisError("not enough regular samples to fill singular points")
    out = dw.copy()
    for k in bad_idx:
        near = good_idx[np.argsort(np.abs(good_idx - k))[:4]]
        coeffs = np.polyfit(t_half[near], out[near], 3)
        out[k] = np.polyval(coeffs, t_half[k])
    return out


def synthesize_control(
    path, model: FfstPhaseModel, coupling_ff=None, label: str = ""
) -> DriveSchedule:
    """Detuning waveform that drives the scaled state along ``path``, the
    phase lift sampled on the interleaved node/midpoint grid
    ``grid.half_times`` (a virtual trajectory's ``f2_lift``).

    ``coupling_ff`` is None (keep the rescaled reference coupling, the
    fixed-coupling control) or samples on the same grid.
    """
    prof = model.prof
    grid = prof.grid
    th = grid.half_times
    h2 = th[1] - th[0]

    alpha = prof.alpha_at(th)
    lam = prof.lambda_at(th)
    p1, p2 = model.states_at(lam)
    g_ref = model._g(lam)
    dw_ref = model._dw(lam)

    if coupling_ff is None:
        g_ff = np.asarray(g_ref, dtype=float)
    else:
        g_ff = _half_grid_samples("coupling_ff", coupling_ff, th)

    f2 = _half_grid_samples("path", path, th)
    ag = alpha * g_ref
    scale = 1.0 + np.abs(ag) + np.abs(g_ff)

    # one bracket term after the other: each one's temporaries die first
    eif = np.exp(1j * f2)
    dw, sing1, brackets = _bracket_term(p2, p1, ag, g_ff, eif, scale)
    t2, sing2, brackets2 = _bracket_term(p1, p2, ag, g_ff, np.conj(eif, out=eif), scale)
    dw -= t2
    dw += alpha * dw_ref
    dw += np.gradient(f2, h2, edge_order=2)

    bad = sing1 | sing2 | ~np.isfinite(dw)
    np.maximum(brackets, brackets2, out=brackets)
    dw = _fill_singular(th, dw, bad, brackets)
    return DriveSchedule(grid, dw, g_ff, label=label)


def _bracket_term(num, den, ag, g_ff, e, scale):
    """Re[(num / den)(alpha g - g_ff e)] of the synthesized detuning, the
    samples where ``den`` is singular, and there the bracket's magnitude
    relative to ``scale`` (zero elsewhere)."""
    br = ag - g_ff * e
    with np.errstate(divide="ignore", invalid="ignore"):
        # a copy: the real part's view would keep the complex product alive
        term = (num / den * br).real.copy()
    mag = np.abs(br)
    # a bracket that vanishes identically cancels its amplitude pole
    term[mag == 0.0] = 0.0
    sing = (np.abs(den) < SINGULAR_POPULATION) & (mag != 0.0)
    return term, sing, np.where(sing, mag / scale, 0.0)


def naive_control(model: FfstPhaseModel) -> DriveSchedule:
    """Reference waveform replayed on the compressed/stretched clock.

    No scaling correction at all: dw(Lambda(t)) with the reference
    coupling.  Serves as the uncorrected baseline.
    """
    prof = model.prof
    lam = prof.lambda_at(prof.grid.half_times)
    return DriveSchedule(prof.grid, model._dw(lam), model._g(lam), label="naive")


def alpha_scaled_control(model: FfstPhaseModel) -> DriveSchedule:
    """Magnification-scaled detuning with the coupling left untouched.

    Scaling both the detuning and the coupling by alpha would reproduce
    the reference exactly; hardware with a fixed coupling can only scale
    the detuning, which is the baseline this constructor provides.
    """
    prof = model.prof
    th = prof.grid.half_times
    lam = prof.lambda_at(th)
    return DriveSchedule(
        prof.grid,
        prof.alpha_at(th) * model._dw(lam),
        model._g(lam),
        label="alpha-scaled",
    )
