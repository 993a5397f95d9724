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

A run builds one :class:`FfstPhaseModel`, which holds no grid, from its
(reference, magnification) pair; the scan, the synthesis and the
baselines sample it on grids of their own.  Synthesis reads a model's
``t_final``, ``prof``, ``states_at(lam)`` and ``delta_omega_at(lam)``
(g = 1 is the time unit); the sta model has them at alpha = 1, with the
real eigenstate (u, v) as its states.
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
    """Cosine-bump magnification for running [0, t_ref] in [0, t_final].

        alpha(t)  = 1 - k (1 - cos(2 pi t / T_F)),   k = (T_F - T) / T_F
        Lambda(t) = t - k (t - (T_F / 2 pi) sin(2 pi t / T_F))

    Lambda is the exact integral of alpha, so it runs from 0 to T over
    [0, T_F].  T_F > T decelerates (alpha dips below 1), T_F < T
    accelerates (alpha rises above 1), and T_F = T gives alpha = 1 and
    Lambda = t bit for bit.
    """

    t_ref: float
    t_final: float

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


class FfstPhaseModel:
    """Phase residual of a (reference, magnification) pair.

    Holds cubic Hermite interpolants of the reference amplitudes and of
    its detuning (:meth:`ReferenceTrajectory.interpolators` and
    :meth:`DriveSchedule.detuning_interpolant`), so the residual's
    parameters and the rescaled drive can be evaluated at arbitrary
    times.  The reference's coupling must be exactly 1, the time unit.
    """

    def __init__(self, ref: ReferenceTrajectory, prof: MagnificationProfile):
        if not np.all(ref.drive.coupling == 1.0):
            raise ValueError("the reference drive's coupling must be exactly 1")
        self.prof = prof
        self.t_final = prof.t_final
        self._p1, self._p2 = ref.interpolators()
        self.delta_omega_at = ref.drive.detuning_interpolant()

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
        prod = np.conj(p1) * p2
        a = prod.real
        b = prod.imag
        return alpha * b, np.hypot(a, b), np.arctan2(b, a)


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
    path, model: FfstPhaseModel, grid: TimeGrid, coupling_ff=None, label: str = ""
) -> DriveSchedule:
    """Detuning waveform on ``grid`` that drives the scaled state along
    ``path``, the phase lift sampled on the interleaved node/midpoint grid
    ``grid.half_times`` (a virtual trajectory's ``f2_lift``).

    ``coupling_ff`` is None (keep the unit reference coupling, the
    fixed-coupling control) or samples on the same grid.  A grid that
    does not span [0, ``model.t_final``], or samples of another length,
    raise ``ValueError`` (``TimeGrid.check_span`` and ``half_samples``).
    """
    prof = model.prof
    grid.check_span(model.t_final)
    th = grid.half_times
    h2 = th[1] - th[0]

    alpha = prof.alpha_at(th)
    lam = prof.lambda_at(th)
    p1, p2 = model.states_at(lam)
    dw_ref = model.delta_omega_at(lam)

    if coupling_ff is None:
        g_ff = np.ones_like(th)
    else:
        g_ff = grid.half_samples("coupling_ff", coupling_ff)

    f2 = grid.half_samples("path", path)
    scale = 1.0 + np.abs(alpha) + np.abs(g_ff)

    # one bracket term after the other: each one's temporaries die first
    eif = np.exp(1j * f2)
    dw, sing1, brackets = _bracket_term(p2, p1, alpha, g_ff, eif, scale)
    t2, sing2, br2 = _bracket_term(p1, p2, alpha, g_ff, np.conj(eif, out=eif), scale)
    dw -= t2
    dw += alpha * dw_ref
    dw += np.gradient(f2, h2, edge_order=2)

    bad = sing1 | sing2 | ~np.isfinite(dw)
    np.maximum(brackets, br2, out=brackets)
    dw = _fill_singular(th, dw, bad, brackets)
    return DriveSchedule(grid, dw, g_ff, label=label)


def _bracket_term(num, den, alpha, g_ff, e, scale):
    """Re[(num / den)(alpha - g_ff e)] of the synthesized detuning (g = 1),
    the samples where ``den`` is singular, and there the bracket's
    magnitude relative to ``scale`` (zero elsewhere)."""
    br = alpha - g_ff * e
    with np.errstate(divide="ignore", invalid="ignore"):
        # a copy: the real part's view would keep the complex product alive
        term = (num / den * br).real.copy()
    mag = np.abs(br)
    # a bracket that vanishes identically cancels its amplitude pole
    term[mag == 0.0] = 0.0
    sing = (np.abs(den) < SINGULAR_POPULATION) & (mag != 0.0)
    return term, sing, np.where(sing, mag / scale, 0.0)


def naive_control(model: FfstPhaseModel, grid: TimeGrid) -> DriveSchedule:
    """Reference waveform replayed on the compressed/stretched clock.

    No scaling correction at all: dw(Lambda(t)) on ``grid`` with the unit
    reference coupling.  Serves as the uncorrected baseline.
    """
    grid.check_span(model.t_final)
    th = grid.half_times
    dw = model.delta_omega_at(model.prof.lambda_at(th))
    return DriveSchedule(grid, dw, np.ones_like(th), label="naive")


def alpha_scaled_control(model: FfstPhaseModel, grid: TimeGrid) -> DriveSchedule:
    """Magnification-scaled detuning with the coupling left untouched.

    Scaling both the detuning and the coupling by alpha would reproduce
    the reference exactly; hardware with a fixed coupling can only scale
    the detuning, which is the baseline this constructor provides.
    """
    prof = model.prof
    grid.check_span(model.t_final)
    th = grid.half_times
    dw = prof.alpha_at(th) * model.delta_omega_at(prof.lambda_at(th))
    return DriveSchedule(grid, dw, np.ones_like(th), label="alpha-scaled")
