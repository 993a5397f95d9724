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
magnification) pair; the residual map, the synthesis and the baselines
all take that model, and every waveform they return is a
:class:`~ffsynth.dynamics.DriveSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import DriveSchedule, ReferenceTrajectory, TimeGrid
from .zerocurves import (
    Gap,
    PhaseResidualModel,
    SpeedControlledTrajectory,
    detect_gaps,
    link_branches,
)

#: Clamp floor applied to |beta| before taking logarithms in exports.
LN_BETA_FLOOR = 1e-14

#: Population threshold below which a reference amplitude counts as
#: singular during synthesis and the sample is filled by extrapolation.
SINGULAR_POPULATION = 1e-6

#: Largest admissible bracket magnitude at a singular sample.  A larger
#: bracket means the divergence is not removable.
BRACKET_TOLERANCE = 1e-2


class SynthesisError(RuntimeError):
    """Raised when a control cannot be synthesized along the given path."""


@dataclass
class MagnificationProfile:
    """Sampled magnification alpha(t) and its running integral.

    ``lam`` is the rescaled time Lambda(t), accumulated from the alpha
    samples by the trapezoidal rule; the construction must return to the
    reference duration at the final node.
    """

    grid: TimeGrid
    alpha: np.ndarray
    lam: np.ndarray
    t_ref: float

    _alpha_interp: object = field(default=None, repr=False, compare=False)
    _lam_interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.grid.n_steps
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.alpha.shape != (n + 1,) or self.lam.shape != (n + 1,):
            raise ValueError("alpha and lam must be sampled on the grid nodes")
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.lam))):
            raise ValueError("alpha and lam must be finite")
        if abs(self.alpha[0] - 1.0) > 1e-9 or abs(self.alpha[-1] - 1.0) > 1e-9:
            raise ValueError("alpha must equal 1 at both ends of the run")
        if self.lam[0] != 0.0:
            raise ValueError("lam must start at 0")
        if abs(self.lam[-1] - self.t_ref) > 1e-6:
            raise ValueError(
                f"lam({self.grid.t_end}) = {self.lam[-1]} does not reach the "
                f"reference duration {self.t_ref} within 1e-6"
            )

    @property
    def t_final(self) -> float:
        return self.grid.t_end

    def _interps(self):
        if self._alpha_interp is None:
            from scipy.interpolate import CubicSpline

            t = self.grid.times
            self._alpha_interp = CubicSpline(t, self.alpha)
            self._lam_interp = CubicSpline(t, self.lam)
        return self._alpha_interp, self._lam_interp

    def alpha_at(self, t):
        ai, _ = self._interps()
        return ai(t)

    def lambda_at(self, t):
        _, li = self._interps()
        return li(t)


def build_magnification(t_ref: float, grid: TimeGrid) -> MagnificationProfile:
    """Cosine-bump magnification for running [0, t_ref] in grid.t_end.

        alpha(t) = 1 - ((T_F - T) / T_F) * (1 - cos(2 pi t / T_F))

    integrates to exactly T over [0, T_F].  T_F > T decelerates
    (alpha dips below 1), T_F < T accelerates (alpha rises above 1).
    """
    if abs(grid.t0) > 1e-12 * grid.span:
        raise ValueError("magnification grid must start at t = 0")
    t_f = grid.t_end
    t = grid.times
    alpha = 1.0 - ((t_f - t_ref) / t_f) * (1.0 - np.cos(2.0 * np.pi * t / t_f))
    if t_f == t_ref:
        # identity profile: keep lam bitwise equal to t so downstream
        # interpolation lands exactly on the reference knots
        lam = t.copy()
    else:
        h = grid.h
        lam = np.concatenate(([0.0], np.cumsum(0.5 * (alpha[1:] + alpha[:-1]) * h)))
    return MagnificationProfile(grid=grid, alpha=alpha, lam=lam, t_ref=t_ref)


class FfstPhaseModel(PhaseResidualModel):
    """Phase residual of a (reference, magnification) pair.

    Holds spline interpolants of the reference amplitudes (shared with the
    reference's own) and of its drive, so the residual, its closed-form
    roots and the rescaled drive can be evaluated at arbitrary times.
    """

    def __init__(self, ref: ReferenceTrajectory, prof: MagnificationProfile):
        from scipy.interpolate import CubicSpline

        self.ref = ref
        self.prof = prof
        self.t_final = prof.t_final
        t = ref.grid.times
        self._p1, self._p2 = ref.interpolators()
        self._dw = CubicSpline(t, ref.drive.delta_omega)
        self._g = CubicSpline(t, ref.drive.coupling)

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


@dataclass(frozen=True)
class BetaMap:
    """Dense sampling of the residual over the (t, f2) plane."""

    times: np.ndarray
    phases: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.times), len(self.phases)):
            raise ValueError("values must be shaped (n_times, n_phases)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("beta map contains non-finite values")


def build_beta_map(
    model: PhaseResidualModel, n_phase: int = 512, n_time: int = 500
) -> BetaMap:
    """Sample a model's residual on a uniform grid; phases cover [-pi, pi).

    The phase axis excludes the duplicate +pi column: the residual is
    2*pi periodic, so that column would repeat the first one.
    """
    if n_phase < 256:
        raise ValueError(f"n_phase must be at least 256, got {n_phase}")
    times = np.linspace(0.0, model.t_final, n_time + 1)
    phases = -np.pi + 2.0 * np.pi * np.arange(n_phase) / n_phase
    c, d, phi0 = model.sine_params(times)
    values = c[:, None] - d[:, None] * np.sin(phases[None, :] + phi0[:, None])
    return BetaMap(times=times, phases=phases, values=values)


def extract_scts(
    ref: ReferenceTrajectory,
    prof: MagnificationProfile,
    n_scan: int = 16_000,
    threshold: float = 0.2,
) -> list[SpeedControlledTrajectory]:
    """Link the residual's zero curves into speed-controlled trajectories.

    Builds its own model; a run that already has one calls
    :func:`~ffsynth.zerocurves.link_branches` with it instead.  The name
    stays because ``bench/layers.py`` probes it.
    """
    return link_branches(FfstPhaseModel(ref, prof), n_scan=n_scan, threshold=threshold)


def detect_phase_gaps(
    ref: ReferenceTrajectory,
    prof: MagnificationProfile,
    branches,
    n_scan: int = 16_000,
) -> list[Gap]:
    """Time intervals with no speed-controlled trajectory to follow.

    Builds its own model; a run that already has one calls
    :func:`~ffsynth.zerocurves.detect_gaps` with it instead.  The name
    stays because ``bench/layers.py`` probes it.
    """
    return detect_gaps(FfstPhaseModel(ref, prof), branches, n_scan=n_scan)


def _path_lift(path, t: np.ndarray) -> np.ndarray:
    """Evaluate a phase path on the ascending times ``t``: anything with
    ``values_at`` (trajectory objects) or a callable."""
    lift = path.values_at if hasattr(path, "values_at") else path
    return np.asarray(lift(t), dtype=float)


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
    """Detuning waveform that drives the scaled state along ``path`` (an
    object with ``values_at`` or a callable of ascending times).

    ``coupling_ff`` may be None (keep the rescaled reference coupling,
    the fixed-coupling control), a callable of time, or samples on the
    interleaved node/midpoint grid.
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
    elif callable(coupling_ff):
        g_ff = np.asarray(coupling_ff(th), dtype=float)
    else:
        g_ff = np.asarray(coupling_ff, dtype=float)
        if g_ff.shape != th.shape:
            raise ValueError(
                f"coupling_ff must have {len(th)} node/midpoint samples"
            )

    f2 = _path_lift(path, th)
    df2 = np.gradient(f2, h2, edge_order=2)

    eif = np.exp(1j * f2)
    br1 = alpha * g_ref - g_ff * eif
    br2 = alpha * g_ref - g_ff * np.conj(eif)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (p2 / p1 * br1).real
        t2 = (p1 / p2 * br2).real
    # a bracket that vanishes identically cancels its amplitude pole
    t1[np.abs(br1) == 0.0] = 0.0
    t2[np.abs(br2) == 0.0] = 0.0
    dw = t1 - t2 + alpha * dw_ref + df2

    scale = 1.0 + np.abs(alpha * g_ref) + np.abs(g_ff)
    sing1 = (np.abs(p1) < SINGULAR_POPULATION) & (np.abs(br1) != 0.0)
    sing2 = (np.abs(p2) < SINGULAR_POPULATION) & (np.abs(br2) != 0.0)
    bad = sing1 | sing2 | ~np.isfinite(dw)
    brackets = np.zeros(len(th))
    brackets[sing1] = np.abs(br1[sing1]) / scale[sing1]
    brackets[sing2] = np.maximum(brackets[sing2], np.abs(br2[sing2]) / scale[sing2])
    dw = _fill_singular(th, dw, bad, brackets)
    return DriveSchedule.from_half_samples(grid, dw, g_ff, label=label)


def naive_control(model: FfstPhaseModel) -> DriveSchedule:
    """Reference waveform replayed on the compressed/stretched clock.

    No scaling correction at all: dw(Lambda(t)) with the reference
    coupling.  Serves as the uncorrected baseline.
    """
    prof = model.prof
    lam = prof.lambda_at(prof.grid.half_times)
    return DriveSchedule.from_half_samples(
        prof.grid, model._dw(lam), model._g(lam), label="naive"
    )


def alpha_scaled_control(model: FfstPhaseModel) -> DriveSchedule:
    """Magnification-scaled detuning with the coupling left untouched.

    Scaling both the detuning and the coupling by alpha would reproduce
    the reference exactly; hardware with a fixed coupling can only scale
    the detuning, which is the baseline this constructor provides.
    """
    prof = model.prof
    th = prof.grid.half_times
    lam = prof.lambda_at(th)
    return DriveSchedule.from_half_samples(
        prof.grid,
        prof.alpha_at(th) * model._dw(lam),
        model._g(lam),
        label="alpha-scaled",
    )
