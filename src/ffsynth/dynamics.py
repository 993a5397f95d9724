"""Two-level Schrodinger dynamics on a uniform time grid.

The system is described in the rotating frame of the second level, so the
Hamiltonian seen by the integrator is

    H(t) / hbar = [[dw(t), g(t)],
                   [g(t),  0   ]]

with ``dw`` the detuning between the two levels and ``g`` the coupling.
All times are expressed in units of 1/g for the canonical g = 1 drive;
nothing in this module assumes a particular waveform.

The integrator is a fixed-step classical Runge-Kutta scheme.  Each step
consumes the drive at the two bounding nodes and at the interval midpoint,
so a :class:`DriveSchedule` carries (or interpolates) midpoint samples in
addition to the node samples.  It is the one waveform type of the package:
reference sweeps, synthesized controls and baselines are all drive
schedules, and the synthesis modules build theirs from interleaved
node/midpoint samples with :meth:`DriveSchedule.from_half_samples`.

Because the equation is linear, one RK4 step is a 2x2 transfer matrix
built from those samples.  :func:`integrate_schrodinger` builds the
matrices of a block of steps with numpy, takes their running products with
a Hillis-Steele prefix scan, applies them to the state carried in from the
previous block, and moves on.  The original one-step-at-a-time loop lives
on in the tests as the oracle the scan is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np


class IntegrationError(RuntimeError):
    """Raised when time evolution produces a non-finite amplitude."""


@dataclass(frozen=True)
class TwoLevelState:
    """Complex amplitude pair (phi1, phi2) of a two-level system."""

    phi1: complex
    phi2: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.phi1) ** 2 + abs(self.phi2) ** 2)

    def normalized(self) -> "TwoLevelState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return TwoLevelState(self.phi1 / n, self.phi2 / n)

    def populations(self) -> tuple[float, float]:
        return (abs(self.phi1) ** 2, abs(self.phi2) ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.phi1, self.phi2], dtype=complex)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_steps`` intervals covering [t0, t_end]."""

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be positive, got {self.n_steps}")
        if not self.t_end > self.t0:
            raise ValueError(f"t_end must exceed t0, got [{self.t0}, {self.t_end}]")

    @property
    def h(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, self.n_steps + 1)

    @cached_property
    def midtimes(self) -> np.ndarray:
        t = self.times
        return 0.5 * (t[:-1] + t[1:])

    @cached_property
    def half_times(self) -> np.ndarray:
        """Nodes and midpoints interleaved: 2*n_steps + 1 samples."""
        return np.linspace(self.t0, self.t_end, 2 * self.n_steps + 1)

    @property
    def span(self) -> float:
        return self.t_end - self.t0


def _cubic_midpoints(samples: np.ndarray) -> np.ndarray:
    """Midpoint values of uniformly sampled data via 4-point cubic stencils."""
    f = np.asarray(samples, dtype=float)
    n = len(f) - 1
    if n == 1:
        return np.array([0.5 * (f[0] + f[1])])
    if n == 2:
        # single cubic is not available; quadratic through the three nodes
        return np.array([ (3 * f[0] + 6 * f[1] - f[2]) / 8.0,
                          (-f[0] + 6 * f[1] + 3 * f[2]) / 8.0 ])
    mids = np.empty(n)
    mids[1:-1] = (-f[:-3] + 9 * f[1:-2] + 9 * f[2:-1] - f[3:]) / 16.0
    mids[0] = (5 * f[0] + 15 * f[1] - 5 * f[2] + f[3]) / 16.0
    mids[-1] = (f[-4] - 5 * f[-3] + 15 * f[-2] + 5 * f[-1]) / 16.0
    return mids


@dataclass
class DriveSchedule:
    """Sampled drive waveforms on a :class:`TimeGrid`.

    ``delta_omega`` and ``coupling`` hold node samples (``n_steps + 1``
    values each).  Midpoint samples may be supplied when the waveform is
    known in closed form; otherwise they are interpolated with a cubic
    stencil, which keeps the integrator at its nominal order.  ``label``
    names the schedule in verification reports and output file names.
    """

    grid: TimeGrid
    delta_omega: np.ndarray
    coupling: np.ndarray
    delta_omega_mid: np.ndarray | None = None
    coupling_mid: np.ndarray | None = None
    label: str = ""

    @classmethod
    def from_half_samples(
        cls, grid: TimeGrid, delta_omega, coupling, label: str = ""
    ) -> "DriveSchedule":
        """Schedule from samples on ``grid.half_times`` (2 n_steps + 1 each).

        Even samples are the nodes and odd samples the midpoints.
        """
        want = 2 * grid.n_steps + 1
        dw = np.asarray(delta_omega, dtype=float)
        g = np.asarray(coupling, dtype=float)
        for name, arr in (("delta_omega", dw), ("coupling", g)):
            if arr.shape != (want,):
                raise ValueError(
                    f"{name} must have {want} node/midpoint samples, got {arr.shape}"
                )
        return cls(
            grid=grid,
            delta_omega=dw[::2],
            coupling=g[::2],
            delta_omega_mid=dw[1::2],
            coupling_mid=g[1::2],
            label=label,
        )

    def __post_init__(self) -> None:
        n = self.grid.n_steps
        self.delta_omega = np.asarray(self.delta_omega, dtype=float)
        self.coupling = np.asarray(self.coupling, dtype=float)
        for name, arr, want in (
            ("delta_omega", self.delta_omega, n + 1),
            ("coupling", self.coupling, n + 1),
        ):
            if arr.shape != (want,):
                raise ValueError(f"{name} must have {want} samples, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                k = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ValueError(f"{name} has a non-finite sample at index {k}")
        for name in ("delta_omega_mid", "coupling_mid"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have {n} samples, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                k = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ValueError(f"{name} has a non-finite sample at index {k}")
            setattr(self, name, arr)

    def midpoint_samples(self) -> tuple[np.ndarray, np.ndarray]:
        dw_mid = self.delta_omega_mid
        if dw_mid is None:
            dw_mid = _cubic_midpoints(self.delta_omega)
        g_mid = self.coupling_mid
        if g_mid is None:
            g_mid = _cubic_midpoints(self.coupling)
        return dw_mid, g_mid


@dataclass
class ReferenceTrajectory:
    """Stored solution of a drive: amplitudes at every grid node."""

    grid: TimeGrid
    phi1: np.ndarray
    phi2: np.ndarray
    drive: DriveSchedule
    _interpolators: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def states(self) -> tuple[TwoLevelState, ...]:
        return tuple(
            TwoLevelState(complex(a), complex(b))
            for a, b in zip(self.phi1, self.phi2)
        )

    def state(self, k: int) -> TwoLevelState:
        return TwoLevelState(complex(self.phi1[k]), complex(self.phi2[k]))

    @property
    def final_state(self) -> TwoLevelState:
        return self.state(len(self.phi1) - 1)

    def norms(self) -> np.ndarray:
        return np.sqrt(np.abs(self.phi1) ** 2 + np.abs(self.phi2) ** 2)

    def populations(self) -> np.ndarray:
        """(n_steps + 1, 2) array of level populations."""
        return np.stack([np.abs(self.phi1) ** 2, np.abs(self.phi2) ** 2], axis=1)

    def interpolators(self):
        if self._interpolators is None:
            from scipy.interpolate import CubicSpline

            t = self.grid.times
            object.__setattr__(
                self,
                "_interpolators",
                (CubicSpline(t, self.phi1), CubicSpline(t, self.phi2)),
            )
        return self._interpolators


#: Steps per block of the prefix-scan propagator.  Memory is O(block); 8192
#: was the fastest of 2048 to 32768 on 2e4- and 1e5-step grids.
SCAN_BLOCK = 8192


def _rk4_step(p1, p2, h: float, d, g, s):
    """One classical RK4 step of (p1, p2).

    ``d``, ``g`` and ``s`` are the (start, midpoint, end) samples of the
    detuning, the coupling and the common diagonal shift.  Works elementwise
    on arrays, one step per element.
    """
    (d0, dm, d1), (g0, gm, g1), (s0, sm, s1) = d, g, s
    a1 = -1j * ((d0 + s0) * p1 + g0 * p2)
    b1 = -1j * (g0 * p1 + s0 * p2)
    q1 = p1 + 0.5 * h * a1
    q2 = p2 + 0.5 * h * b1
    a2 = -1j * ((dm + sm) * q1 + gm * q2)
    b2 = -1j * (gm * q1 + sm * q2)
    q1 = p1 + 0.5 * h * a2
    q2 = p2 + 0.5 * h * b2
    a3 = -1j * ((dm + sm) * q1 + gm * q2)
    b3 = -1j * (gm * q1 + sm * q2)
    q1 = p1 + h * a3
    q2 = p2 + h * b3
    a4 = -1j * ((d1 + s1) * q1 + g1 * q2)
    b4 = -1j * (g1 * q1 + s1 * q2)
    return (
        p1 + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        p2 + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
    )


def _transfer_matrices(h: float, d, g, s):
    """Entries (m11, m12, m21, m22) of the step matrices, psi_k+1 = M_k psi_k.

    The ODE is linear, so an RK4 step is linear in the state: column j of
    M_k is the step applied to the basis vector e_j.
    """
    m11, m21 = _rk4_step(1.0, 0.0, h, d, g, s)
    m12, m22 = _rk4_step(0.0, 1.0, h, d, g, s)
    return m11, m12, m21, m22


def _prefix_products(m11, m12, m21, m22):
    """Running products M_k ... M_1 M_0 of a stack of 2x2 matrices, in place.

    Hillis-Steele scan: after the pass with stride ``d``, entry k holds the
    product of the ``min(k + 1, 2 d)`` matrices ending at k.  Elementwise
    products on four arrays beat ``np.matmul`` on a stack of tiny matrices.
    """
    d = 1
    while d < len(m11):
        x11, x12, x21, x22 = m11[d:], m12[d:], m21[d:], m22[d:]
        y11, y12, y21, y22 = m11[:-d], m12[:-d], m21[:-d], m22[:-d]
        (m11[d:], m12[d:], m21[d:], m22[d:]) = (
            x11 * y11 + x12 * y21,
            x11 * y12 + x12 * y22,
            x21 * y11 + x22 * y21,
            x21 * y12 + x22 * y22,
        )
        d *= 2
    return m11, m12, m21, m22


def integrate_schrodinger(
    drive: DriveSchedule,
    initial: TwoLevelState,
    common_shift: np.ndarray | None = None,
) -> ReferenceTrajectory:
    """Propagate ``initial`` under ``drive`` with fixed-step RK4.

    Steps are taken ``SCAN_BLOCK`` at a time as a prefix product of the
    per-step transfer matrices; the amplitude bound is checked after each
    block, before the next one starts.

    Parameters
    ----------
    drive:
        Node (and optionally midpoint) samples of the detuning and coupling.
    initial:
        State at ``grid.t0``.
    common_shift:
        Optional samples of a waveform added to both diagonal entries of the
        Hamiltonian, given on the interleaved node/midpoint grid
        (``2 * n_steps + 1`` values).  A common diagonal shift changes the
        global phase only; it exists so that frame choices can be audited.

    Raises
    ------
    IntegrationError
        If any amplitude stops being finite; the message names the first
        bad time index.
    """
    grid = drive.grid
    n = grid.n_steps
    h = grid.h
    dw = drive.delta_omega
    g = drive.coupling
    dw_mid, g_mid = drive.midpoint_samples()

    if common_shift is not None:
        common_shift = np.asarray(common_shift, dtype=float)
        if common_shift.shape != (2 * n + 1,):
            raise ValueError(
                f"common_shift must have {2 * n + 1} samples on the "
                f"node/midpoint grid, got {common_shift.shape}"
            )
        s_node = common_shift[::2]
        s_mid = common_shift[1::2]
    else:
        s_node = s_mid = None

    phi1 = np.empty(n + 1, dtype=complex)
    phi2 = np.empty(n + 1, dtype=complex)
    p1 = phi1[0] = complex(initial.phi1)
    p2 = phi2[0] = complex(initial.phi2)

    # a blow-up overflows the running products; the bound check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, SCAN_BLOCK):
            k1 = min(k0 + SCAN_BLOCK, n)
            lo, hi = slice(k0, k1), slice(k0 + 1, k1 + 1)
            s = (0.0, 0.0, 0.0)
            if s_node is not None:
                s = (s_node[lo], s_mid[lo], s_node[hi])
            m11, m12, m21, m22 = _prefix_products(
                *_transfer_matrices(
                    h, (dw[lo], dw_mid[lo], dw[hi]), (g[lo], g_mid[lo], g[hi]), s
                )
            )
            b1 = m11 * p1 + m12 * p2
            b2 = m21 * p1 + m22 * p2
            # abs() of a nan or inf amplitude is not < any bound, so one
            # comparison catches both overflow and nan propagation
            bad = ~(np.abs(b1) + np.abs(b2) < 1e3)
            if bad.any():
                k = k0 + int(np.argmax(bad)) + 1
                t_bad = grid.t0 + k * h
                raise IntegrationError(
                    f"integration produced a non-finite amplitude at time index "
                    f"{k} (t = {t_bad:.9g})"
                )
            phi1[hi] = b1
            phi2[hi] = b2
            p1 = b1[-1]
            p2 = b2[-1]

    return ReferenceTrajectory(grid=grid, phi1=phi1, phi2=phi2, drive=drive)


def overlap(a: TwoLevelState, b: TwoLevelState) -> complex:
    """Inner product <a|b> = conj(phi1_a) phi1_b + conj(phi2_a) phi2_b."""
    return (
        complex(a.phi1).conjugate() * complex(b.phi1)
        + complex(a.phi2).conjugate() * complex(b.phi2)
    )


def fidelity(a: TwoLevelState, b: TwoLevelState) -> float:
    """Overlap magnitude |<a|b>|, insensitive to global phase."""
    return abs(overlap(a, b))


def state_at(trajectory: ReferenceTrajectory, t: float) -> TwoLevelState:
    """State at an arbitrary time inside the trajectory domain.

    Grid nodes are returned exactly as stored; between nodes the amplitudes
    are interpolated with cubic splines and renormalized, so the returned
    state always has unit norm up to the stored solution's own drift.
    """
    grid = trajectory.grid
    span = grid.span
    if t < grid.t0 - 1e-12 * span or t > grid.t_end + 1e-12 * span:
        raise ValueError(
            f"t = {t} outside the trajectory domain [{grid.t0}, {grid.t_end}]"
        )
    k = round((t - grid.t0) / grid.h)
    if 0 <= k <= grid.n_steps and abs(t - (grid.t0 + k * grid.h)) < 1e-12 * span:
        return trajectory.state(int(k))
    s1, s2 = trajectory.interpolators()
    v1 = complex(s1(t))
    v2 = complex(s2(t))
    n = math.sqrt(abs(v1) ** 2 + abs(v2) ** 2)
    return TwoLevelState(v1 / n, v2 / n)
