"""Two-level Schrodinger dynamics on a uniform time grid.

The system is described in the rotating frame of the second level, so the
Hamiltonian seen by the integrator is

    H(t) / hbar = [[dw(t), g(t)],
                   [g(t),  0   ]]

with ``dw`` the detuning between the two levels and ``g`` the coupling.
All times are expressed in units of 1/g for the canonical g = 1 drive;
nothing in this module assumes a particular waveform.

The integrator takes fixed fourth-order Magnus steps (Blanes, Casas, Oteo
and Ros, Phys. Rep. 470, 151 (2009)).  Each step consumes the drive at the
two bounding nodes and at the interval midpoint, so a
:class:`DriveSchedule` holds its waveforms on ``grid.half_times``, nodes
and midpoints interleaved.  It is the one waveform type of the package:
reference sweeps, synthesized controls and baselines are all drive
schedules, and the synthesis modules compute their samples on that grid.

One step is the exponential of the Magnus exponent built from those
samples, a 2x2 unitary in closed form, so the norm is kept to rounding at
any step size and the grid is set by accuracy alone.
:func:`integrate_schrodinger` builds the matrices of a block of steps with
numpy, takes their running products with a Hillis-Steele prefix scan,
applies them to the state carried in from the previous block, and moves
on.  A one-step-at-a-time loop lives on in the tests as the oracle the
scan is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import hermite


class IntegrationError(RuntimeError):
    """Raised when time evolution produces a non-finite amplitude."""


@dataclass(frozen=True)
class TwoLevelState:
    """Complex amplitude pair (phi1, phi2) of a two-level system."""

    phi1: complex
    phi2: complex

    def populations(self) -> tuple[float, float]:
        # numpy's complex abs, as in the population tables; Python's
        # abs(complex) can differ from it in the last bit
        p1, p2 = np.abs([self.phi1, self.phi2]) ** 2
        return float(p1), float(p2)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_steps`` intervals covering [0, t_end]."""

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be positive, got {self.n_steps}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")

    @property
    def h(self) -> float:
        return self.t_end / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    @cached_property
    def half_times(self) -> np.ndarray:
        """Nodes and midpoints interleaved: 2*n_steps + 1 samples."""
        return np.linspace(0.0, self.t_end, 2 * self.n_steps + 1)


@dataclass
class DriveSchedule:
    """Sampled drive waveforms on a :class:`TimeGrid`.

    ``delta_omega`` and ``coupling`` hold samples on ``grid.half_times``
    (``2 * n_steps + 1`` values each): the nodes at the even indices and
    the midpoints the Magnus step reads at the odd ones.  ``label``
    names the schedule in verification reports and output file names.
    """

    grid: TimeGrid
    delta_omega: np.ndarray
    coupling: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        want = 2 * self.grid.n_steps + 1
        for name in ("delta_omega", "coupling"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (want,):
                raise ValueError(
                    f"{name} must have {want} node/midpoint samples, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                k = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ValueError(f"{name} has a non-finite sample at index {k}")
            setattr(self, name, arr)

    def interpolators(self):
        """delta_omega and coupling as cubic Hermites on the nodes, with
        fourth-order node slopes from the node and midpoint samples."""
        t, h = self.grid.times, self.grid.h
        dw, g = self.delta_omega, self.coupling
        return hermite(t, dw[::2], _slopes(dw, h)), hermite(t, g[::2], _slopes(g, h))


def _slopes(f: np.ndarray, h: float) -> np.ndarray:
    """Node slopes of a waveform from five-point differences of its
    interleaved node/midpoint samples f (spacing h/2): the centred
    (f[-2] - 8 f[-1] + 8 f[1] - f[2]) / (12 h/2) inside, one-sided at
    the two ends."""

    def one_sided(f0, f1, f2, f3, f4):
        return -25.0 * f0 + 48.0 * f1 - 36.0 * f2 + 16.0 * f3 - 3.0 * f4

    out = np.empty((len(f) + 1) // 2)
    out[1:-1] = f[:-4:2] - 8.0 * f[1:-2:2] + 8.0 * f[3::2] - f[4::2]
    out[0] = one_sided(*f[:5])
    out[-1] = -one_sided(*f[:-6:-1])
    return out / (6.0 * h)


@dataclass
class ReferenceTrajectory:
    """Stored solution of a drive: amplitudes at every grid node."""

    grid: TimeGrid
    phi1: np.ndarray
    phi2: np.ndarray
    drive: DriveSchedule

    def state(self, k: int) -> TwoLevelState:
        return TwoLevelState(complex(self.phi1[k]), complex(self.phi2[k]))

    @property
    def final_state(self) -> TwoLevelState:
        return self.state(len(self.phi1) - 1)

    def norm_drift(self) -> float:
        """Largest deviation of the state norm from 1 over the nodes."""
        norms = np.sqrt(np.abs(self.phi1) ** 2 + np.abs(self.phi2) ** 2)
        return float(np.max(np.abs(norms - 1.0)))

    def populations(self) -> np.ndarray:
        """(n_steps + 1, 2) array of level populations."""
        return np.stack([np.abs(self.phi1) ** 2, np.abs(self.phi2) ** 2], axis=1)

    def interpolators(self):
        """phi1 and phi2 as cubic Hermites on the nodes, with the slopes the
        Schrodinger equation gives there: phi' = -i H phi of the drive
        (which leaves out an integrator's ``common_shift``)."""
        dw, g = self.drive.delta_omega[::2], self.drive.coupling[::2]
        t = self.grid.times
        return (
            hermite(t, self.phi1, -1j * (dw * self.phi1 + g * self.phi2)),
            hermite(t, self.phi2, -1j * (g * self.phi1)),
        )


#: Steps per block of the prefix-scan propagator.  Memory is O(block); 8192
#: was the fastest of 2048 to 32768 on 2e4- and 1e5-step grids.
SCAN_BLOCK = 8192


def _block(f: np.ndarray, k0: int, k1: int):
    """(start, midpoint, end) samples of steps k0 .. k1 - 1 of a waveform
    on the interleaved node/midpoint grid, as views."""
    i, j = 2 * k0, 2 * k1
    return f[i:j:2], f[i + 1 : j : 2], f[i + 2 : j + 1 : 2]


def _transfer_matrices(h: float, d, g, s):
    """Entries (m11, m12, m21, m22) of the step matrices, psi_k+1 = M_k psi_k.

    ``d``, ``g`` and ``s`` are the (start, midpoint, end) samples of the
    detuning, the coupling and the common diagonal shift.  With
    H = (d/2 + s) I + (d/2) sz + g sx, the fourth-order Magnus exponent
    (h/6)(A0 + 4 Am + A1) - (h^2/12)[A0, A1] of A = -iH is
    -i (alpha I + bz sz + bx sx + by sy), and M_k is its closed-form
    exponential: a phase times an SU(2) rotation by theta = |b|.
    """
    (d0, dm, d1), (g0, gm, g1), (s0, sm, s1) = d, g, s
    bz = (h / 12.0) * (d0 + 4.0 * dm + d1)
    bx = (h / 6.0) * (g0 + 4.0 * gm + g1)
    by = (-h * h / 12.0) * (d0 * g1 - g0 * d1)
    alpha = bz + (h / 6.0) * (s0 + 4.0 * sm + s1)
    theta = np.sqrt(bz * bz + bx * bx + by * by)
    phase = np.exp(-1j * alpha)
    cos, sinc = phase * np.cos(theta), phase * np.sinc(theta / np.pi)
    z, x, y = sinc * bz, sinc * bx, sinc * by
    return cos - 1j * z, -1j * x - y, -1j * x + y, cos + 1j * z


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
    """Propagate ``initial`` under ``drive`` with fixed fourth-order Magnus steps.

    Steps are taken ``SCAN_BLOCK`` at a time as a prefix product of the
    per-step transfer matrices; the amplitude bound is checked after each
    block, before the next one starts.

    Parameters
    ----------
    drive:
        Node and midpoint samples of the detuning and coupling.
    initial:
        State at t = 0.
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

    if common_shift is not None:
        common_shift = np.asarray(common_shift, dtype=float)
        if common_shift.shape != (2 * n + 1,):
            raise ValueError(
                f"common_shift must have {2 * n + 1} samples on the "
                f"node/midpoint grid, got {common_shift.shape}"
            )

    phi1 = np.empty(n + 1, dtype=complex)
    phi2 = np.empty(n + 1, dtype=complex)
    p1 = phi1[0] = complex(initial.phi1)
    p2 = phi2[0] = complex(initial.phi2)

    # a blow-up overflows the running products; the bound check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, SCAN_BLOCK):
            k1 = min(k0 + SCAN_BLOCK, n)
            s = (0.0, 0.0, 0.0)
            if common_shift is not None:
                s = _block(common_shift, k0, k1)
            m11, m12, m21, m22 = _prefix_products(
                *_transfer_matrices(h, _block(dw, k0, k1), _block(g, k0, k1), s)
            )
            b1 = m11 * p1 + m12 * p2
            b2 = m21 * p1 + m22 * p2
            # abs() of a nan or inf amplitude is not < any bound, so one
            # comparison catches both overflow and nan propagation
            bad = ~(np.abs(b1) + np.abs(b2) < 1e3)
            if bad.any():
                k = k0 + int(np.argmax(bad)) + 1
                t_bad = k * h
                raise IntegrationError(
                    f"integration produced a non-finite amplitude at time index "
                    f"{k} (t = {t_bad:.9g})"
                )
            phi1[k0 + 1 : k1 + 1] = b1
            phi2[k0 + 1 : k1 + 1] = b2
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
