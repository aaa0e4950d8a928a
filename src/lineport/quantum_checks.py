"""Structural quantum-consistency checks on the linear dynamics.

For linear circuits the Heisenberg equations of motion are classical linear
ODEs on the operator coefficients, so the canonical commutation relations
are preserved exactly when the state-transition matrix S of the closed
system is symplectic: S^T J S = J with J the canonical pairing of each flux
with its momentum. ``commutator_residual`` measures the violation; it
vanishes (to round-off) for the closed ladder+circuit flow and grows like the
damped-subspace contraction for the reduced open system, which is the
quantitative statement that the one-port reduction traded the line's degrees
of freedom for dissipation. Lumped systems are ``StateSpace`` flows.

Planck's constant enters reporting only: the linear equations of motion are
hbar-free, so all checks are stated on the classical propagator.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .reduced_dynamics import LadderSystem, StateSpace, _propagate_affine
from .signals import Signal, uniform_grid
from .spectral import LcExampleParams, weak_coupling

HBAR_DEFAULT = 1.0


def canonical_j(n_pairs: int) -> np.ndarray:
    """Canonical form J for the state ordering [all fluxes, all momenta]."""
    j = np.zeros((2 * n_pairs, 2 * n_pairs))
    j[:n_pairs, n_pairs:] = np.eye(n_pairs)
    j[n_pairs:, :n_pairs] = -np.eye(n_pairs)
    return j


def propagator_of(system, t: float, dt: float | None = None) -> np.ndarray:
    """State-transition matrix of a linear system at time t.

    Ladder systems take the leapfrog map of round(t/dt) steps of size dt
    from one eigendecomposition of the ladder's modes
    (``LadderSystem.leapfrog_power``), the backward map for a negative t;
    closed and open lumped systems (``StateSpace``) use the exact matrix exponential.
    ``leapfrog_power`` rejects a ladder with Josephson junctions: the
    propagator, and with it the commutator check, only exists for linear
    dynamics.
    """
    if not np.isfinite(t):
        raise ValidationError(f"propagator time must be finite, got t={t:g}")
    if dt is not None and not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"leapfrog dt must be positive and finite, got dt={dt:g}")
    if isinstance(system, LadderSystem):
        if dt is None:
            raise ValidationError("ladder propagator needs the leapfrog dt")
        if not np.isfinite(t / dt):
            raise ValidationError(f"t={t:g} is too many steps of dt={dt:g}")
        steps = int(round(t / dt))
        if abs(steps * dt - t) > 1e-9 * max(abs(t), dt):
            raise ValidationError(f"t={t:g} is not a multiple of dt={dt:g}")
        return system.leapfrog_power(dt, steps)
    if not isinstance(system, StateSpace):
        raise ValidationError(f"unsupported system type {type(system).__name__}")
    return system.propagator(t)


#: rows and columns of one tile of S^T J S - J in ``commutator_residual``
RESIDUAL_TILE = 128


def commutator_residual(prop) -> float:
    """Max-norm of S^T J S - J: zero iff the evolution preserves all
    equal-time canonical commutators of the discretized system.

    With S = [S_q; S_p] split by rows, S^T J S = X - X^T for X = S_q^T S_p.
    That is antisymmetric, so the max runs over its tiles on and above the
    diagonal, tile (I, K) being S_q[:, I]^T S_p[:, K] - S_p[:, I]^T S_q[:, K]
    (the first product alone on the diagonal): the work of one X product,
    with two tiles held besides S.
    """
    s = np.asarray(prop, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 or not s.size:
        raise ValidationError("propagator must be a non-empty square matrix with even "
                              f"dimension, got shape {s.shape}")
    d = s.shape[0] // 2
    s_q, s_p = s[:d], s[d:]
    maxima = []
    for a in range(0, 2 * d, RESIDUAL_TILE):
        rows = slice(a, a + RESIDUAL_TILE)
        for b in range(a, 2 * d, RESIDUAL_TILE):
            cols = slice(b, b + RESIDUAL_TILE)
            tile = s_q[:, rows].T @ s_p[:, cols]
            tile -= tile.T if a == b else s_p[:, rows].T @ s_q[:, cols]  # numpy buffers the overlap
            # J is +1 at (i, i + d) and -1 at (i + d, i)
            _add_on_diagonal(tile, d + a - b, -1.0)
            _add_on_diagonal(tile, a - b - d, 1.0)
            maxima.append(np.abs(tile, out=tile).max())
    return float(np.max(maxima))  # np.max keeps a NaN, which max() may drop


def _add_on_diagonal(tile, k: int, value: float) -> None:
    """Add ``value`` to the entries (r, r + k) of ``tile`` that exist."""
    r = np.arange(max(0, -k), min(tile.shape[0], tile.shape[1] - k))
    tile[r, r + k] += value


@dataclass
class GaussianMoments:
    """First and second moments of a Gaussian state over the canonical
    observables; covariance must be symmetric positive semidefinite."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        d = len(self.mean)
        if self.cov.shape != (d, d):
            raise ValidationError("covariance shape must match the mean")
        if not np.allclose(self.cov, self.cov.T, rtol=1e-10, atol=0.0):
            raise ValidationError("covariance must be symmetric")
        eigmin = np.linalg.eigvalsh(self.cov).min()
        if eigmin < -1e-12 * max(1.0, np.abs(self.cov).max()):
            raise ValidationError("covariance must be positive semidefinite")

    def uncertainty_defect(self, hbar: float = HBAR_DEFAULT) -> float:
        """Smallest eigenvalue of cov + i (hbar/2) J; nonnegative (within
        round-off) iff the state satisfies the uncertainty inequality.
        hbar scales reporting only, never the dynamics."""
        j = canonical_j(len(self.mean) // 2)
        eigs = np.linalg.eigvalsh(self.cov + 0.5j * hbar * j)
        return float(eigs.min())


def propagate_gaussian(moments: GaussianMoments, prop: np.ndarray,
                       noise_free: bool = False) -> GaussianMoments:
    """Propagate Gaussian moments by the state-transition matrix S = ``prop``
    (``propagator_of``): mean -> S mean, cov -> S cov S^T.

    Only the deterministic part is implemented; the vacuum-noise injection
    of the line source e0 is out of scope, so the caller must acknowledge
    that by setting noise_free=True.
    """
    if not noise_free:
        raise ValidationError(
            "propagate_gaussian covers the deterministic part only; the "
            "vacuum-noise injection from the line source e0 is out of scope. "
            "Set noise_free=True to acknowledge.")
    return GaussianMoments(mean=prop @ moments.mean, cov=prop @ moments.cov @ prop.T)


def langevin_weak(params: LcExampleParams, drive: Signal | None,
                  initial, t_grid) -> Signal:
    """Markovian weak-coupling model: integrate
    d2Phi/dt2 + kappa dPhi/dt + Omega_r^2 Phi = 2 g d(drive)/dt
    for initial = (Phi_1(0), dPhi_1/dt(0)); drive is the incoming backward
    voltage wave. Valid when 1/tau dominates the system frequencies; a
    warning marks omega_r * tau > 0.1.
    """
    if params.omega_r * params.tau > 0.1:
        warnings.warn(
            f"Markovian approximation outside its regime: omega_r*tau = "
            f"{params.omega_r * params.tau:.3g} > 0.1", stacklevel=2)
    t_grid, dt = uniform_grid(t_grid)
    omega_big, kappa = weak_coupling(params.g, params.alpha, params.omega_r)
    flow = np.array([[0.0, 1.0], [-omega_big ** 2, -kappa]])
    u0 = np.array([initial[0], initial[1]], dtype=float)
    source = (None if drive is None
              else (1, 2.0 * params.g * np.gradient(drive(t_grid, extend="zero"), dt)))
    ys = _propagate_affine(flow, source, u0, dt, len(t_grid))
    return Signal.from_samples(t_grid, ys[0])
