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
from functools import partial

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


@dataclass(frozen=True)
class Propagator:
    """State-transition matrix on the stacked canonical state at time t."""

    matrix: np.ndarray
    t: float
    kind: str
    dt: float | None = None


#: the closed flow on (q, p) and the reduced one-port flow on (Phi, Phi_0, Q, Q_0)
HamiltonianSystem = StateSpace.closed
OpenReducedSystem = partial(StateSpace.reduced, port_flux=True)


def propagator_of(system, t: float, dt: float | None = None) -> Propagator:
    """State-transition matrix of a linear system at time t.

    Ladder systems take the leapfrog map of round(t/dt) steps of size dt
    from one eigendecomposition of the ladder's modes
    (``LadderSystem.leapfrog_power``), the backward map for a negative t;
    closed and open lumped systems (``StateSpace``) use the exact matrix exponential.
    Nonlinear (Josephson) systems are rejected: the propagator, and with it
    the commutator check, only exists for linear dynamics.
    """
    if not np.isfinite(t):
        raise ValidationError(f"propagator time must be finite, got t={t:g}")
    if dt is not None and not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"leapfrog dt must be positive and finite, got dt={dt:g}")
    if isinstance(system, LadderSystem):
        if not system.topology.is_linear:
            raise ValidationError("commutator checks require linear dynamics "
                                  "(Josephson junctions present)")
        if dt is None:
            raise ValidationError("ladder propagator needs the leapfrog dt")
        if not np.isfinite(t / dt):
            raise ValidationError(f"t={t:g} is too many steps of dt={dt:g}")
        steps = int(round(t / dt))
        if abs(steps * dt - t) > 1e-9 * max(abs(t), dt):
            raise ValidationError(f"t={t:g} is not a multiple of dt={dt:g}")
        return Propagator(matrix=system.leapfrog_power(dt, steps), t=t,
                          kind="ladder-leapfrog", dt=dt)
    if not isinstance(system, StateSpace):
        raise ValidationError(f"unsupported system type {type(system).__name__}")
    return Propagator(matrix=system.propagator(t), t=t, kind=system.kind)


def commutator_residual(prop) -> float:
    """Max-norm of S^T J S - J: zero iff the evolution preserves all
    equal-time canonical commutators of the discretized system."""
    s = prop.matrix if isinstance(prop, Propagator) else np.asarray(prop, dtype=float)
    if s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise ValidationError("propagator must be square with even dimension")
    # with S = [S_q; S_p] split by rows, S^T J S = X - X^T for X = S_q^T S_p;
    # J is subtracted on its two unit diagonals, so no dense J is built
    d = s.shape[0] // 2
    x = s[:d].T @ s[d:]
    x = x - x.T
    i = np.arange(d)
    x[i, i + d] -= 1.0
    x[i + d, i] += 1.0
    return float(np.abs(x).max())


def residual_report(prop: Propagator) -> dict:
    """Symplectic-residual record, JSON-serializable with the fixed keys
    symplectic_residual / t / dt / system."""
    return {
        "symplectic_residual": commutator_residual(prop),
        "t": float(prop.t),
        "dt": None if prop.dt is None else float(prop.dt),
        "system": prop.kind,
    }


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


def propagate_gaussian(moments: GaussianMoments, prop: Propagator,
                       noise_free: bool = False) -> GaussianMoments:
    """Propagate Gaussian moments: mean -> S mean, cov -> S cov S^T.

    Only the deterministic part is implemented; the vacuum-noise injection
    of the line source e0 is out of scope, so the caller must acknowledge
    that by setting noise_free=True.
    """
    if not noise_free:
        raise ValidationError(
            "propagate_gaussian covers the deterministic part only; the "
            "vacuum-noise injection from the line source e0 is out of scope. "
            "Set noise_free=True to acknowledge.")
    s = prop.matrix
    return GaussianMoments(mean=s @ moments.mean, cov=s @ moments.cov @ s.T)


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
    b = np.zeros((2, len(t_grid)))
    if drive is not None:
        b[1] = 2.0 * params.g * np.gradient(drive(t_grid, extend="zero"), dt)
    ys = _propagate_affine(flow, b, u0, dt)
    return Signal.from_samples(t_grid, ys[0])
