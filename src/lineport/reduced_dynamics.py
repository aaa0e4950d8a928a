"""Time-domain dynamics: reduced one-port integration and the LC-ladder oracle.

Three independent formulations of the same physics live here:

* ``integrate`` evolves the reduced state (Phi, Q, Q0) under
      dPhi/dt = Cb^-1 Q + p Q0
      dQ/dt   = -dU/dPhi
      dQ0/dt  = -Q0/tau - (p.Q)/Z_c + e0(t)/Z_c
  with an exact matrix-exponential stepper for linear circuits (default)
  or classic RK4 when Josephson junctions make the potential nonlinear.
  Both steppers hold the source e0 linear between grid samples.

* ``langevin_form`` evolves the convolution formulation
      dPhi/dt = A Q + B (g * dQ/dt) + w(t),   g(t) = exp(-t/tau),
  realizing the exponential-memory convolution exactly through one auxiliary
  state per node instead of quadrature.

  Both right-hand sides are one flow matrix, holding the linear-inductor
  stiffness, times the state, less the junction forces where -dU/dPhi enters.

* ``ladder_oracle`` discretizes the line into n LC sections and integrates
  the closed Hamiltonian system with symplectic leapfrog; with the far end
  open and the no-echo time window it is an independent oracle for the
  reduced model. Each output sample, its energy included, is read off the
  leapfrog kernel's own state.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import NumericalPreconditionError, ValidationError
from .netlist import (CircuitTopology, ReducedModel, build_capacitance_matrix,
                      junction_forces, potential_energy, reduce_ground,
                      stiffness_matrix)
from .signals import Signal, Trajectory, uniform_grid
from .tline import LineInitialState, LineParams

DT_SAFETY_FACTOR = 20.0
MIN_LADDER_SECTIONS = 100


@dataclass
class ReducedState:
    """Instantaneous reduced state: node fluxes, node charges, and the
    conjugate momentum Q0 of the line-end flux."""

    phi: np.ndarray
    q: np.ndarray
    q0: float

    def __post_init__(self):
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if self.phi.shape != self.q.shape:
            raise ValidationError("phi and q must have the same length")

    def v0(self, model: ReducedModel) -> float:
        """Port voltage V0 = p.Q + Q0/C_p (definitional identity)."""
        return float(model.p @ self.q + self.q0 / model.c_p)

    def packed(self) -> np.ndarray:
        return np.concatenate([self.phi, self.q, [self.q0]])


def _as_gradient(grad_u, n):
    """grad U as (linear stiffness K, junction forces or None); see ReducedRhs."""
    forces = None
    if isinstance(grad_u, CircuitTopology):
        k = stiffness_matrix(replace(grad_u, junctions=()))  # the linear inductors
        forces = None if grad_u.is_linear else partial(junction_forces, grad_u)
    elif callable(grad_u):
        k, forces = np.zeros((n, n)), grad_u
    else:
        k = np.asarray(grad_u, dtype=float)
    if k.shape != (n, n):
        raise ValidationError(f"stiffness matrix must be {n}x{n}")
    return k, forces


@dataclass
class ReducedRhs:
    """Autonomous part f(y) = flow_matrix @ y - forces(phi) on the q rows of
    the reduced equations on the packed state y = [phi, q, q0], whose q0 row
    takes the input e0/Z_c; ``assemble_rhs`` is its constructor. ``grad_u``
    is a ``CircuitTopology`` (inductor stiffness K in the flow, junction
    forces), a stiffness matrix K (no forces), or a callable phi -> grad U
    (the forces, K = 0). Without forces the exact expm stepper applies."""

    model: ReducedModel
    grad_u: object
    e0: Signal | None = None
    stiffness: np.ndarray = field(init=False)
    forces: object = field(init=False)
    flow_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        self.stiffness, self.forces = _as_gradient(self.grad_u, self.model.n_nodes)
        self.flow_matrix = _reduced_flow_matrix(self.model, self.stiffness)

    @property
    def is_linear(self) -> bool:
        return self.forces is None

    def __call__(self, y):
        out = self.flow_matrix @ y
        if self.forces is not None:
            n = self.model.n_nodes
            out[n:2 * n] -= self.forces(y[:n])
        return out


def _reduced_flow_matrix(model: ReducedModel, k: np.ndarray) -> np.ndarray:
    n = model.n_nodes
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[:n, n:2 * n] = model.cb_inv
    m[:n, 2 * n] = model.p
    m[n:2 * n, :n] = -k
    m[2 * n, n:2 * n] = -model.p / model.z_c
    m[2 * n, 2 * n] = -1.0 / model.tau
    return m


assemble_rhs = ReducedRhs


def _lti_step_operators(m, dt):
    """Exact step operators for u' = M u + b(t) with piecewise-linear b:
    u1 = E u0 + F b0 + G (b1 - b0)."""
    from scipy.linalg import expm  # loaded at first use, off the import path
    d = m.shape[0]
    w = np.zeros((3 * d, 3 * d))
    w[:d, :d] = m * dt
    w[:d, d:2 * d] = np.eye(d) * dt
    w[d:2 * d, 2 * d:] = np.eye(d) * dt
    ew = expm(w)
    return ew[:d, :d], ew[:d, d:2 * d], ew[:d, 2 * d:] / dt


def _propagate_affine(flow, b_samples, u0, dt):
    """Columns u_k of u_{k+1} = E u_k + F b_k + G (b_{k+1} - b_k) by a doubling
    scan: column k starts as step k's input term (u0 for k = 0), and each
    pass at shift s = 1, 2, 4, ... adds E^s times the column s to its left."""
    e_step, f_op, g_op = _lti_step_operators(flow, dt)
    us = np.empty((len(u0), b_samples.shape[1]))
    us[:, 0] = u0
    np.matmul(f_op - g_op, b_samples[:, :-1], out=us[:, 1:])
    us[:, 1:] += g_op @ b_samples[:, 1:]
    shift = 1
    while shift < us.shape[1]:
        us[:, shift:] += e_step @ us[:, :-shift]
        e_step = e_step @ e_step
        shift *= 2
    return us


def _rk4(f, b, y0, t_grid):
    """Classic RK4 for y' = f(y) + b(t), b linear between its columns; the
    columns from the first non-finite state on are NaN."""
    dt = t_grid[1] - t_grid[0]
    b_mid = 0.5 * (b[:, :-1] + b[:, 1:])
    out = np.empty((len(y0), len(t_grid)))
    out[:, 0] = y = y0
    for k in range(len(t_grid) - 1):
        k1 = f(y) + b[:, k]
        k2 = f(y + 0.5 * dt * k1) + b_mid[:, k]
        k3 = f(y + 0.5 * dt * k2) + b_mid[:, k]
        k4 = f(y + dt * k3) + b[:, k + 1]
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(y).all():
            out[:, k + 1:] = np.nan
            break
        out[:, k + 1] = y
    return out


def _evolve(model: ReducedModel, stiffness, flow, f, linear, b, y0, t_grid, method):
    """Integrate y' = f(y) + b(t) on ``t_grid``, b sampled in its columns, by
    'expm' on ``flow`` when f is ``linear`` (f(y) = flow @ y) or 'rk4' on f;
    'auto' takes 'expm' when it can. Returns the state columns and the method."""
    dt = t_grid[1] - t_grid[0]
    if method == "auto":
        method = "expm" if linear else "rk4"
    # warn where accuracy depends on dt: all but the exact homogeneous stepper
    if linear and (method != "expm" or b.any()):
        omega_max = np.sqrt(np.linalg.norm(model.cb_inv, 2)
                            * max(np.linalg.norm(stiffness, 2), 1e-300))
        limit = min(model.tau, 1.0 / omega_max) / DT_SAFETY_FACTOR
        if dt > limit:
            warnings.warn(f"dt={dt:.3g} does not resolve the fastest scale; "
                          f"recommended dt <= {limit:.3g}", stacklevel=3)
    if method not in ("expm", "rk4"):
        raise ValidationError(f"unknown integration method {method!r}")
    if method == "expm" and not linear:
        raise ValidationError("matrix-exponential stepper requires a linear circuit")
    with np.errstate(over="ignore", invalid="ignore"):  # every column is checked below
        ys = _propagate_affine(flow, b, y0, dt) if method == "expm" else _rk4(f, b, y0, t_grid)
    bad = ~np.isfinite(ys).all(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        fix = f"the initial state (size {np.abs(y0).max():.3g}) or dt" if k <= 1 else "dt"
        raise NumericalPreconditionError(
            f"integration diverged at t={t_grid[k]:.6g}: non-finite state; reduce {fix}")
    return ys, method


def integrate(rhs: ReducedRhs, initial: ReducedState, t_grid,
              method: str = "auto") -> Trajectory:
    """Integrate the reduced system on a uniform time grid.

    method='expm' uses the exact matrix-exponential stepper (linear circuits),
    method='rk4' the classic 4th-order Runge-Kutta scheme; 'auto' picks
    'expm' when available. Both take e0 linear between grid samples.
    """
    t_grid, dt = uniform_grid(t_grid)
    model = rhs.model
    n = model.n_nodes
    b = np.zeros((2 * n + 1, len(t_grid)))
    if rhs.e0 is not None:
        b[2 * n] = rhs.e0(t_grid) / model.z_c
    ys, method = _evolve(model, rhs.stiffness, rhs.flow_matrix, rhs, rhs.is_linear, b,
                         initial.packed(), t_grid, method)
    phi = ys[:n].T
    q = ys[n:2 * n].T
    q0 = ys[2 * n]
    v0 = q @ model.p + q0 / model.c_p
    return Trajectory(t_grid=t_grid, phi=phi, q=q, q0=q0, v0=v0,
                      meta={"integrator": method, "dt": float(dt)})


def langevin_form(model: ReducedModel, grad_u, e0: Signal | None,
                  initial: ReducedState, t_grid, method: str = "auto") -> Trajectory:
    """Integrate the Langevin convolution form of the reduced dynamics.

    The exponential-memory convolution g * dQ/dt is realized exactly by the
    auxiliary state m' = dQ/dt - m/tau (one extra variable per node), and the
    source term by y' = -y/tau + e0(t)/tau with y(0) = V0 at t=0. The port
    voltage is V0(t) = p.m + y.
    """
    t_grid, dt = uniform_grid(t_grid)
    n = model.n_nodes
    stiffness, forces = _as_gradient(grad_u, n)
    v0_init = initial.v0(model)
    y0 = np.concatenate([initial.phi, initial.q, np.zeros(n), [v0_init]])
    cpp = model.c_p * model.p

    flow = np.zeros((3 * n + 1, 3 * n + 1))
    flow[:n, n:2 * n] = model.a
    flow[:n, 2 * n:3 * n] = np.outer(cpp, model.p)
    flow[:n, 3 * n] = cpp
    flow[n:2 * n, :n] = -stiffness
    flow[2 * n:3 * n, :n] = -stiffness
    flow[2 * n:3 * n, 2 * n:3 * n] = -np.eye(n) / model.tau
    flow[3 * n, 3 * n] = -1.0 / model.tau

    def rhs(y):
        out = flow @ y
        if forces is not None:
            force = forces(y[:n])
            out[n:2 * n] -= force
            out[2 * n:3 * n] -= force
        return out

    b = np.zeros((3 * n + 1, len(t_grid)))
    if e0 is not None:
        b[3 * n] = e0(t_grid) / model.tau
    ys, method = _evolve(model, stiffness, flow, rhs, forces is None, b, y0, t_grid, method)
    phi = ys[:n].T
    q = ys[n:2 * n].T
    v0 = ys[2 * n:3 * n].T @ model.p + ys[3 * n]
    q0 = model.c_p * (v0 - q @ model.p)
    return Trajectory(t_grid=t_grid, phi=phi, q=q, q0=q0, v0=v0,
                      meta={"integrator": f"langevin-{method}", "dt": float(dt)})


class LadderSystem:
    """Closed Hamiltonian system: lumped circuit + coupling capacitor + an
    n-section LC ladder of total ``length`` standing in for the line.

    Coordinates are [Phi_1..Phi_N, phi_0, phi_1..phi_n]; each ladder node
    carries the capacitance of its dual cell (c dx, halved at both ends) and
    neighboring nodes are linked by series inductors ell dx. The far end is
    left open; trajectories are only valid inside the no-echo window
    t < 2 length / v_p.
    """

    def __init__(self, topology: CircuitTopology, line: LineParams,
                 n_sections: int, length: float):
        if n_sections < MIN_LADDER_SECTIONS:
            raise ValidationError(f"ladder oracle needs n_sections >= {MIN_LADDER_SECTIONS}")
        if length <= 0:
            raise ValidationError("ladder length must be positive")
        self.topology = topology
        self.line = line
        self.n_sections = int(n_sections)
        self.length = float(length)
        self.dx = self.length / self.n_sections
        self.n_circ = topology.node_count

        cb = reduce_ground(build_capacitance_matrix(topology), topology.ground)
        self.cb = cb
        c_c = topology.coupling_capacitance
        n = self.n_circ
        cells = np.full(self.n_sections + 1, line.c_per_len * self.dx)
        cells[0] *= 0.5
        cells[-1] *= 0.5
        self.cells = cells
        head = np.zeros((n + 1, n + 1))
        head[:n, :n] = cb
        head[0, 0] += c_c
        head[0, n] -= c_c
        head[n, 0] -= c_c
        head[n, n] = c_c + cells[0]
        self._head = head
        from scipy.linalg import cho_factor, cho_solve  # loaded at first use
        self._head_inv = cho_solve(cho_factor(head), np.eye(n + 1))
        self._k_line = 1.0 / (line.ell * self.dx)
        self._k_circ, self._forces = _as_gradient(topology, n)
        self._kick_dt = None
        self.dim = n + 1 + self.n_sections

    # -- Hamiltonian structure ------------------------------------------------
    # grad_potential, velocities, momenta, drift_kick and leapfrog_step also
    # act on (dim, B) stacks

    def grad_potential(self, q, out=None):
        """Potential gradient dU/dq, written into ``out`` when given; line
        node j gets k_line (d_{j-1} - d_j), d_j = phi_{j+1} - phi_j."""
        n = self.n_circ
        out = np.empty_like(q) if out is None else out
        np.matmul(self._k_circ, q[:n], out=out[:n])
        if self._forces is not None:
            out[:n] += self._forces(q[:n])
        line = out[n:]
        np.subtract(q[n + 1:], q[n:-1], out=line[1:])
        np.negative(line[1:2], out=line[:1])
        np.subtract(line[1:-1], line[2:], out=line[1:-1])
        line *= self._k_line
        return out

    def velocities(self, p, out=None):
        """Inverse mass action M^-1 p, written into ``out`` when given: the
        precomputed head inverse on the circuit nodes and line node 0, one
        cell division per line node."""
        n = self.n_circ
        out = np.empty_like(p) if out is None else out
        np.matmul(self._head_inv, p[:n + 1], out=out[:n + 1])
        np.divide(p[n + 1:].T, self.cells[1:], out=out[n + 1:].T)
        return out

    def momenta(self, v, out=None):
        """Mass action M v, written into ``out`` when given: the head block on
        the circuit nodes and line node 0, one cell multiply per line node."""
        n = self.n_circ
        out = np.empty_like(v) if out is None else out
        np.matmul(self._head, v[:n + 1], out=out[:n + 1])
        np.multiply(v[n + 1:].T, self.cells[1:], out=out[n + 1:].T)
        return out

    def potential(self, q):
        n = self.n_circ
        u_circ = potential_energy(self.topology, q[:n])
        return u_circ + 0.5 * self._k_line * np.sum(np.diff(q[n:]) ** 2)

    def hamiltonian(self, q, p):
        return 0.5 * float(p @ self.velocities(p)) + self.potential(q)

    def drift_kick(self, q, u, dt, steps, acc):
        """``steps`` leapfrog substeps in displacement form, in place: the
        drift q += u, then the kick u -= acc with acc = dt^2 M^-1 grad U(q),
        u being the step displacement dt M^-1 p at the half step. ``acc`` is
        left holding the last kick.

        acc is formed inline from d = diff(q_line): line node j gets
        dt^2 k_line / cell_j (d_{j-1} - d_j), with d_ns = 0 past the far node,
        and the head block dt^2 head_inv @ [circuit gradient; -k_line d_0],
        the circuit gradient being K q plus any junction forces. The scaled
        head_inv and line factors are built once per dt.
        """
        n = self.n_circ
        w = np.empty((n + self.n_sections + 1,) + q.shape[1:])
        grad_circ, head_in, d, d_next = w[:n], w[:n + 1], w[n:-1], w[n + 1:]
        w[-1] = 0.0
        if dt != self._kick_dt:
            head = dt * dt * self._head_inv
            head[:, n] *= -self._k_line
            self._kick_dt, self._kick = dt, (head, dt * dt * self._k_line / self.cells[1:])
        head, line_inv = self._kick
        line_inv = line_inv.reshape((-1,) + (1,) * (q.ndim - 1))
        q_circ, q_line, q_next = q[:n], q[n:-1], q[n + 1:]
        acc_head, acc_line = acc[:n + 1], acc[n + 1:]
        k_circ, forces = self._k_circ, self._forces
        for _ in range(steps):
            q += u
            np.matmul(k_circ, q_circ, out=grad_circ)
            if forces is not None:
                grad_circ += forces(q_circ)
            np.subtract(q_next, q_line, out=d)
            np.subtract(d, d_next, out=acc_line)
            acc_line *= line_inv
            np.matmul(head, head_in, out=acc_head)
            u -= acc

    def leapfrog_step(self, q, p, grad, dt, steps=1):
        """``steps`` kick-drift-kick steps from (q, p), ``grad`` being
        grad_potential(q), by ``drift_kick`` with the half-kicks between
        steps merged into full kicks. Returns the new (q, p, grad); the
        arguments are copied once and never modified."""
        if steps < 1:
            raise ValidationError(f"leapfrog needs steps >= 1, got {steps}")
        q = q.copy()
        u = dt * self.velocities(p - (0.5 * dt) * grad)  # the opening half-kick
        acc = np.empty_like(u)
        self.drift_kick(q, u, dt, steps, acc)
        p = self.momenta(u + 0.5 * acc)  # the last kick undone by half
        p /= dt
        return q, p, self.grad_potential(q)

    def one_step_matrix(self, dt: float) -> np.ndarray:
        """Linear map of one leapfrog step on the stacked state [q, p]: the
        step applied to the identity columns."""
        if self._forces is not None:
            raise ValidationError("one-step matrix requires a linear circuit")
        s = np.eye(2 * self.dim)
        q, p = s[:self.dim], s[self.dim:]
        s[:self.dim], s[self.dim:], _ = self.leapfrog_step(q, p, self.grad_potential(q), dt)
        return s

    def leapfrog_power(self, dt: float, steps: int) -> np.ndarray:
        """``one_step_matrix(dt)`` to the power ``steps`` on the stacked state
        [q, p]; a negative ``steps`` gives the backward map, the leapfrog
        with -dt, and 0 the exact identity.

        The fluxes obey q_{k+1} = 2B q_k - q_{k-1} with B = I + E and
        E = -(dt^2/2) M^-1 K, so with D = T_N(B) - I, U = U_{N-1}(B)
        (Chebyshev polynomials of the first and second kind) and EU = E U,
            S^N = [[I + D, dt U M^-1], [M (2 EU + E EU) / dt, (I + D)^T]].
        D, U and EU are doubled together, one dim x 3dim product per bit of
        N, and advanced by one step with E alone on each set bit. D, not T,
        is carried because B = I + O((omega dt)^2) on the slow modes, and EU
        with the mass applied, not K U, so U's rounding is not scaled by |K|.
        """
        if self._forces is not None:
            raise ValidationError("leapfrog power requires a linear circuit")
        dim = self.dim
        s = np.eye(2 * dim)
        if steps == 0:
            return s
        if steps < 0:
            dt, steps = -dt, -steps
        c = 0.5 * dt * dt
        work = np.empty((dim, dim))

        def apply_e(x, out):
            self.velocities(self.grad_potential(x, out=work), out=out)
            out *= -c
            return out

        stack = np.empty((dim, 3 * dim))
        d, u, eu = stack[:, :dim], stack[:, dim:2 * dim], stack[:, 2 * dim:]
        prod = np.empty_like(stack)
        e = apply_e(s[:dim, :dim], np.empty((dim, dim)))
        e_d, e_eu = np.empty((dim, dim)), np.empty((dim, dim))
        d[...] = e
        u[...] = s[:dim, :dim]
        eu[...] = e
        diag = np.arange(dim)
        for bit in bin(steps)[3:]:
            # N -> 2N: T_2N = 2 T_N^2 - I and U_2N-1 = 2 T_N U_N-1
            np.matmul(d, stack, out=prod)
            prod += stack
            prod[:, :dim] += d
            np.multiply(prod, 2.0, out=stack)
            if bit == "1":
                # N -> N+1: U_N = B U_N-1 + T_N and T_N+1 = B T_N - (I - B^2) U_N-1
                apply_e(d, e_d)
                apply_e(eu, e_eu)
                u += eu
                u += d
                u[diag, diag] += 1.0
                d += e
                d += e_d
                d += 2.0 * eu
                d += e_eu
                eu += e_eu
                eu += e
                eu += e_d
        s[:dim, :dim] += d
        s[dim:, dim:] += d.T
        self.velocities(u.T, out=s[:dim, dim:].T)  # U M^-1 = (M^-1 U^T)^T
        s[:dim, dim:] *= dt
        apply_e(eu, e_eu)
        e_eu += 2.0 * eu
        self.momenta(e_eu, out=s[dim:, :dim])
        s[dim:, :dim] /= dt
        return s

    def cfl_dt(self) -> float:
        """Leapfrog stability bound of the interior ladder modes."""
        return self.dx / self.line.v_p

    # -- state construction ---------------------------------------------------

    def initial_state(self, initial: ReducedState,
                      line_initial: LineInitialState | None = None):
        """Map reduced + line initial data onto ladder coordinates/momenta.

        Node velocities come from the canonical identities dPhi/dt =
        Cb^-1 (Q + Q0 e1) and dphi_0/dt = dPhi_1/dt + Q0/C_c; momenta are
        M times velocities, so node 0 reproduces Q0 = -C_c (dPhi1 - dphi0)/dt
        up to the vanishing half-cell capacitance term.
        """
        n = self.n_circ
        x_nodes = self.dx * np.arange(self.n_sections + 1)
        q_pos = np.zeros(self.dim)
        q_pos[:n] = initial.phi
        if line_initial is not None:
            q_pos[n:] = line_initial.phi_at(x_nodes)
        vel = np.zeros(self.dim)
        e1 = np.zeros(n)
        e1[0] = 1.0
        dphi = np.linalg.solve(self.cb, initial.q + initial.q0 * e1)
        vel[:n] = dphi
        vel[n] = dphi[0] + initial.q0 / self.topology.coupling_capacitance
        if line_initial is not None:
            vel[n + 1:] = line_initial.q_at(x_nodes[1:]) / self.line.c_per_len
        return q_pos, self.momenta(vel)


def ladder_oracle(line: LineParams, n_sections: int, length: float,
                  topology: CircuitTopology, initial: ReducedState, t_grid,
                  line_initial: LineInitialState | None = None,
                  dt: float | None = None, courant: float = 0.5,
                  energy_drift_tol: float = 0.01) -> Trajectory:
    """Leapfrog the closed ladder+circuit system; return circuit observables.

    The requested window must satisfy the no-echo condition
    t_max < 2 length / v_p so that the open far end never influences x = 0.
    """
    t_grid, dt_out = uniform_grid(t_grid)
    t_max = float(t_grid[-1])
    if t_max >= 2.0 * length / line.v_p:
        needed = line.v_p * t_max / 2.0
        raise NumericalPreconditionError(
            f"echo window violated: t_max={t_max:g} needs line length > {needed:g} "
            f"(have {length:g})")
    system = LadderSystem(topology, line, n_sections, length)
    if dt is None:
        dt = courant * system.cfl_dt()
    n_sub = max(1, int(np.ceil(dt_out / dt - 1e-12)))
    dt = dt_out / n_sub
    if dt > system.cfl_dt():
        raise NumericalPreconditionError(
            f"leapfrog unstable: dt={dt:g} exceeds CFL bound {system.cfl_dt():g}; "
            "decrease dt or the output spacing")

    q_pos, p = system.initial_state(initial, line_initial)
    n_out = len(t_grid)
    n = system.n_circ
    phi_out = np.empty((n_out, n))
    q_out = np.empty((n_out, n))
    q0_out = np.empty(n_out)
    v0_out = np.empty(n_out)
    energy = np.empty(n_out)
    head, head_inv, cells = system._head, system._head_inv, system.cells

    # every state the loop makes is checked through its energy below
    with np.errstate(over="ignore", invalid="ignore"):
        energy[0] = system.hamiltonian(q_pos, p)
        if not np.isfinite(energy[0]):
            raise NumericalPreconditionError(
                "ladder integration diverged; reduce the initial state: "
                "its energy is not finite")
        u = dt * system.velocities(p - (0.5 * dt) * system.grad_potential(q_pos))
        acc = np.empty_like(u)
        p_head = p[:n + 1]
        for k in range(n_out):
            if k:
                system.drift_kick(q_pos, u, dt, n_sub, acc)
                w = u + 0.5 * acc  # dt M^-1 p: the last kick undone by half
                w_head, w_line = w[:n + 1], w[n + 1:]
                p_head = head @ w_head
                p_head /= dt
                energy[k] = system.potential(q_pos) + 0.5 * (
                    p_head @ w_head / dt + cells[1:] @ (w_line * w_line) / (dt * dt))
            v0 = (head_inv @ p_head)[n]
            phi_out[k], q_out[k] = q_pos[:n], p_head[:n]
            q0_out[k], v0_out[k] = p_head[n] - cells[0] * v0, v0
    if not np.all(np.isfinite(energy)):
        raise NumericalPreconditionError("ladder integration diverged; reduce dt")
    scale = max(abs(energy[0]), abs(energy).max() * 1e-12, 1e-300)
    drift = float(np.abs(energy - energy[0]).max() / scale)
    if drift > energy_drift_tol:
        raise NumericalPreconditionError(
            f"ladder energy drift {drift:.3g} exceeds {energy_drift_tol:.3g}; reduce dt")
    return Trajectory(t_grid=t_grid, phi=phi_out, q=q_out, q0=q0_out, v0=v0_out,
                      meta={"integrator": "leapfrog", "dt": float(dt),
                            "substeps": n_sub * (n_out - 1),
                            "n_sections": n_sections, "dx": system.dx,
                            "energy_drift": drift, "energy0": float(energy[0])})
