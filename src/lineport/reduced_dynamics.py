"""Time-domain dynamics: reduced one-port integration and the LC-ladder oracle.

Three independent formulations of the same physics live here:

* ``integrate`` evolves the reduced state (Phi, Q, Q0) under
      dPhi/dt = Cb^-1 Q + p Q0
      dQ/dt   = -dU/dPhi
      dQ0/dt  = -Q0/tau - (p.Q)/Z_c + e0(t)/Z_c
  with an exact matrix-exponential stepper for linear circuits (default)
  or classic RK4 when Josephson junctions make the potential nonlinear.
  Both steppers hold the source e0 linear between grid samples and warn
  when dt does not resolve the fastest scale, junctions' E_J/phi0^2 included.

* ``langevin_form`` evolves the convolution formulation
      dPhi/dt = A Q + B (g * dQ/dt) + w(t),   g(t) = exp(-t/tau),
  realizing the exponential-memory convolution exactly through one auxiliary
  state per node instead of quadrature.

  Both right-hand sides are one flow matrix times the state, less the junction
  forces (``_flow_rhs``), which one ``junction_kernel`` bound per run writes
  into a held vector; RK4 steps either in five stage buffers made once per
  run and writes each state straight into its output row, so a stage
  allocates nothing. ``StateSpace`` builds every lumped flow but the
  Langevin one, and exp(At) by a numpy scaling-and-squaring kernel (``_expm``;
  Higham, SIAM J. Matrix Anal. Appl. 26, 2005), so no module here needs scipy.

* ``ladder_oracle`` discretizes the line into n LC sections and integrates
  the closed Hamiltonian system with symplectic leapfrog; with the far end
  open and the no-echo time window it is an independent oracle for the
  reduced model. Each output sample, its energy included, is read off the
  leapfrog kernel's own buffers, which it builds once per run; it allocates
  nothing per substep. Every view a substep writes starts a 64-byte cache
  line (``_cache_aligned``): numpy's vector loops run about twice as slow on
  an output that starts mid-line, and malloc only promises 16 bytes, so an
  unaligned run's time would hang on where the heap happened to place it.
  The N-step map that the commutator check certifies comes from one
  symmetric eigendecomposition (``LadderSystem.leapfrog_power``).
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalPreconditionError, ValidationError
from .netlist import (CircuitTopology, ReducedModel, _stamp_branches,
                      build_capacitance_matrix, junction_kernel, potential_energy,
                      reduce_ground, stiffness_matrix)
from .signals import Signal, Trajectory, uniform_grid
from .tline import LineInitialState, LineParams

DT_SAFETY_FACTOR = 20.0
MIN_LADDER_SECTIONS = 100
#: most ladder sections: 10^6 keeps a run's O(n_sections) arrays near 8 MB each
MAX_LADDER_SECTIONS = 10 ** 6
#: the ladder's leapfrog step as a fraction of its CFL bound
LADDER_COURANT = 0.5
#: largest relative energy drift a ladder run may show
LADDER_ENERGY_DRIFT_TOL = 0.01
#: the [13/13] Pade approximant's numerator coefficients b_0..b_13, and the
#: largest 1-norm of A at which it gives exp(A) to double precision (Higham 2005)
PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
THETA_13 = 5.371920351148152
#: columns per block of the sourced scan's passes (``_propagate_affine``), a
#: choice of speed alone: every block size gives the same bits. A 20001-column
#: scan at d = 7 took about 5 ms at 1024 and 1.8 ms at 4096 (one BLAS thread,
#: 2-vCPU AVX-512 Xeon VM); its one buffer then holds d x 4097 floats.
SCAN_BLOCK = 4096
#: bytes per cache line, the alignment of the leapfrog kernel's written views
CACHE_LINE = 64


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


def _cache_aligned(shape, fill=None, at=0):
    """A float64 array of ``shape``, set to ``fill`` if given, whose row
    ``at`` (element ``at`` of a 1-D array) starts a CACHE_LINE-byte line.
    It is cut from one byte buffer CACHE_LINE bytes longer than the array,
    so nothing is copied and only those bytes are kept beyond it."""
    shape = tuple(np.atleast_1d(shape))
    size, row = math.prod(shape), 8 * math.prod(shape[1:])
    raw = np.empty(8 * size + CACHE_LINE, dtype=np.uint8)
    start = -(raw.ctypes.data + at * row) % CACHE_LINE
    out = raw[start:start + 8 * size].view(np.float64).reshape(shape)
    if fill is not None:
        out[...] = fill
    return out


def _as_gradient(grad_u, n):
    """grad U as (linear stiffness K, the topology if it has junctions else
    None, the stiffness that bounds dt: K plus each junction's E_J/phi0^2
    stamped as an inductor) from a ``CircuitTopology`` or an n x n K, nothing
    else. A circuit whose K or bound is not finite is refused before any step."""
    junctions = None
    if isinstance(grad_u, CircuitTopology):
        with np.errstate(over="ignore"):  # refused below if not finite
            k = stiffness_matrix(replace(grad_u, junctions=()))  # the linear inductors
            bound = k + _stamp_branches(len(k) + 1, [(i, j, e_j / phi0 / phi0) for i, j, e_j,
                                                     phi0 in grad_u.junctions])[:-1, :-1]
        for stiffness, units, m in (("inductor stiffness 1/L", "inductance", k),
                                    ("junction stiffness E_J/phi0^2", "junction", bound)):
            if not np.isfinite(m).all():
                raise NumericalPreconditionError(
                    f"{stiffness} is not finite; rescale the {units} units")
        junctions = None if grad_u.is_linear else grad_u
    else:
        try:
            k = bound = np.asarray(grad_u, dtype=float)
        except (TypeError, ValueError):  # not numbers: a callable, say
            k = np.empty(0)
    if k.shape != (n, n):
        raise ValidationError(f"grad_u must be a CircuitTopology or a {n}x{n} stiffness matrix")
    return k, junctions, bound


@dataclass
class ReducedRhs:
    """Autonomous part f(y) = flow_matrix @ y less the junction forces on the
    q rows of the reduced equations on the packed state y = [phi, q, q0],
    whose q0 row takes the input e0/Z_c; ``assemble_rhs`` is its constructor.
    ``grad_u`` is a ``CircuitTopology`` (inductor stiffness K in the flow;
    ``junctions``, the topology if it has any) or a stiffness matrix K.
    Without junctions the exact expm stepper applies."""

    model: ReducedModel
    grad_u: CircuitTopology | np.ndarray
    e0: Signal | None = None
    junctions: CircuitTopology | None = field(init=False)
    bound_stiffness: np.ndarray = field(init=False)  # see _as_gradient
    flow_matrix: np.ndarray = field(init=False)
    _rhs: Callable = field(init=False, repr=False, compare=False)  # see _flow_rhs

    def __post_init__(self):
        n = self.model.n_nodes
        k, self.junctions, self.bound_stiffness = _as_gradient(self.grad_u, n)
        self.flow_matrix = StateSpace.reduced(self.model, k).a
        self._rhs = _flow_rhs(self.flow_matrix, self.junctions, n, 1)

    @property
    def is_linear(self) -> bool:
        return self.junctions is None

    def __call__(self, y, out=None):
        """f(y), written into ``out`` if given (see ``_flow_rhs``)."""
        return self._rhs(y, out)


def _flow_rhs(flow, junctions, n, blocks):
    """f(y, out=None) = flow @ y less the junction forces at phi = y[:n] on
    each of the ``blocks`` blocks of n rows from row n on, by one
    ``junction_kernel`` bound here; ``out``, if given, is a C-contiguous
    float64 array of y's length that f writes and returns. The kernel writes
    the forces into a held vector that is 0 on every other row, and f
    subtracts the whole vector: x - 0.0 is x, -0.0 included."""
    if junctions is None:
        return flow.dot
    held = np.zeros(len(flow))
    rows = held[n:n + blocks * n]  # 1-D for one block: numpy fills it faster than a (1, n)
    forces = junction_kernel(junctions, (n,), rows if blocks == 1 else rows.reshape(blocks, n))
    dot, subtract = flow.dot, np.subtract

    def rhs(y, out=None):
        out = dot(y, out)
        forces(y)
        return subtract(out, held, out)
    return rhs


@dataclass(frozen=True)
class StateSpace:
    """A linear flow x' = A x, the one builder of the lumped flow matrices."""

    a: np.ndarray

    @classmethod
    def reduced(cls, model: ReducedModel, stiffness, port_flux: bool = False) -> StateSpace:
        """The reduced equations (module docstring) on (Phi, Q, Q0) with dU/dPhi =
        K Phi, K = ``stiffness``; ``port_flux`` inserts Phi0 after Phi: the row
        dPhi0/dt = V0 = p.Q + Q0/C_p and a zero column, as no row reads Phi0."""
        n = model.n_nodes
        a = np.zeros((2 * n + 1, 2 * n + 1))
        a[:n, n:2 * n] = model.cb_inv
        a[:n, 2 * n] = model.p
        a[n:2 * n, :n] = -np.asarray(stiffness, dtype=float)
        a[2 * n, n:2 * n] = -model.p / model.z_c
        a[2 * n, 2 * n] = -1.0 / model.tau
        if port_flux:
            a = np.insert(np.insert(a, n, 0.0, axis=1), n,
                          np.r_[np.zeros(n + 1), model.p, 1.0 / model.c_p], axis=0)
        return cls(a)

    @classmethod
    def closed(cls, mass, stiffness) -> StateSpace:
        """The closed Hamiltonian flow q' = M^-1 p, p' = -K q on (q, p)."""
        d = len(mass)
        a = np.zeros((2 * d, 2 * d))
        a[:d, d:] = np.linalg.inv(mass)
        a[d:, :d] = -np.asarray(stiffness, dtype=float)
        return cls(a)

    def propagator(self, t: float) -> np.ndarray:
        """exp(A t) by scaling and squaring (``_expm``)."""
        return _expm(self.a * t)


def _expm(a):
    """exp(A) by scaling and squaring with one Pade degree (N. J. Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179, 2005): A scaled exactly by 2^-s to a 1-norm of
    at most THETA_13, the [13/13] approximant (V - U)^-1 (V + U), with U odd and
    V even in A, taken as I + 2 (V - U)^-1 U, then squared s times. That form
    rounds a small A's exp(A) to within an ulp, and a zero A's to I exactly."""
    mantissa, s = math.frexp(np.linalg.norm(a, 1) / THETA_13)
    s = max(0, s - (mantissa == 0.5))  # the least s with 2^s >= ||A||_1 / THETA_13
    a = np.ldexp(a, -s)
    b = PADE_13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


assemble_rhs = ReducedRhs


def _lti_step_operators(m, dt):
    """Exact step operators for u' = M u + b(t), b piecewise linear: u1 = E u0 +
    F b0 + G (b1 - b0), off the dt-propagator of [[M, I, 0], [0, 0, I], [0, 0, 0]]."""
    d = m.shape[0]
    w = np.zeros((3 * d, 3 * d))
    w[:d, :d] = m
    w[:2 * d, d:] = np.eye(2 * d)
    ew = StateSpace(w).propagator(dt)
    return ew[:d, :d], ew[:d, d:2 * d], ew[:d, 2 * d:] / dt


def _column_blocks(first, stop):
    """(start, stop) of the blocks of columns first..stop-1, right to left, at
    most SCAN_BLOCK wide; a lone column left over joins its neighbour, so a
    block is one column wide only where all of them are (numpy takes a
    one-column product through another BLAS call)."""
    while stop > first:
        start = stop - SCAN_BLOCK if stop - SCAN_BLOCK > first + 1 else first
        yield start, stop
        stop = start


def _propagate_affine(flow, source, u0, dt, count):
    """``count`` columns u_k of u_{k+1} = E u_k + F b_k + G (b_{k+1} - b_k),
    b_k = s_k e_row for ``source`` = (row, samples s), by a doubling scan:
    column k starts as step k's input term (u0 for k = 0), and each pass at
    shift s = 1, 2, 4, ... adds E^s times the column s to its left.

    The input terms are outer products of column ``row`` of F - G and of G
    with the samples; +0.0 turns their -0 into the +0 of a matrix product
    over zero rows. Each pass goes through the columns in blocks, right to
    left, by way of one d x (SCAN_BLOCK + 1) buffer, so no block reads a
    column that the pass has already updated."""
    e_step, f_op, g_op = _lti_step_operators(flow, dt)
    us = np.empty((len(u0), count))
    buf = np.empty((len(u0), min(SCAN_BLOCK + 1, count)))
    us[:, 0] = u0
    row, samples = source
    np.multiply.outer(f_op[:, row] - g_op[:, row], samples[:-1], out=us[:, 1:])
    us[:, 1:] += 0.0
    for start, stop in _column_blocks(1, count):
        np.multiply.outer(g_op[:, row], samples[start:stop], out=buf[:, :stop - start])
        us[:, start:stop] += buf[:, :stop - start]
    shift = 1
    while shift < count:
        for start, stop in _column_blocks(shift, count):
            part = buf[:, :stop - start]
            np.matmul(e_step, us[:, start - shift:stop - shift], out=part)
            us[:, start:stop] += part
        e_step = e_step @ e_step
        shift *= 2
    return us


def _rk4(f, source, y0, t_grid):
    """Classic RK4 for y' = f(y) + b(t), b = s(t) e_row for ``source`` = (row,
    samples s) and linear between the samples; the columns from the first
    non-finite state on are NaN. f(y, out) writes f(y) into ``out``, as
    ``ReducedRhs`` and ``_flow_rhs`` do.

    The loop adds each stage's input to its row alone and keeps numpy's
    per-call overhead off the 2n+1-element stage arithmetic: the stages and
    their argument live in five buffers made once, each state is written
    straight into its output row, the step factors are 0-d arrays, which
    numpy takes without the conversion a Python float costs, and 2 k is
    k + k; the bits are those of y + (k1 + (k2 + k2) + (k3 + k3) + k4) * sixth."""
    dt = t_grid[1] - t_grid[0]
    half, step, sixth = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)
    row, samples = source
    s, s_mid = samples.tolist(), (0.5 * (samples[:-1] + samples[1:])).tolist()
    out = np.empty((len(t_grid), len(y0)))
    out[0] = y0
    stages = np.empty((5, len(y0)))
    k1, k2, k3, k4, arg = stages
    doubled = stages[1:3]  # k2 and k3
    add, multiply, isfinite = np.add, np.multiply, math.isfinite
    y = out[0]
    for k in range(len(t_grid) - 1):
        f(y, k1)
        k1[row] += s[k]
        f(add(y, multiply(k1, half, arg), arg), k2)
        k2[row] += s_mid[k]
        f(add(y, multiply(k2, half, arg), arg), k3)
        k3[row] += s_mid[k]
        f(add(y, multiply(k3, step, arg), arg), k4)
        k4[row] += s[k + 1]
        add(doubled, doubled, doubled)
        add(k1, k2, k1)
        add(k1, k3, k1)
        add(k1, k4, k1)
        y = add(y, multiply(k1, sixth, k1), out[k + 1])
        # y.y is finite only if y is; an overflowing y.y asks the full check
        if not (isfinite(y.dot(y)) or np.isfinite(y).all()):
            out[k + 1:] = np.nan
            break
    return out.T


def _evolve(model: ReducedModel, stiffness, flow, f, linear, source, y0, t_grid, method):
    """Integrate y' = f(y) + b(t) on ``t_grid``, b = s(t) e_row for ``source`` =
    (row, samples s on the grid), None taken as zero samples, by 'expm' on
    ``flow`` when f is ``linear`` (f(y) = flow @ y) or 'rk4' on f (``_rk4``);
    'auto' takes 'expm' when it can; ``stiffness`` (``_as_gradient``'s bound)
    bounds dt in a warning. Returns the columns and method."""
    dt = t_grid[1] - t_grid[0]
    if method == "auto":
        method = "expm" if linear else "rk4"
    if method not in ("expm", "rk4"):
        raise ValidationError(f"unknown integration method {method!r}")
    if method == "expm" and not linear:
        raise ValidationError("matrix-exponential stepper requires a linear circuit")
    source = source or (0, np.zeros(len(t_grid)))
    # warn where accuracy depends on dt: all but the exact homogeneous stepper
    if method != "expm" or source[1].any():
        # a root of each norm: their product may overflow or underflow to 0
        omega_max = (np.sqrt(np.linalg.norm(model.cb_inv, 2))
                     * np.sqrt(max(np.linalg.norm(stiffness, 2), 1e-300)))
        limit = min(model.tau, 1.0 / omega_max) / DT_SAFETY_FACTOR
        if dt > limit:
            warnings.warn(f"dt={dt:.3g} does not resolve the fastest scale; "
                          f"recommended dt <= {limit:.3g}", stacklevel=3)
    with np.errstate(over="ignore", invalid="ignore"):  # every column is checked below
        ys = (_propagate_affine(flow, source, y0, dt, len(t_grid)) if method == "expm"
              else _rk4(f, source, y0, t_grid))
    bad = ~np.isfinite(ys).all(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        fix = f"the initial state (size {np.abs(y0).max():.3g})"
        if method == "rk4":  # the exact expm scan has no step error to blame
            fix = f"{fix} or dt" if k <= 1 else "dt"
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
    source = None if rhs.e0 is None else (2 * n, rhs.e0(t_grid) / model.z_c)
    ys, method = _evolve(model, rhs.bound_stiffness, rhs.flow_matrix, rhs, rhs.is_linear,
                         source, initial.packed(), t_grid, method)
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
    stiffness, junctions, bound_stiffness = _as_gradient(grad_u, n)
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

    rhs = _flow_rhs(flow, junctions, n, 2)
    source = None if e0 is None else (3 * n, e0(t_grid) / model.tau)
    ys, method = _evolve(model, bound_stiffness, flow, rhs, junctions is None, source, y0,
                         t_grid, method)
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
        if not MIN_LADDER_SECTIONS <= n_sections <= MAX_LADDER_SECTIONS:
            raise ValidationError(f"ladder oracle needs n_sections in [{MIN_LADDER_SECTIONS}, "
                                  f"{MAX_LADDER_SECTIONS}], got {n_sections}")
        if length <= 0:
            raise ValidationError("ladder length must be positive")
        self.topology = topology
        self.line = line
        self.n_sections = int(n_sections)
        self.length = float(length)
        self.dx = self.length / self.n_sections
        if not (self.dx / line.v_p > 0.0 and line.ell * self.dx > 0.0):
            shortest = math.sqrt(np.finfo(float).tiny) * line.v_p  # dx/v_p squares to normal
            raise NumericalPreconditionError(
                f"ladder sections of length {self.length:.3g} / {self.n_sections} underflow to "
                f"{self.dx:.3g}, below the {shortest:.3g} whose leapfrog step dx/v_p squares to a "
                f"normal float64; lengthen the line (--length, which --t-max sets by default) "
                f"to at least {self.n_sections * shortest:.3g}")
        self.n_circ = topology.node_count

        cb = reduce_ground(build_capacitance_matrix(topology), topology.ground)
        self.cb = cb
        c_c = topology.coupling_capacitance
        n = self.n_circ
        cells = np.full(self.n_sections + 1, line.c_per_len * self.dx)
        cells[0] *= 0.5
        cells[-1] *= 0.5
        self.cells = cells
        with np.errstate(over="ignore"):  # refused below if not finite
            head = _stamp_branches(n + 1, [(1, n + 1, c_c)])  # C_c: node 1 to line node 0
            head[:n, :n] += cb
            head[n, n] += cells[0]
        self._head = head
        try:
            l_head = np.linalg.cholesky(head)  # head = L L^T
        except np.linalg.LinAlgError:
            l_head = np.full_like(head, np.nan)
        if not np.isfinite(l_head).all():
            raise NumericalPreconditionError(
                f"ladder mass matrix is not positive definite in float64: capacitances up "
                f"to {np.abs(head).max():.3g} against a first ladder cell of {cells[0]:.3g}; "
                "lower the circuit capacitances or lengthen the ladder's sections")
        self._head_l_inv = np.linalg.inv(l_head)
        self._head_inv = self._head_l_inv.T @ self._head_l_inv
        self._k_line = 1.0 / (line.ell * self.dx)
        self._k_circ = _as_gradient(topology, n)[0]
        self.dim = n + 1 + self.n_sections

    # -- Hamiltonian structure ------------------------------------------------
    # grad_potential, velocities, momenta, drift_kick and leapfrog_step also
    # act on (dim, B) stacks

    def grad_potential(self, q):
        """Potential gradient dU/dq; line node j gets k_line (d_{j-1} - d_j),
        d_j = phi_{j+1} - phi_j."""
        n = self.n_circ
        out = np.empty_like(q)
        np.matmul(self._k_circ, q[:n], out=out[:n])
        if not self.topology.is_linear:
            out[:n] += junction_kernel(self.topology, q[:n].shape)(q[:n])
        line = out[n:]
        np.subtract(q[n + 1:], q[n:-1], out=line[1:])
        np.negative(line[1:2], out=line[:1])
        np.subtract(line[1:-1], line[2:], out=line[1:-1])
        line *= self._k_line
        return out

    def velocities(self, p):
        """Inverse mass action M^-1 p: the precomputed head inverse on the
        circuit nodes and line node 0, one cell division per line node."""
        n = self.n_circ
        out = np.empty_like(p)
        np.matmul(self._head_inv, p[:n + 1], out=out[:n + 1])
        np.divide(p[n + 1:].T, self.cells[1:], out=out[n + 1:].T)
        return out

    def momenta(self, v):
        """Mass action M v: the head block on the circuit nodes and line
        node 0, one cell multiply per line node."""
        n = self.n_circ
        out = np.empty_like(v)
        np.matmul(self._head, v[:n + 1], out=out[:n + 1])
        np.multiply(v[n + 1:].T, self.cells[1:], out=out[n + 1:].T)
        return out

    def potential(self, q):
        n = self.n_circ
        u_circ = potential_energy(self.topology, q[:n])
        return u_circ + 0.5 * self._k_line * np.sum(np.diff(q[n:]) ** 2)

    def hamiltonian(self, q, p):
        return 0.5 * float(p @ self.velocities(p)) + self.potential(q)

    def drift_kick(self, q, u, dt, acc):
        """The leapfrog substep loop on the arrays q, u and acc, in
        displacement form: ``loop(steps)`` runs ``steps`` substeps in place,
        each the drift q += u, then the kick u -= acc with acc = dt^2 M^-1
        grad U(q), u being the step displacement dt M^-1 p at the half step.
        ``acc`` is left holding the last kick. ``loop`` returns d =
        diff(q_line) at the final q, its own buffer, which its next call
        overwrites.

        Line node j gets dt^2 k_line / cell_j (d_{j-1} - d_j), d_ns = 0 past
        the far node; the head block dt^2 head_inv @ [K q_circ + forces;
        -k_line d_0] is A @ q[:n+2] with K folded into A, plus the junction
        forces, if any, through A's head_inv part: one ``junction_kernel``
        writes them into its held array and the product goes into another.
        A, the kernel, the line factors, d and the views of q, u and acc are
        built here, once, so the loop allocates nothing state-sized; the
        system keeps none of them. d and the line factors start a cache line
        (``_cache_aligned``); the loop is fastest when the caller's q and u
        do at element 0 and acc at element n + 1, the start of the kick's
        line output acc[n + 1:], as ``ladder_oracle`` allocates them. Layout
        never changes a bit of the result.
        """
        n = self.n_circ
        head = dt * dt * self._head_inv
        head[:, n] *= -self._k_line
        fold = np.empty((n + 1, n + 2))
        np.matmul(head[:, :n], self._k_circ, out=fold[:, :n])
        fold[:, n], fold[:, n + 1] = -head[:, n], head[:, n]
        force_dot = np.ascontiguousarray(head[:, :n]).dot  # dt^2 head_inv on the forces
        line_inv = np.divide(dt * dt * self._k_line, self.cells[1:],
                             out=_cache_aligned(self.n_sections))
        line_inv = line_inv.reshape((-1,) + (1,) * (q.ndim - 1))
        diff = _cache_aligned((self.n_sections + 1,) + q.shape[1:], 0.0)
        d, d_next = diff[:-1], diff[1:]
        q_circ, q_head, q_line, q_next = q[:n], q[:n + 2], q[n:-1], q[n + 1:]
        acc_head, acc_line = acc[:n + 1], acc[n + 1:]
        forces = None if self.topology.is_linear else junction_kernel(self.topology, q_circ.shape)
        kick_head = np.empty(acc_head.shape)  # the junction forces' part of the head kick
        add, subtract, multiply, dot = np.add, np.subtract, np.multiply, fold.dot

        def loop(steps):  # in-place ufuncs: an augmented assignment would rebind
            for _ in range(steps):
                add(q, u, q)
                dot(q_head, acc_head)
                if forces is not None:
                    force_dot(forces(q_circ), kick_head)
                    add(acc_head, kick_head, acc_head)
                subtract(q_next, q_line, d)
                subtract(d, d_next, acc_line)
                multiply(acc_line, line_inv, acc_line)
                subtract(u, acc, u)
            return d
        return loop

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
        self.drift_kick(q, u, dt, acc)(steps)
        p = self.momenta(u + 0.5 * acc)  # the last kick undone by half
        p /= dt
        return q, p, self.grad_potential(q)

    def one_step_matrix(self, dt: float) -> np.ndarray:
        """Linear map of one leapfrog step on the stacked state [q, p]: the
        step applied to the identity columns."""
        if not self.topology.is_linear:
            raise ValidationError("one-step matrix requires a linear circuit")
        s = np.eye(2 * self.dim)
        q, p = s[:self.dim], s[self.dim:]
        s[:self.dim], s[self.dim:], _ = self.leapfrog_step(q, p, self.grad_potential(q), dt)
        return s

    def leapfrog_power(self, dt: float, steps: int) -> np.ndarray:
        """``one_step_matrix(dt)`` to the power ``steps`` on the stacked state
        [q, p]; a negative ``steps`` gives the backward map, the leapfrog
        with -dt, and 0 the exact identity.

        All from one symmetric eigendecomposition L^-1 K L^-T = Q diag(lam) Q^T,
        M = L L^T, whose modes V = L^-T Q and W = M V = L Q have V W^T = I.
        Leapfrog turns mode k by theta_k = 2 arcsin(dt sqrt(lam_k) / 2) a step:
            S^N = [[I + V C W^T, dt V diag(sin N theta / sin theta) V^T],
                   [W diag(-sin N theta sin theta / dt) W^T, I + W C V^T]]
        with C = diag(-2 sin^2(N theta / 2)), cos N theta - 1 without the
        cancellation. lam is clipped at 0, so the free line-shift mode gets
        theta = 0 and sin N theta / sin theta its limit N.
        """
        if not self.topology.is_linear:
            raise ValidationError("leapfrog power requires a linear circuit "
                                  "(Josephson junctions present)")
        dim, n, l_inv = self.dim, self.n_circ, self._head_l_inv
        if steps == 0:
            return np.eye(2 * dim)
        if steps < 0:
            dt, steps = -dt, -steps
        # in-place transforms and S allocated after eigh: S and two dim x dim
        # arrays at most live at a time (V and V scaled, V and W, W and W scaled)
        root = np.sqrt(self.cells[1:])[:, None]
        a = self.grad_potential(np.eye(dim))  # K, then L^-1 K L^-T
        a[:n + 1] = l_inv @ a[:n + 1]
        np.divide(a[n + 1:], root, out=a[n + 1:])
        a[:, :n + 1] = a[:, :n + 1] @ l_inv.T
        np.divide(a[:, n + 1:], root.T, out=a[:, n + 1:])
        lam, v = np.linalg.eigh(a)  # the modes Q, then V = L^-T Q
        del a
        half = 0.5 * abs(dt) * np.sqrt(np.maximum(lam, 0.0))
        if not half.max() < 1.0:
            raise ValidationError(f"leapfrog unstable: dt={abs(dt):g} exceeds the "
                                  f"stability bound {2.0 / np.sqrt(lam.max()):g}")
        v[:n + 1] = l_inv.T @ v[:n + 1]
        np.divide(v[n + 1:], root, out=v[n + 1:])
        theta = 2.0 * np.arcsin(half)
        sin_t, sin_nt = np.sin(theta), np.sin(steps * theta)
        ratio = np.divide(sin_nt, sin_t, out=np.full(dim, float(steps)), where=sin_t != 0.0)
        s = np.empty((2 * dim, 2 * dim))
        np.matmul(v * (dt * ratio), v.T, out=s[:dim, dim:])
        w = self.momenta(v)
        corner = s[:dim, :dim]
        v *= -2.0 * np.sin(0.5 * steps * theta) ** 2  # V C; V is not needed again
        np.matmul(v, w.T, out=corner)
        corner += 0.0  # I + V C W^T reads +0 off the diagonal where the product has -0
        corner[np.diag_indices(dim)] += 1.0
        s[dim:, dim:] = corner.T
        np.matmul(np.multiply(w, -sin_nt * sin_t / dt, out=v), w.T, out=s[dim:, :dim])
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


def _check_dt_squared(dt, substeps):
    """Refuse a ladder step whose square is not a normal float64: the kick
    factors scale with dt^2 and the energy divides by it, so a step that
    squares to a subnormal or 0 (or to inf) breaks both, and more sections
    only shorten it. The step is t_max / ``substeps``, a count that scaling
    the time axis (t_max, and the line length with it) leaves alone, so the
    message names the power of ten to take t_max to."""
    info = np.finfo(float)
    if info.tiny <= dt * dt <= info.max:
        return
    if dt * dt < info.tiny:
        low = math.sqrt(info.tiny)
        raise NumericalPreconditionError(
            f"ladder step dt={dt:.3g} squares below the smallest normal float64, which "
            f"needs dt >= {low:.3g}; raise t_max (--t-max) to "
            f"1e{math.ceil(math.log10(substeps * low))} or more")
    high = math.sqrt(info.max)
    raise NumericalPreconditionError(
        f"ladder step dt={dt:.3g} squares beyond the largest float64, which needs "
        f"dt <= {high:.3g}; lower t_max (--t-max) to "
        f"1e{math.floor(math.log10(substeps * high))} or less")


def ladder_oracle(line: LineParams, n_sections: int, length: float,
                  topology: CircuitTopology, initial: ReducedState, t_grid,
                  line_initial: LineInitialState | None = None,
                  dt: float | None = None) -> Trajectory:
    """Leapfrog the closed ladder+circuit system; return circuit observables.

    The requested window must satisfy the no-echo condition
    t_max < 2 length / v_p so that the open far end never influences x = 0.
    ``dt`` defaults to LADDER_COURANT of the CFL step dx/v_p, which n_sections sets.
    """
    t_grid, dt_out = uniform_grid(t_grid)
    t_max = float(t_grid[-1])
    if t_max >= 2.0 * length / line.v_p:
        needed = line.v_p * t_max / 2.0
        raise NumericalPreconditionError(
            f"echo window violated: t_max={t_max:g} needs line length > {needed:g} "
            f"(have {length:g})")
    system = LadderSystem(topology, line, n_sections, length)
    fix = "raise n_sections (--n-sections)" if dt is None else "lower dt"
    if dt is None:
        dt = LADDER_COURANT * system.cfl_dt()
    n_sub = max(1, int(np.ceil(dt_out / dt - 1e-12)))
    dt = dt_out / n_sub
    if dt > system.cfl_dt():
        raise NumericalPreconditionError(
            f"leapfrog unstable: dt={dt:g} exceeds CFL bound {system.cfl_dt():g}; "
            "decrease dt or the output spacing")
    n_out = len(t_grid)
    _check_dt_squared(dt, n_sub * (n_out - 1))

    q, p = system.initial_state(initial, line_initial)
    n = system.n_circ
    head, cells = system._head, system.cells
    # per sample k >= 1, the loop keeps the node fluxes, the head of
    # w = dt M^-1 p and the two line sums of the energy; the rest is read
    # off them for all samples at once below
    phi_out = np.empty((n_out, n))
    w_heads = np.empty((n_out, n + 1))
    d_d, cells_w_w = np.empty(n_out), np.empty(n_out)
    energy = np.empty(n_out)

    # every state the loop makes is checked through its energy below
    with np.errstate(over="ignore", invalid="ignore"):
        energy[0] = system.hamiltonian(q, p)
        if not np.isfinite(energy[0]):
            raise NumericalPreconditionError(
                "ladder integration diverged; reduce the initial state: "
                "its energy is not finite")
        # the kernel's buffers, each written view on a cache line (see drift_kick)
        u = np.multiply(dt, system.velocities(p - (0.5 * dt) * system.grad_potential(q)),
                        out=_cache_aligned(system.dim))
        q = _cache_aligned(system.dim, q)
        acc, w = _cache_aligned(system.dim, at=n + 1), _cache_aligned(system.dim)
        q_circ, w_head, w_line = q[:n], w[:n + 1], w[n + 1:]
        cells_line, cells_w = cells[1:], _cache_aligned(system.n_sections)
        half = np.array(0.5)  # a 0-d factor skips numpy's conversion of a float
        kick = system.drift_kick(q, u, dt, acc)
        phi_out[0] = q_circ
        for k in range(1, n_out):
            d = kick(n_sub)
            np.multiply(acc, half, out=w)
            w += u  # dt M^-1 p: the last kick undone by half
            np.multiply(cells_line, w_line, out=cells_w)
            d_d[k], cells_w_w[k] = d.dot(d), cells_w.dot(w_line)
            phi_out[k], w_heads[k] = q_circ, w_head
        # np.matmul on a stack makes the BLAS call of a one-row product on
        # each row, so every value has that product's bits
        p_head = np.empty((n_out, n + 1))
        p_head[0] = p[:n + 1]
        p_head[1:] = np.matmul(head, w_heads[1:, :, None])[:, :, 0]
        p_head[1:] /= dt
        p_w = np.matmul(p_head[1:, None, :], w_heads[1:, :, None])[:, 0, 0]
        energy[1:] = potential_energy(topology, phi_out[1:]) + 0.5 * (
            system._k_line * d_d[1:] + p_w / dt + cells_w_w[1:] / (dt * dt))
        v0_out = np.matmul(system._head_inv, p_head[:, :, None])[:, n, 0]
        q0_out = p_head[:, n] - cells[0] * v0_out
    if not np.all(np.isfinite(energy)):
        raise NumericalPreconditionError(f"ladder integration diverged; {fix}")
    scale = max(abs(energy[0]), abs(energy).max() * 1e-12, 1e-300)
    drift = float(np.abs(energy - energy[0]).max() / scale)
    if drift > LADDER_ENERGY_DRIFT_TOL:
        raise NumericalPreconditionError(
            f"ladder energy drift {drift:.3g} exceeds {LADDER_ENERGY_DRIFT_TOL:.3g}; {fix}")
    return Trajectory(t_grid=t_grid, phi=phi_out, q=p_head[:, :n], q0=q0_out, v0=v0_out,
                      meta={"integrator": "leapfrog", "dt": float(dt),
                            "substeps": n_sub * (n_out - 1),
                            "n_sections": n_sections, "dx": system.dx,
                            "energy_drift": drift, "energy0": float(energy[0])})
