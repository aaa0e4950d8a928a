"""Lumped-circuit description and its reduction to the one-port form.

The circuit has N internal nodes labeled 1..N, ground N+1, and couples to the
transmission line's end node 0 through a single capacitor C_c (fixed by
convention between nodes 0 and 1). Only capacitors, linear inductors, and
Josephson junctions are supported, and every internal node must be active:
at least one capacitor and one inductive element incident.

Reduction produces the quantities the reduced dynamics needs: the grounded
capacitance matrix Cb, its inverse, the coupling row p (first row of Cb^-1,
so that Cb @ p equals the first unit vector), the series capacitance C_p with
1/C_p = 1/C_c + p_1, the split Cb^-1 = A + B with B = C_p p p^T, and the
port time constant tau = Z_c * C_p.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NetlistParseError, NumericalPreconditionError, ValidationError

# SI-2019 elementary charge [C] and reduced Planck constant h/2pi [J s]
_e_charge, _hbar = 1.602176634e-19, 1.0545718176461565e-34
#: default junction flux scale, the reduced flux quantum hbar/2e in weber
PHI0_JOSEPHSON = _hbar / (2.0 * _e_charge)

CONDITION_WARNING_THRESHOLD = 1e12

#: netlist letter -> CircuitTopology field, line syntax, value names, and the
#: defaults of the trailing values a branch may omit (a junction's flux scale)
ELEMENT_KINDS = {
    "C": ("capacitors", "i j value", ("capacitance",), ()),
    "L": ("inductors", "i j value", ("inductance",), ()),
    "J": ("junctions", "i j E_J [phi0]", ("junction energy", "flux scale"), (PHI0_JOSEPHSON,)),
}


@dataclass(frozen=True)
class CircuitTopology:
    """Node/branch description of the lumped circuit plus its line coupling.

    capacitors/inductors are (i, j, value) with node indices in 1..N+1
    (N+1 = ground); junctions are (i, j, josephson_energy[, flux_scale]).
    Node 0 never appears in branch lists: it couples only through
    ``coupling_capacitance``.
    """

    node_count: int
    capacitors: tuple = ()
    inductors: tuple = ()
    junctions: tuple = ()
    coupling_capacitance: float = 0.0

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise ValidationError("circuit needs at least one internal node")
        if not (0.0 < self.coupling_capacitance < math.inf):
            raise ValidationError("coupling capacitance C_c must be positive and finite, "
                                  f"got {self.coupling_capacitance!r}")
        for field_name, spec, names, defaults in ELEMENT_KINDS.values():
            kind = field_name[:-1]  # "capacitors" -> "capacitor"
            least = len(names) - len(defaults)
            branches = []
            for branch in getattr(self, field_name):
                if not least + 2 <= len(branch) <= len(names) + 2:
                    counts = " or ".join(map(str, range(least, len(names) + 1)))
                    raise ValidationError(
                        f"{kind} {tuple(branch)!r} needs its two nodes and {counts} "
                        f"value{'s' * (len(names) > 1)} ({spec})")
                i, j, *values = branch
                # the values left out take the trailing defaults
                values += defaults[len(values) - least:]
                self._check_branch(i, j, kind)
                for name, value in zip(names, values, strict=True):
                    if not (0.0 < value < math.inf):
                        raise ValidationError(
                            f"{name} must be positive and finite, got {value!r}")
                branches.append((i, j, *values))
            object.__setattr__(self, field_name, tuple(branches))

    def _check_branch(self, i, j, kind):
        n = self.node_count
        for node in (i, j):
            if node == 0:
                raise ValidationError(
                    f"{kind} may not reference node 0; the line couples only through C_c")
            if not (1 <= node <= n + 1):
                raise ValidationError(f"{kind} node {node} outside 1..{n + 1}")
        if i == j:
            raise ValidationError(f"{kind} connects node {i} to itself")

    @property
    def ground(self) -> int:
        return self.node_count + 1

    def validate_active(self):
        """Check the active-node assumption: every internal node carries at
        least one capacitor and one inductive element."""
        n = self.node_count
        has_cap = np.diag(build_capacitance_matrix(self))[:n] > 0
        inductive = [(i, j, 1.0) for i, j, *_ in self.inductors + self.junctions]
        has_ind = np.diag(_stamp_branches(n + 1, inductive))[:n] > 0
        if not (has_cap & has_ind).all():
            node = int(np.argmin(has_cap & has_ind))
            what = "inductive element" if has_cap[node] else "capacitor"
            raise ValidationError(f"inactive node {node + 1}: no incident {what}")

    @property
    def is_linear(self) -> bool:
        return len(self.junctions) == 0


@dataclass(frozen=True)
class ReducedModel:
    """Matrices of the reduced one-port dynamics; see module docstring."""

    cb: np.ndarray
    cb_inv: np.ndarray
    p: np.ndarray
    c_p: float
    a: np.ndarray
    b: np.ndarray
    tau: float
    z_c: float
    coupling_capacitance: float
    warnings: tuple = field(default=())

    @property
    def n_nodes(self) -> int:
        return len(self.p)

    def to_json_dict(self) -> dict:
        return {
            "cb": [float(v) for v in self.cb.ravel()],
            "p": [float(v) for v in self.p],
            "c_p": float(self.c_p),
            "a": [float(v) for v in self.a.ravel()],
            "b": [float(v) for v in self.b.ravel()],
            "tau": float(self.tau),
            "z_c": float(self.z_c),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, d) -> "ReducedModel":
        p = np.asarray(d["p"], dtype=float)
        n = len(p)
        cb = np.asarray(d["cb"], dtype=float).reshape(n, n)
        a = np.asarray(d["a"], dtype=float).reshape(n, n)
        b = np.asarray(d["b"], dtype=float).reshape(n, n)
        c_p = float(d["c_p"])
        tau = float(d["tau"])
        z_c = float(d["z_c"])
        # 1/C_p = 1/C_c + p_1 recovers the coupling capacitor
        c_c = 1.0 / (1.0 / c_p - p[0])
        return cls(cb=cb, cb_inv=a + b, p=p, c_p=c_p, a=a, b=b, tau=tau,
                   z_c=z_c, coupling_capacitance=c_c)

    @classmethod
    def from_json(cls, text) -> "ReducedModel":
        return cls.from_json_dict(json.loads(text))


def _stamp_branches(size, branches) -> np.ndarray:
    """(size x size) matrix over nodes 1..size with each (i, j, w) branch
    stamped in: -w on both off-diagonal entries, +w on both diagonal ones."""
    full = np.zeros((size, size))
    for i, j, w in branches:
        full[i - 1, j - 1] -= w
        full[j - 1, i - 1] -= w
        full[i - 1, i - 1] += w
        full[j - 1, j - 1] += w
    return full


def build_capacitance_matrix(topology: CircuitTopology) -> np.ndarray:
    """(N+1)x(N+1) capacitance matrix over nodes 1..N+1.

    Off-diagonal (r, s) entries are -C_rs (capacitances between the same node
    pair summed); each diagonal entry is the opposite of its row sum, so all
    row sums vanish. The coupling capacitor C_c is not part of this matrix.
    """
    return _stamp_branches(topology.node_count + 1, topology.capacitors)


def reduce_ground(full_matrix, ground_index) -> np.ndarray:
    """Remove the ground node's row and column (``ground_index`` is 1-based)."""
    full_matrix = np.asarray(full_matrix, dtype=float)
    m = full_matrix.shape[0]
    if full_matrix.shape != (m, m):
        raise ValidationError("capacitance matrix must be square")
    if not np.isfinite(full_matrix).all():
        raise NumericalPreconditionError(
            "capacitance matrix is not finite: the capacitances overflow; rescale the units")
    if not np.allclose(full_matrix, full_matrix.T, rtol=1e-12, atol=0.0):
        raise ValidationError("capacitance matrix must be symmetric")
    if not (1 <= ground_index <= m):
        raise ValidationError(f"ground index {ground_index} outside 1..{m}")
    keep = [k for k in range(m) if k != ground_index - 1]
    cb = full_matrix[np.ix_(keep, keep)]
    try:
        np.linalg.cholesky(cb)
    except np.linalg.LinAlgError:
        raise ValidationError(
            "grounded capacitance matrix is singular: inactive node / floating island")
    # rounding can leave the last pivot of a singular Cb positive: every node
    # must also reach ground along the capacitors (nonzero off-diagonals)
    linked = full_matrix != 0
    reached = np.arange(m) == ground_index - 1
    for _ in range(m):
        reached = reached | linked[reached].any(axis=0)
    if not reached.all():
        nodes = ", ".join(str(k + 1) for k in np.flatnonzero(~reached))
        raise ValidationError("grounded capacitance matrix is singular: floating island "
                              f"of nodes {nodes} with no capacitive path to ground")
    return cb


def derive_reduced_model(topology: CircuitTopology, z_c: float) -> ReducedModel:
    """Assemble the reduced one-port model for a line of impedance ``z_c``."""
    if not (z_c > 0):
        raise ValidationError("characteristic impedance must be positive")
    topology.validate_active()
    full = build_capacitance_matrix(topology)
    cb = reduce_ground(full, topology.ground)
    warnings = []
    cond = np.linalg.cond(cb)
    if cond > CONDITION_WARNING_THRESHOLD:
        warnings.append(
            f"grounded capacitance matrix condition number {cond:.3g} exceeds "
            f"{CONDITION_WARNING_THRESHOLD:.3g}; reduced matrices may lose accuracy")
    c_c = topology.coupling_capacitance
    # an overflow here is refused just below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        l_inv = np.linalg.inv(np.linalg.cholesky(cb))
        cb_inv = l_inv.T @ l_inv  # Cb = L L^T; the product is exactly symmetric
        p = cb_inv[0].copy()
        c_p = 1.0 / (1.0 / c_c + p[0])
        b = c_p * np.outer(p, p)
        a = cb_inv - b
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericalPreconditionError(
            "the reduced model overflows: the capacitances are too small for "
            "Cb^-1 and C_p p p^T; rescale the capacitance units")
    tau = z_c * c_p
    if not (np.isfinite(tau) and tau > 0):
        raise NumericalPreconditionError(
            f"tau = Z_c C_p = {tau:g} at Z_c = {z_c:g}, C_p = {c_p:g} is not a "
            "positive finite time; change the line impedance (--z-c)")
    return ReducedModel(cb=cb, cb_inv=cb_inv, p=p, c_p=c_p, a=a, b=b,
                        tau=tau, z_c=z_c, coupling_capacitance=c_c,
                        warnings=tuple(warnings))


def invariant_report(model: ReducedModel) -> dict:
    """Residuals of the defining identities, for validation output."""
    n = model.n_nodes
    e1 = np.zeros(n)
    e1[0] = 1.0
    cb_norm = np.abs(model.cb).max()
    inv_norm = np.abs(model.cb_inv).max()
    return {
        "cb_p_residual": float(np.abs(model.cb @ model.p - e1).max() / cb_norm / np.abs(model.p).max()),
        "c_p_residual": float(abs(1.0 / model.c_p - (1.0 / model.coupling_capacitance + model.p[0]))
                              * model.c_p),
        "a_plus_b_residual": float(np.abs(model.a + model.b - model.cb_inv).max() / inv_norm),
        "tau_residual": float(abs(model.tau - model.z_c * model.c_p) / model.tau),
        "cb_symmetry": float(np.abs(model.cb - model.cb.T).max() / cb_norm),
    }


def _flux_overflow(phi) -> NumericalPreconditionError:
    return NumericalPreconditionError(
        f"a junction flux difference overflows at flux size {np.abs(phi).max():.3g}; "
        "reduce the initial state or dt")


def potential_gradient(topology: CircuitTopology, phi) -> np.ndarray:
    """Gradient of the inductive potential energy with respect to node fluxes.

    The potential sums (phi_i - phi_j)^2 / 2L over linear inductors and
    -E_J cos((phi_i - phi_j)/phi0) over junctions; ground flux is zero.
    """
    phi = np.asarray(phi, dtype=float)
    n = topology.node_count
    if phi.shape != (n,):
        raise ValidationError(f"flux vector must have shape ({n},)")
    if not np.all(np.isfinite(phi)):
        raise ValidationError("flux vector must be finite")

    flux = [*phi.tolist(), 0.0]  # ground carries zero flux
    grad = [0.0] * (n + 1)
    for i, j, l in topology.inductors:
        force = (flux[i - 1] - flux[j - 1]) / l
        grad[i - 1] += force
        grad[j - 1] -= force
    return junction_forces(topology, phi, grad)


def junction_forces(topology: CircuitTopology, phi: np.ndarray, grad=None) -> np.ndarray:
    """Junction part of grad U at the flux vector ``phi`` (shape (N,)), added
    to ``grad``, a list over the nodes and ground, when given; the rest of
    grad U is K phi, K the stiffness matrix of the circuit without junctions."""
    flux = [*phi.tolist(), 0.0]  # ground carries zero flux
    grad = [0.0] * len(flux) if grad is None else grad
    for i, j, ej, phi0 in topology.junctions:
        try:
            force = (ej / phi0) * math.sin((flux[i - 1] - flux[j - 1]) / phi0)
        except ValueError:  # math.sin of a flux difference that overflowed to inf
            raise _flux_overflow(phi) from None
        grad[i - 1] += force
        grad[j - 1] -= force
    return np.array(grad[:-1])


def potential_energy(topology: CircuitTopology, phi) -> float:
    phi = np.asarray(phi, dtype=float)
    flux = [*phi.tolist(), 0.0]  # ground carries zero flux
    u = 0.0
    for i, j, l in topology.inductors:
        try:  # ``** 2`` rounds as numpy's scalar square does; ``d * d`` would not
            u += 0.5 * (flux[i - 1] - flux[j - 1]) ** 2 / l
        except OverflowError:  # a square beyond the float range
            u = math.inf
    for i, j, ej, phi0 in topology.junctions:
        try:
            u -= ej * math.cos((flux[i - 1] - flux[j - 1]) / phi0)
        except ValueError:  # math.cos of a flux difference that overflowed to inf
            raise _flux_overflow(phi) from None
    return u


def stiffness_matrix(topology: CircuitTopology) -> np.ndarray:
    """Inductive stiffness K with grad U = K phi; linear circuits only."""
    if not topology.is_linear:
        raise ValidationError("stiffness matrix requires a linear circuit (no junctions)")
    n = topology.node_count
    full = _stamp_branches(n + 1, [(i, j, 1.0 / l) for i, j, l in topology.inductors])
    # ground (node N+1) has zero flux: drop its row and column
    return full[:n, :n].copy()


def parse_netlist(text: str) -> CircuitTopology:
    """Parse the plain-text netlist format.

    One element per line::

        C i j value      # capacitor [farad]
        L i j value      # inductor [henry]
        J i j E_J [phi0] # junction [joule], flux scale defaults to hbar/2e
        COUPLE value     # coupling capacitor C_c [farad], nodes 0-1
        GROUND auto      # ground = highest node index (or an explicit index)

    '#' starts a comment; blank lines are ignored.
    """
    elements = {field_name: [] for field_name, *_ in ELEMENT_KINDS.values()}
    couple = None
    ground_spec = None
    max_node = 0

    def parse_float(token, line_no, what):
        try:
            value = float(token)
        except ValueError:
            raise NetlistParseError(f"bad {what} {token!r}", line_no)
        if not math.isfinite(value):
            raise NetlistParseError(f"{what} must be finite, got {token!r}", line_no)
        return value

    def parse_node(token, line_no):
        try:
            node = int(token)
        except ValueError:
            raise NetlistParseError(f"bad node index {token!r}", line_no)
        return node

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].upper()
        if kind in ELEMENT_KINDS:
            field_name, syntax, names, defaults = ELEMENT_KINDS[kind]
            if not len(names) - len(defaults) <= len(tokens) - 3 <= len(names):
                raise NetlistParseError(f"{kind} line needs '{syntax}'", line_no)
            i = parse_node(tokens[1], line_no)
            j = parse_node(tokens[2], line_no)
            # a one-value element's value is the "element value" in messages
            values = [parse_float(token, line_no, name if len(names) > 1 else "element value")
                      for token, name in zip(tokens[3:], names)]
            elements[field_name].append((i, j, *values))
            max_node = max(max_node, i, j)
        elif kind == "COUPLE":
            if len(tokens) != 2:
                raise NetlistParseError("COUPLE line needs a single value", line_no)
            couple = parse_float(tokens[1], line_no, "coupling capacitance")
        elif kind == "GROUND":
            if len(tokens) != 2:
                raise NetlistParseError("GROUND line needs 'auto' or a node index", line_no)
            ground_spec = (tokens[1], line_no)
        else:
            raise NetlistParseError(f"unknown element {tokens[0]!r}", line_no)

    if couple is None:
        raise NetlistParseError("missing COUPLE line")
    if max_node < 2:
        raise NetlistParseError("netlist must reference at least nodes 1 and ground")
    if ground_spec is not None and ground_spec[0].lower() != "auto":
        ground = parse_node(ground_spec[0], ground_spec[1])
        if ground != max_node:
            raise NetlistParseError(
                f"ground must be the highest node index ({max_node})", ground_spec[1])
    return CircuitTopology(node_count=max_node - 1, coupling_capacitance=couple,
                           **{name: tuple(branches) for name, branches in elements.items()})


def parse_netlist_file(path) -> CircuitTopology:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise NetlistParseError(f"cannot read netlist file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise NetlistParseError(f"cannot decode netlist file {str(path)!r}: {exc}") from None
    return parse_netlist(text)
