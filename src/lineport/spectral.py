"""Laplace-domain analysis of the capacitively coupled LC example.

With g = C_c/(C_r + C_c), alpha = Z_c/Z_r, and x = s/omega_r, the network's
transfer matrix H(s) has the shared denominator

    p(x) = alpha g x^3 + x^2 + alpha g x + (1 - g)

and entries (column 1 responds to the circuit's initial-condition source,
column 2 to the line source):

    H11 = [alpha g x + 1] / (omega_r^2 p)      H12 = (g/omega_r) x / p
    H21 = -(alpha g/omega_r) / p               H22 = [x^2 + (1-g)] / p

The H12 factor is g, not alpha*g: that is the unique form consistent with
the underlying two-by-two dynamical system (H @ H^-1 = identity holds to
machine precision, and time-domain simulation of the same network agrees
with the inverse transform of these entries).

Roots of p are computed from the companion matrix and polished with one
Newton step. For every (g, alpha) in (0,1) x (0,inf) they lie strictly in
the left half plane (Routh-Hurwitz: a2 a1 - a3 a0 = alpha g^2 > 0).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .signals import write_csv

ENTRY_NAMES = ("h11", "h12", "h21", "h22")

#: |Im| below this (relative to the pole magnitude) counts as a real pole
REAL_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class LcExampleParams:
    """Parallel LC circuit (L_r, C_r) coupled through C_c to a line of
    impedance Z_c, together with all derived dimensionless quantities."""

    l_r: float
    c_r: float
    c_c: float
    z_c: float
    omega_r: float
    z_r: float
    g: float
    alpha: float
    c_p: float
    tau: float

    @classmethod
    def from_physical(cls, l_r, c_r, c_c, z_c) -> "LcExampleParams":
        if min(l_r, c_r, c_c, z_c) <= 0:
            raise ValidationError("LC example parameters must be positive")
        omega_r = 1.0 / np.sqrt(l_r * c_r)
        z_r = np.sqrt(l_r / c_r)
        g = c_c / (c_r + c_c)
        c_p = c_c * c_r / (c_c + c_r)
        return cls(l_r=l_r, c_r=c_r, c_c=c_c, z_c=z_c, omega_r=omega_r,
                   z_r=z_r, g=g, alpha=z_c / z_r, c_p=c_p, tau=z_c * c_p)

    @classmethod
    def from_dimensionless(cls, g, alpha, omega_r=1.0, c_r=1.0) -> "LcExampleParams":
        """Realize (g, alpha, omega_r) with the reference capacitance c_r."""
        if not (0.0 < g < 1.0):
            raise ValidationError("g must lie in (0, 1)")
        if alpha <= 0 or omega_r <= 0:
            raise ValidationError("alpha and omega_r must be positive")
        l_r = 1.0 / (omega_r ** 2 * c_r)
        c_c = g * c_r / (1.0 - g)
        z_c = alpha * np.sqrt(l_r / c_r)
        return cls.from_physical(l_r, c_r, c_c, z_c)

    @property
    def t_r(self) -> float:
        return 2.0 * np.pi / self.omega_r


def char_poly(g, alpha) -> np.ndarray:
    """Coefficients (a3, a2, a1, a0) of p(x) in x = s/omega_r.

    The endpoints g = 0 (decoupled: leading coefficient vanishes, p is the
    undamped quadratic) and g = 1 (short-circuit coupling: constant term
    vanishes, one root exactly zero) are permitted as degenerate cases.
    """
    if not (0.0 <= g <= 1.0):
        raise ValidationError("g must lie in [0, 1]")
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    return np.array([alpha * g, 1.0, alpha * g, 1.0 - g])


def poly_backward_residual(coeffs, x) -> float:
    """|p(x)| relative to the largest term magnitude (backward error).

    For |x| >> 1 the cubic's leading terms cancel to O(1); measuring against
    the largest term is the float64-meaningful residual there and reduces to
    |p(x)| / max|coeff| for |x| <= 1.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    powers = x ** np.arange(len(coeffs) - 1, -1, -1)
    terms = coeffs * powers
    scale = max(np.abs(terms).max(), np.abs(coeffs).max())
    return float(abs(np.sum(terms)) / scale)


@dataclass(frozen=True)
class PoleSet:
    """Poles in physical units (rad/s), ordered s1 (real), then the
    oscillatory pair with positive imaginary part first. With three real
    poles, s1 is the most negative (the branch arriving from -1/(alpha g))
    and s2 the least negative."""

    poles: np.ndarray
    omega_r: float = 1.0
    flags: tuple = ()

    @property
    def normalized(self) -> np.ndarray:
        return self.poles / self.omega_r

    @property
    def s1(self) -> complex:
        return self.poles[0]

    @property
    def s2(self) -> complex:
        return self.poles[1]

    @property
    def s3(self) -> complex:
        return self.poles[2] if len(self.poles) > 2 else self.poles[1]


def _order_roots(roots):
    """Order: real root first, conjugate pair by descending Im; three real
    roots ascending (most negative first) after slot one."""
    real_mask = np.abs(roots.imag) <= REAL_AXIS_TOL * np.maximum(np.abs(roots), 1.0)
    reals = np.sort(roots[real_mask].real)
    complexes = roots[~real_mask]
    if len(complexes) == 2:
        pair_re = complexes.real.mean()
        pair_im = np.abs(complexes.imag).mean()
        ordered = [complex(r) for r in reals]
        ordered += [pair_re + 1j * pair_im, pair_re - 1j * pair_im]
        return np.array(ordered), False
    if len(complexes) == 0:
        if len(reals) == 3:
            return np.array([reals[0], reals[2], reals[1]], dtype=complex), True
        return reals.astype(complex), True
    # odd number of off-axis roots cannot happen for real coefficients
    raise ValidationError("root set not closed under conjugation")


def find_poles(coeffs, omega_r: float = 1.0) -> PoleSet:
    """Roots of the characteristic polynomial as a classified PoleSet.

    Companion-matrix eigenvalues refined by one Newton step; conjugate
    symmetry is enforced exactly. A vanishing leading coefficient (g = 0)
    degrades gracefully to the quadratic with a 'reduced-order' flag; a
    near-double root is reported with a 'near-double-root' flag.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    flags = []
    if coeffs[0] == 0.0:
        work = coeffs[1:]
        flags.append("reduced-order")
    else:
        work = coeffs
    roots = np.roots(work)
    deriv = np.polyval(np.polyder(work), roots)
    ok = np.abs(deriv) > 0
    roots[ok] = roots[ok] - np.polyval(work, roots[ok]) / deriv[ok]
    if len(roots) > 1:
        sep = np.min([np.abs(a - b) for i, a in enumerate(roots)
                      for b in roots[i + 1:]])
        if sep <= 1e-5 * max(1.0, np.abs(roots).max()):
            flags.append("near-double-root")
    ordered, all_real = _order_roots(roots)
    if all_real and len(ordered) == 3:
        flags.append("aperiodic-triple")
    return PoleSet(poles=ordered * omega_r, omega_r=omega_r, flags=tuple(flags))


def classify_modes(ps: PoleSet) -> list[str]:
    """Label each pole 'aperiodic' (real) or 'oscillatory' (conjugate pair)."""
    labels = []
    for s in ps.poles:
        labels.append("aperiodic" if s.imag == 0.0 else "oscillatory")
    return labels


@dataclass(frozen=True)
class TransferMatrixSpec:
    """The four rational entries of H(s) as numerator coefficients in
    x = s/omega_r over the shared denominator p(x), with one physical scale
    factor per entry: H_e(s) = scale_e * N_e(x) / p(x)."""

    g: float
    alpha: float
    omega_r: float
    den: np.ndarray
    numerators: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)

    def entry_rational(self, entry) -> tuple[np.ndarray, np.ndarray]:
        """Numerator/denominator coefficients in physical s (descending)."""
        if entry not in ENTRY_NAMES:
            raise ValidationError(f"unknown transfer-matrix entry {entry!r}")
        w = self.omega_r
        num_x = self.numerators[entry]
        dn = len(num_x)
        num_s = self.scales[entry] * num_x / w ** np.arange(dn - 1, -1, -1)
        den_s = self.den / w ** np.arange(len(self.den) - 1, -1, -1)
        return num_s, den_s

    def relative_degree(self, entry) -> int:
        num_x = np.trim_zeros(self.numerators[entry], "f")
        deg_num = len(num_x) - 1 if len(num_x) else -1
        den = np.trim_zeros(self.den, "f")
        return (len(den) - 1) - deg_num


def transfer_matrix(g, alpha, omega_r: float = 1.0) -> TransferMatrixSpec:
    den = char_poly(g, alpha)
    w = omega_r
    numerators = {
        "h11": np.array([alpha * g, 1.0]),
        "h12": np.array([1.0, 0.0]),
        "h21": np.array([1.0]),
        "h22": np.array([1.0, 0.0, 1.0 - g]),
    }
    scales = {
        "h11": 1.0 / w ** 2,
        "h12": g / w,
        "h21": -alpha * g / w,
        "h22": 1.0,
    }
    return TransferMatrixSpec(g=g, alpha=alpha, omega_r=w, den=den,
                              numerators=numerators, scales=scales)


def transfer_eval(spec: TransferMatrixSpec, s) -> np.ndarray:
    """Evaluate H(s) as a 2x2 complex matrix; rejects evaluation at a pole."""
    x = complex(s) / spec.omega_r
    p = np.polyval(spec.den, x)
    if poly_backward_residual(spec.den, x) <= 1e-12:
        poles = find_poles(spec.den, spec.omega_r).poles
        nearest = poles[np.argmin(np.abs(poles - complex(s)))]
        raise ValidationError(f"evaluation at a pole of H: s={complex(s):g} "
                              f"matches pole {nearest:g}")
    out = np.empty((2, 2), dtype=complex)
    for idx, entry in zip(((0, 0), (0, 1), (1, 0), (1, 1)), ENTRY_NAMES):
        out[idx] = spec.scales[entry] * np.polyval(spec.numerators[entry], x) / p
    return out


def weak_coupling(g, alpha, omega_r: float = 1.0) -> tuple[float, float]:
    """Renormalized frequency Omega_r = omega_r sqrt(1-g) and damping
    coefficient kappa = omega_r alpha g^2 of the weak-coupling oscillator
    equation. The oscillatory poles sit at -kappa/2 +- i Omega_r for
    alpha g << 1; a warning marks the regime boundary."""
    if not (0.0 <= g < 1.0) or alpha <= 0:
        raise ValidationError("need 0 <= g < 1 and alpha > 0")
    if alpha * g > 0.1:
        warnings.warn(f"weak-coupling formulas outside their regime: "
                      f"alpha*g = {alpha * g:.3g} > 0.1", stacklevel=2)
    return omega_r * np.sqrt(1.0 - g), omega_r * alpha * g * g


@dataclass
class PoleLocus:
    """Branch-tracked poles over a g grid (normalized to omega_r).

    ``branches`` has shape (len(g_grid), 3); column k follows one root
    continuously in g by nearest-neighbor matching. ``transitions`` maps a
    branch index to the first g at which its imaginary part vanishes (the
    oscillatory-to-aperiodic transition). Beyond that point the real root
    closest to zero belongs to a branch continued from the formerly
    oscillatory pair, not to the aperiodic branch arriving from g -> 0.
    """

    alpha: float
    g_grid: np.ndarray
    branches: np.ndarray
    transitions: dict = field(default_factory=dict)

    def to_csv(self, path):
        re_im = np.stack((self.branches.real, self.branches.imag), axis=2)
        write_csv(path, "g,re_s1,im_s1,re_s2,im_s2,re_s3,im_s3",
                  (self.g_grid, re_im.reshape(len(self.g_grid), -1)))


def pole_locus(alpha, g_grid) -> PoleLocus:
    """Track the three roots of p along ``g_grid`` (normalized units).

    Roots at consecutive g values are matched by nearest neighbor in the
    complex plane, so each column is one smooth branch; a branch collision
    at the aperiodic transition is tagged in ``transitions``, not an error.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    if np.any((g_grid <= 0.0) | (g_grid >= 1.0)):
        raise ValidationError("locus g grid must lie strictly inside (0, 1)")
    if np.any(np.diff(g_grid) <= 0):
        raise ValidationError("locus g grid must be increasing")
    branches = np.empty((len(g_grid), 3), dtype=complex)
    prev = None
    for i, g in enumerate(g_grid):
        ps = find_poles(char_poly(g, alpha))
        roots = ps.poles
        if prev is None:
            ordered = roots
        else:
            remaining = list(roots)
            ordered = []
            for target in prev:
                j = int(np.argmin(np.abs(np.array(remaining) - target)))
                ordered.append(remaining.pop(j))
            ordered = np.array(ordered)
        branches[i] = ordered
        prev = ordered
    transitions = {}
    for k in range(3):
        im = branches[:, k].imag
        was_complex = np.abs(im[0]) > 0
        if was_complex:
            hit = np.where(np.abs(im) == 0.0)[0]
            if len(hit):
                transitions[k] = float(g_grid[hit[0]])
    return PoleLocus(alpha=alpha, g_grid=g_grid, branches=branches,
                     transitions=transitions)
