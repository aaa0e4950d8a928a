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

Roots of p are the eigenvalues of its companion matrix, polished with one
Newton step; a whole g grid takes one stacked ``eigvals`` call. For every
(g, alpha) in (0,1) x (0,inf) they lie strictly in the left half plane
(Routh-Hurwitz: a2 a1 - a3 a0 = alpha g^2 > 0).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalPreconditionError, ValidationError
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
    """Coefficients (a3, a2, a1, a0) of p(x) in x = s/omega_r; for an array
    of g values, one such row per value.

    The endpoints g = 0 (decoupled: leading coefficient vanishes, p is the
    undamped quadratic) and g = 1 (short-circuit coupling: constant term
    vanishes, one root exactly zero) are permitted as degenerate cases.
    """
    g = np.asarray(g, dtype=float)
    if not np.all((0.0 <= g) & (g <= 1.0)):
        raise ValidationError("g must lie in [0, 1]")
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    a = alpha * g
    return np.stack(np.broadcast_arrays(a, 1.0, a, 1.0 - g), axis=-1)


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
    def s1(self) -> complex:
        return self.poles[0]

    @property
    def s2(self) -> complex:
        return self.poles[1]

    @property
    def s3(self) -> complex:
        return self.poles[2] if len(self.poles) > 2 else self.poles[1]


def _polyval_rows(coeffs, x):
    """``np.polyval`` of each coefficient row at the matching row of ``x``,
    in its operation order (so every value equals it bit for bit)."""
    y = np.zeros_like(x)
    for column in coeffs.T[:, :, None]:
        y = y * x + column
    return y


def _newton_step(work, roots):
    """One Newton step for every root; a root where p' vanishes stays put."""
    n = work.shape[1] - 1
    deriv = _polyval_rows(work[:, :-1] * np.arange(n, 0, -1), roots)
    step = np.divide(_polyval_rows(work, roots), deriv, out=np.zeros_like(roots),
                     where=np.abs(deriv) > 0)
    return roots - step


def _order_rows(roots):
    """Order each row: real roots ascending, then the conjugate pair with
    positive Im first; three real roots become (most negative, least
    negative, middle). Returns the ordered rows and which rows are all real."""
    n = roots.shape[1]
    real = np.abs(roots.imag) <= REAL_AXIS_TOL * np.maximum(np.abs(roots), 1.0)
    n_real = real.sum(axis=1)
    all_real = n_real == n
    if not (all_real | (n_real == n - 2)).all():
        # an odd number of off-axis roots cannot happen for real coefficients
        raise ValidationError("root set not closed under conjugation")
    ordered = np.sort(np.where(real, roots.real, np.inf), axis=1).astype(complex)
    # the two off-axis roots of each other row, averaged into an exactly
    # conjugate pair
    pair = roots[~real].reshape(-1, 2)
    pair_re = pair.real.sum(axis=1) / 2
    pair_im = np.abs(pair.imag).sum(axis=1) / 2
    ordered[~all_real, n - 2] = pair_re + 1j * pair_im
    ordered[~all_real, n - 1] = pair_re - 1j * pair_im
    if n == 3:
        ordered[all_real] = ordered[all_real][:, [0, 2, 1]]
    return ordered, all_real


def _poles_of_rows(work, omega_r=1.0, zero_roots=0):
    """Ordered roots of each row of ``work`` (m, n+1), leading coefficient
    nonzero, scaled by ``omega_r``; with per-row near-double and all-real flags.

    All m companion matrices go to one stacked ``eigvals`` call. As in
    ``np.roots``, the last ``zero_roots`` coefficients (zero in every row)
    are deflated into exact zero roots; any degree n >= 1 works, down to an
    empty companion when every root is zero. The Newton step runs in the dtype
    ``eigvals`` returns, as in ``np.roots``; only an all-real row in a batch
    that also holds complex roots is polished in complex arithmetic, whose
    quotient can round one ulp of the step apart from the real one. That is
    far below the root's last bit: no polished root differed on 1.2 million
    rows checked against ``np.roots`` and the same Newton step.
    """
    m, n = work.shape[0], work.shape[1] - 1
    k = n - zero_roots
    with np.errstate(over="ignore"):
        top = -work[:, 1:k + 1] / work[:, :1]
        bound = (1.0 + np.abs(top).max(axis=1, initial=0.0)) * omega_r  # Cauchy
    if not np.all(bound < np.inf):
        lead = work[np.argmin(bound < np.inf), 0]
        raise NumericalPreconditionError(
            f"leading coefficient {lead:g} puts a pole beyond the float range")
    companion = np.zeros((m, k, k))
    companion[:, :1, :] = top[:, None]
    companion[:, 1:, :-1] = np.eye(max(k - 1, 0))
    roots = np.linalg.eigvals(companion)
    if zero_roots:
        roots = np.concatenate((roots, np.zeros((m, zero_roots), roots.dtype)), axis=1)
    polished = _newton_step(work, roots).astype(complex)
    i, j = np.triu_indices(n, 1)  # every pair of roots; none below degree two
    # each pair's own scale: one far root must not flag the pairs near the origin
    scale = np.maximum(1.0, np.maximum(np.abs(polished[:, i]), np.abs(polished[:, j])))
    near_double = (np.abs(polished[:, i] - polished[:, j]) <= 1e-5 * scale).any(axis=1)
    ordered, all_real = _order_rows(polished)
    return ordered * omega_r, near_double, all_real


def find_poles(coeffs, omega_r: float = 1.0) -> PoleSet:
    """Roots of the characteristic polynomial as a classified PoleSet.

    A one-row call of the batched companion-matrix core that ``pole_locus``
    runs on a whole g grid: eigenvalues refined by one Newton step, with
    conjugate symmetry enforced exactly. A vanishing leading coefficient
    (g = 0) degrades gracefully to the quadratic with a 'reduced-order'
    flag; a near-double root is reported with a 'near-double-root' flag and
    three real roots with 'aperiodic-triple'; two roots are near-double when
    their distance is at most 1e-5 of the larger of their magnitudes (floored
    at 1), so a far root flags no other pair. Below degree one (after that
    strip) it raises ValidationError.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    flags = []
    if coeffs[0] == 0.0:
        coeffs = coeffs[1:]
        flags.append("reduced-order")
    if len(coeffs) < 2:
        degree = "0" if coeffs.any() else "undefined (the zero polynomial)"
        raise ValidationError(f"find_poles needs a polynomial of degree >= 1, got degree {degree}")
    zero_roots = len(coeffs) - 1 - np.flatnonzero(coeffs)[-1]
    poles, near_double, all_real = _poles_of_rows(coeffs[None, :], omega_r, zero_roots)
    if near_double[0]:
        flags.append("near-double-root")
    if all_real[0] and len(coeffs) == 4:
        flags.append("aperiodic-triple")
    return PoleSet(poles=poles[0], omega_r=omega_r, flags=tuple(flags))


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
    factor per entry: H_e(s) = scale_e * N_e(x) / p(x). The entries share one
    pole set, ``poles``, found on first use."""

    g: float
    alpha: float
    omega_r: float
    den: np.ndarray
    numerators: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)

    @cached_property
    def poles(self) -> PoleSet:
        return find_poles(self.den, self.omega_r)

    def entry_rational(self, entry) -> tuple[np.ndarray, np.ndarray]:
        """Numerator/denominator coefficients in physical s (descending)."""
        if entry not in ENTRY_NAMES:
            raise ValidationError(f"unknown transfer-matrix entry {entry!r}")
        w = self.omega_r
        num_x = self.numerators[entry]
        dn = len(num_x)
        with np.errstate(over="ignore"):
            num_s = self.scales[entry] * num_x / w ** np.arange(dn - 1, -1, -1)
            den_s = self.den / w ** np.arange(len(self.den) - 1, -1, -1)
        if not (np.isfinite(num_s).all() and np.isfinite(den_s).all()):
            raise NumericalPreconditionError(
                f"{entry} is not representable in physical units at alpha={self.alpha:g}, "
                f"omega_r={w:g}; rescale omega_r")
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
        poles = spec.poles.poles
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

    The roots at every g come from one stacked companion ``eigvals`` call
    over the whole grid (see ``find_poles``). Roots at consecutive g values
    are matched by nearest neighbor in the complex plane, the first of
    equally near roots winning, so each column is one smooth branch; a
    branch collision at the aperiodic transition is tagged in
    ``transitions``, not an error.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    if g_grid.ndim != 1 or len(g_grid) == 0:
        raise ValidationError("locus g grid must be a non-empty 1-D array")
    if np.any((g_grid <= 0.0) | (g_grid >= 1.0)):
        raise ValidationError("locus g grid must lie strictly inside (0, 1)")
    if np.any(np.diff(g_grid) <= 0):
        raise ValidationError("locus g grid must be increasing")
    coeffs = char_poly(g_grid, alpha)
    if np.any(coeffs[:, 0] == 0.0):
        raise NumericalPreconditionError(f"alpha * g underflows to 0 at alpha = {alpha:g}: "
                                         "the cubic degenerates; use a larger alpha")
    rows = _poles_of_rows(coeffs)[0].tolist()
    tracked = [rows[0]]
    for remaining in rows[1:]:
        matched = []
        for target in tracked[-1]:
            dist = [abs(root - target) for root in remaining]
            matched.append(remaining.pop(dist.index(min(dist))))
        tracked.append(matched)
    branches = np.array(tracked, dtype=complex)
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
