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

For every (g, alpha) in (0,1) x (0,inf) the roots of p lie strictly in the
left half plane (Routh-Hurwitz: a2 a1 - a3 a0 = alpha g^2 > 0). A whole g
grid is rooted at once (``_poles_of_rows``): safeguarded Newton finds one
real root, which is divided out from the end that damps its rounding
(backward deflation when it is the far root -1/(alpha g)), and a
cancellation-free quadratic gives the other two. So the pair's real part,
about -alpha g^2/2, keeps its own relative accuracy however far out the far
root lies, down to alpha g = 2.17e-154, below which p's terms leave the float
range and the row is refused. A root whose backward residual exceeds
``POLE_RESIDUAL_TOL``, or in ``pole_locus`` one with Re >= 0, is refused,
not returned; the latter happens only for g below about 1e-15, where 1 - g
rounds to within a few ulps of 1.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalPreconditionError, ValidationError
from .signals import write_csv

ENTRY_NAMES = ("h11", "h12", "h21", "h22")

#: omega_r range whose powers up to omega_r^3, which scale H(s), stay in float range
OMEGA_R_RANGE = (1e-100, 1e100)
#: largest backward residual (``poly_backward_residual``) of a root that is returned
POLE_RESIDUAL_TOL = 1e-12


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
    |p(x)| / max|coeff| for |x| <= 1. A one-row call of ``_backward_residuals``.
    """
    return float(_backward_residuals(np.asarray(coeffs, dtype=float)[None], np.array([[x]]))[0, 0])


@dataclass(frozen=True)
class PoleSet:
    """Poles in physical units (rad/s), ordered s1 (real), then the
    oscillatory pair with positive imaginary part first. With three real
    poles, s1 is the most negative (the branch arriving from -1/(alpha g))
    and s2 the least negative."""

    poles: np.ndarray
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


def _polyval_into(out, p, x):
    """``np.polyval(p, x)`` evaluated in ``out``: polyval's Horner steps
    y = y * x + c in its order, so its bits. Its first step, 0 * x + p[0], is
    p[0] (+ 0j for a complex x) for a finite x and a nonzero p[0]; it starts
    there when every p[0] is nonzero, and from polyval's zeros otherwise. For
    coefficient rows ``work`` (m, n+1) and points x (m, k), p = work.T[:, :, None]
    evaluates each row at its own points."""
    skip = int(np.all(p[0] != 0))
    out[...] = p[0] if skip else 0.0
    for c in p[skip:]:
        out *= x
        out += c
    return out


#: Newton stops on a root once |p(x)| is at most this fraction of the sum of
#: p's term magnitudes there: a few eps, just above what Horner's rounding
#: leaves at the root
_NEWTON_TOL = float(4 * np.finfo(float).eps)
#: Newton or bisection steps after which a root is taken as it stands
_NEWTON_STEPS = 100


def _real_roots(a3, a2, a1, a0, radius):
    """One real root of each cubic a3 x^3 + a2 x^2 + a1 x + a0 (a3 > 0, every
    |root| below ``radius``) by safeguarded Newton.

    The root lies on the side of the inflection point -a2/(3 a3) where p has
    the opposite sign; Newton starts at that side's end of [-radius, radius],
    where p p'' > 0, so it moves monotonically onto the root. A step goes to
    (x p' - p)/p' = (2 a3 x^3 + a2 x^2 - a0)/p', which does not cancel when
    the root is far smaller than x; one that would leave the bracket between
    the last points with p < 0 and p > 0 bisects it instead. Once |p| is
    within ``_NEWTON_TOL`` of the sum of p's term magnitudes, a last step
    x - p/p' polishes the root and the row stops; it also stops when a step
    is that small relative to x. ``_real_root`` is the one-row path: the
    same operations in the same order, so the same bits."""
    inflection = -a2 / (3.0 * a3)
    left = ((a3 * inflection + a2) * inflection + a1) * inflection + a0 >= 0.0
    lo = np.where(left, -radius, inflection)
    hi = np.where(left, inflection, radius)
    x = np.where(left, lo, hi)
    m2, m1, m0 = abs(a2), abs(a1), abs(a0)
    a3x2, a3x3, a2x2 = 2.0 * a3, 3.0 * a3, 2.0 * a2
    active = np.ones(len(x), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        size = abs(x)
        p = ((a3 * x + a2) * x + a1) * x + a0
        converged = abs(p) <= _NEWTON_TOL * (((a3 * size + m2) * size + m1) * size + m0)
        below = p < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        slope = (a3x3 * x + a2x2) * x + a1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # p' = 0 bisects
            new = np.where(converged, x - p / slope, ((a3x2 * x + a2) * x * x - a0) / slope)
        new = np.where((lo <= new) & (new <= hi), new, np.where(converged, x, (lo + hi) / 2.0))
        small = abs(new - x) <= _NEWTON_TOL * size
        x = np.where(active, new, x)
        active &= ~(converged | small)
        if not active.any():
            break
    return x


def _real_root(a3, a2, a1, a0, radius):
    """``_real_roots`` of one row, in Python floats."""
    inflection = -a2 / (3.0 * a3)
    left = ((a3 * inflection + a2) * inflection + a1) * inflection + a0 >= 0.0
    lo, hi = (-radius, inflection) if left else (inflection, radius)
    x = lo if left else hi
    m2, m1, m0 = abs(a2), abs(a1), abs(a0)
    a3x2, a3x3, a2x2 = 2.0 * a3, 3.0 * a3, 2.0 * a2
    for _ in range(_NEWTON_STEPS):
        size = abs(x)
        p = ((a3 * x + a2) * x + a1) * x + a0
        converged = abs(p) <= _NEWTON_TOL * (((a3 * size + m2) * size + m1) * size + m0)
        if p < 0.0:
            lo = x
        else:
            hi = x
        slope = (a3x3 * x + a2x2) * x + a1
        if not slope:
            new = math.nan
        elif converged:
            new = x - p / slope
        else:
            new = ((a3x2 * x + a2) * x * x - a0) / slope
        if not lo <= new <= hi:
            new = x if converged else (lo + hi) / 2.0
        small = abs(new - x) <= _NEWTON_TOL * size
        x = new
        if converged or small:
            break
    return x


def _deflate(b, r):
    """(P, Q) of x^2 + P x + Q, the monic cubic x^3 + b2 x^2 + b1 x + b0 (rows
    of ``b``) with its real root r divided out. From the constant end,
    Q = -b0/r and P = (Q - b1)/r, when r is the largest root (r^2 at least
    the product Q of the other two); from the leading end, P = b2 + r and
    Q = b1 + r P, otherwise. Either way the division damps r's rounding
    (Peters & Wilkinson, J. Inst. Maths Applics 8, 1971). Both ends are
    computed for every row; the end not taken may overflow, and one taken
    that overflows leaves a root whose residual is refused."""
    b2, b1, b0 = b.T
    with np.errstate(over="ignore", invalid="ignore"):
        q = -b0 / r
        largest = abs(q) <= r * r
        p = np.where(largest, (q - b1) / r, b2 + r)
        return p, np.where(largest, q, b1 + r * p)


def _quadratic(p, q):
    """Roots of x^2 + p x + q without cancellation: with h = -p/2 and
    d = h^2 - q, the pair h +- i sqrt(-d) where d < 0, else the real roots
    y = h + sign(h) sqrt(d) and q/y. Returns h, sqrt|d|, the pair mask, y and q/y."""
    h = p / -2.0
    d = h * h - q
    s = np.sqrt(abs(d))
    y = h + np.copysign(s, h)
    return h, s, d < 0.0, y, q / y


def _poles_of_rows(work, omega_r=1.0, zero_roots=0, where=None):
    """Ordered roots of each row of ``work`` (m, n+1), degree n <= 3, leading
    coefficient nonzero, scaled by ``omega_r``; with per-row near-double and
    all-real flags. A root whose backward residual exceeds
    ``POLE_RESIDUAL_TOL`` is refused with NumericalPreconditionError, naming
    row i by ``where(i)`` (default: its coefficients).

    As in ``np.roots``, the last ``zero_roots`` coefficients (zero in every
    row) give exact zero roots. A cubic's real root comes from
    ``_real_roots`` (``_real_root`` for one row, with the same bits), the
    other two from ``_deflate`` and ``_quadratic``; a quadratic goes to
    ``_quadratic`` directly. A row is ordered as real roots ascending, then
    the exactly conjugate pair with positive Im first; three real roots
    become (most negative, least negative, middle).
    """
    m, n = work.shape[0], work.shape[1] - 1
    k = n - zero_roots
    limit = np.finfo(float).max / (2 * (n + 1))  # n + 1 terms and a margin
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        top = -work[:, 1:k + 1] / work[:, :1]
        radius = 1.0 + np.abs(top).max(axis=1, initial=0.0)  # Cauchy: every |root| <= radius
        # the largest term |a_j| radius^(n-j) of p at |x| <= radius, as in
        # _backward_residuals (radius >= 1, so no partial product exceeds it)
        magnitudes = np.abs(work)
        largest = magnitudes[:, 0]
        for column in magnitudes.T[1:]:
            largest = np.maximum(largest * radius, column)
        fits = (largest < limit) & (radius * omega_r < np.inf)
    if not fits.all():
        _refuse_far_root(work[np.argmin(fits)], omega_r, np.log10(limit))
    real = [np.zeros(m)] * zero_roots
    pair = np.zeros(m, dtype=bool)
    if k == 1:
        real.append(top[:, 0])
    elif k >= 2:
        if k == 3:
            a = work * np.sign(work[:, :1])
            r = (np.array([_real_root(*map(float, a[0]), float(radius[0]))]) if m == 1
                 else _real_roots(*a.T, radius))
            real.append(r)
            p, q = _deflate(-top, r)
        else:
            p, q = -top.T
        h, s, pair, y, z = _quadratic(p, q)
        real += [np.where(pair, np.inf, y), np.where(pair, np.inf, z)]
    ordered = np.sort(np.stack(real, axis=1), axis=1)
    if n == 3:  # a pair's row [x, inf, inf] keeps its order
        ordered = ordered[:, [0, 2, 1]]
    ordered = ordered.astype(complex)
    if k >= 2:
        ordered.real[:, n - 2:] = np.where(pair[:, None], h[:, None], ordered.real[:, n - 2:])
        ordered.imag[:, n - 2] = np.where(pair, s, 0.0)
        ordered.imag[:, n - 1] = np.where(pair, -s, 0.0)
    # every pair of roots, none below degree two (np.triu_indices' pairs at
    # a tenth of its cost)
    i, j = np.array(list(itertools.combinations(range(n), 2)), dtype=int).reshape(-1, 2).T
    # each pair's own scale: one far root must not flag the pairs near the origin
    scale = np.maximum(1.0, np.maximum(np.abs(ordered[:, i]), np.abs(ordered[:, j])))
    near_double = (np.abs(ordered[:, i] - ordered[:, j]) <= 1e-5 * scale).any(axis=1)
    resid = _backward_residuals(work, ordered)
    bad = ~(resid <= POLE_RESIDUAL_TOL)  # a NaN residual is refused too
    if bad.any():
        row, col = np.argwhere(bad)[0]
        name = f"coefficients {work[row].tolist()}" if where is None else where(row)
        raise NumericalPreconditionError(
            f"root s = {ordered[row, col] * omega_r:.6g} at {name} has backward residual "
            f"{resid[row, col]:.3g} > {POLE_RESIDUAL_TOL:g}: Newton and deflation leave it "
            "unresolved in float64")
    return ordered * omega_r, near_double, ~pair


def _backward_residuals(work, roots):
    """``poly_backward_residual`` of each root in ``roots`` (m, n) against
    its row of ``work`` (m, n+1): |p(x)| over the larger of the largest term
    max_j |a_j| |x|^(n-j) and the largest coefficient. p(x) comes from
    ``_polyval_into``, the largest term from its Horner recurrence on
    magnitudes, so neither leaves the float range where the range check in
    ``_poles_of_rows`` has passed."""
    size, magnitudes = np.abs(roots), np.abs(work)
    largest = magnitudes[:, :1]
    for m in magnitudes.T[1:, :, None]:
        largest = np.maximum(largest * size, m)
    value = _polyval_into(np.empty_like(roots), work.T[:, :, None], roots)
    return abs(value) / np.maximum(largest, magnitudes.max(1, keepdims=True))


def _refuse_far_root(row, omega_r, log_limit):
    """Refuse a row whose roots (times ``omega_r``) or Newton-step terms (log10
    up to ``log_limit``) leave the float range. With M the largest other
    coefficient these reach M/lead and M^n / lead^(n-1): a larger lead helps
    unless the coefficients, or the lead they need (found in log10), overflow."""
    n, log_max = len(row) - 1, np.log10(np.finfo(float).max)
    with np.errstate(divide="ignore"):
        log_m = np.log10(np.abs(row[1:]).max())
    log_need = np.log10(1.03) + max((n * log_m - log_limit) / max(n - 1, 1),
                                    log_m + np.log10(omega_r) - log_max)
    if not np.log10(abs(row[0])) < log_need < log_max:
        raise NumericalPreconditionError(f"coefficients up to {np.abs(row).max():.3g} take the "
                                         "Newton step beyond the float range; lower alpha g")
    raise NumericalPreconditionError(
        f"leading coefficient {row[0]:.3g} puts a root so far out that the Newton step leaves "
        f"the float range; raise it (alpha g in H's denominator) to at least {10 ** log_need:.3g}")


def find_poles(coeffs, omega_r: float = 1.0, where: str | None = None) -> PoleSet:
    """Roots of the characteristic polynomial as a classified PoleSet.

    A one-row call of the batched core that ``pole_locus`` runs on a whole
    g grid (``_poles_of_rows``: Newton, deflation and a quadratic, with
    conjugate pairs exact), so a row's roots have the same bits either way.
    A vanishing leading coefficient (g = 0) degrades gracefully to the
    quadratic with a 'reduced-order' flag; a near-double root is reported
    with a 'near-double-root' flag and three real roots with
    'aperiodic-triple'; two roots are near-double when their distance is at
    most 1e-5 of the larger of their magnitudes (floored at 1), so a far
    root flags no other pair. Outside degree one to three (after that strip)
    it raises ValidationError. A root whose backward residual exceeds
    ``POLE_RESIDUAL_TOL`` raises NumericalPreconditionError, naming the
    polynomial by ``where`` when given, by its coefficients otherwise.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    flags = []
    if coeffs[0] == 0.0:
        coeffs = coeffs[1:]
        flags.append("reduced-order")
    if len(coeffs) < 2:
        degree = "0" if coeffs.any() else "undefined (the zero polynomial)"
        raise ValidationError(f"find_poles needs a polynomial of degree >= 1, got degree {degree}")
    if len(coeffs) > 4:
        raise ValidationError(f"find_poles takes a polynomial of degree at most 3, got degree "
                              f"{len(coeffs) - 1}")
    zero_roots = len(coeffs) - 1 - np.flatnonzero(coeffs)[-1]
    poles, near_double, all_real = _poles_of_rows(coeffs[None, :], omega_r, zero_roots,
                                                  None if where is None else lambda i: where)
    if near_double[0]:
        flags.append("near-double-root")
    if all_real[0] and len(coeffs) == 4:
        flags.append("aperiodic-triple")
    return PoleSet(poles=poles[0], flags=tuple(flags))


@dataclass(frozen=True)
class TransferMatrixSpec:
    """H(s) over the shared denominator p(x), x = s/omega_r: in ``ENTRY_NAMES``
    order, H_e(s) = scales[e] * numerators[e](x) / p(x), the numerator rows
    zero-padded on the left to one width. The entries share one pole set,
    ``poles``, and one conversion to physical s, ``physical``, made on first use."""

    g: float
    alpha: float
    omega_r: float
    den: np.ndarray
    numerators: np.ndarray
    scales: np.ndarray

    @cached_property
    def poles(self) -> PoleSet:
        return find_poles(self.den, self.omega_r, f"alpha = {self.alpha:g}, g = {self.g:g}")

    @cached_property
    def physical(self) -> tuple[np.ndarray, np.ndarray]:
        """The numerator rows and the denominator in physical s (descending)."""
        w = self.omega_r
        with np.errstate(over="ignore", invalid="ignore"):
            nums = self.scales[:, None] * self.numerators / w ** np.arange(
                self.numerators.shape[1] - 1, -1, -1)
            den = self.den / w ** np.arange(len(self.den) - 1, -1, -1)
        if not np.abs(np.append(nums, den)).max() < 2.0 ** 1020:  # a huge alpha; room for 16 terms
            raise NumericalPreconditionError(
                f"H(s) is not representable in physical units at alpha={self.alpha:g}, "
                f"omega_r={w:g}; rescale omega_r")
        if den[0] == 0 < self.g:  # p is cubic for g > 0; an underflow must not make H improper
            # a lower omega_r cannot help when alpha g itself underflows
            fix = "" if self.den[0] == 0 else " or lower omega_r (--omega-r)"
            raise NumericalPreconditionError(
                f"the leading coefficient alpha g/omega_r^3 of H's denominator underflows to 0 at "
                f"alpha={self.alpha:g}, g={self.g:g}, omega_r={w:g}; raise alpha (--alpha){fix}")
        return nums, den

    def relative_degree(self, entry) -> int:
        num_x = np.trim_zeros(self.numerators[ENTRY_NAMES.index(entry)], "f")
        return len(np.trim_zeros(self.den, "f")) - len(num_x)


def transfer_matrix(g, alpha, omega_r: float = 1.0) -> TransferMatrixSpec:
    if not OMEGA_R_RANGE[0] <= omega_r <= OMEGA_R_RANGE[1]:
        raise NumericalPreconditionError(
            f"omega_r {omega_r:g} lies outside [{OMEGA_R_RANGE[0]:g}, {OMEGA_R_RANGE[1]:g}], "
            "where H(s) is representable; rescale the time unit (--omega-r)")
    den = char_poly(g, alpha)
    numerators = np.array([[0.0, alpha * g, 1.0],     # h11
                           [0.0, 1.0, 0.0],           # h12
                           [0.0, 0.0, 1.0],           # h21
                           [1.0, 0.0, 1.0 - g]])      # h22
    scales = np.array([1.0 / omega_r ** 2, g / omega_r, -alpha * g / omega_r, 1.0])
    return TransferMatrixSpec(g=g, alpha=alpha, omega_r=omega_r, den=den,
                              numerators=numerators, scales=scales)


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
    continuously in g: between consecutive g values the roots are assigned
    to the branches by the best of the six assignments, the one with the
    least total displacement; among equal totals the earlier root of the
    previous g takes the nearer one. ``transitions`` maps a
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


_PERMUTATIONS = list(itertools.permutations(range(3)))
#: the six assignments of three new roots to the three before them, in
#: lexicographic order (identity first)
_ASSIGNMENTS = np.array(_PERMUTATIONS)
#: _COMPOSED[a, b] indexes the assignment _ASSIGNMENTS[a][_ASSIGNMENTS[b]]
_COMPOSED = np.array([[_PERMUTATIONS.index(tuple(a[i] for i in b)) for b in _PERMUTATIONS]
                      for a in _PERMUTATIONS])


def _track_branches(rows):
    """Reorder the roots of each row of ``rows`` (m, 3) so that each column
    follows one branch.

    Between consecutive rows the new roots are matched to the old by the
    assignment with the least total displacement sum |new - old|. Among
    equal totals the earlier old root (in the previous row's order) takes
    the nearer new root, as in nearest-neighbour matching, and the first in
    ``_ASSIGNMENTS`` order wins what is still tied. The costs of all six
    assignments at all steps are computed at once; the per-step assignments
    are then composed into each row's order by a doubling prefix scan.
    """
    steps = np.abs(rows[1:, None, :] - rows[:-1, :, None])  # [k, old, new]
    # [k, assignment]: the move of old root i under each assignment
    a, b, c = (steps[:, i, _ASSIGNMENTS[:, i]] for i in range(3))
    # the total summed in ascending order, so equal moves give equal totals
    # (a conjugate pair splitting on the real axis ties exactly)
    low, high = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    total = low + np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c)) + high
    best = total == total.min(axis=1, keepdims=True)
    for move in (a, b, c):  # among equal totals the earlier old root takes the nearer
        best &= move == np.where(best, move, np.inf).min(axis=1, keepdims=True)
    order = np.concatenate(([0], best.argmax(axis=1)))  # row 0 keeps its order
    shift = 1
    while shift < len(order):
        order[shift:] = _COMPOSED[order[shift:], order[:-shift]]
        shift *= 2
    return np.take_along_axis(rows, _ASSIGNMENTS[order], axis=1)


def pole_locus(alpha, g_grid) -> PoleLocus:
    """Track the three roots of p along ``g_grid`` (normalized units).

    The roots at every g come from one batched ``_poles_of_rows`` call over
    the whole grid (see ``find_poles``) and are matched step by step by
    ``_track_branches``, so each column is one smooth branch; a branch
    collision at the aperiodic transition is tagged in ``transitions``, not
    an error, while a root with Re >= 0 is: the cubic's stability margin
    alpha g^2 is alpha g (1 - (1 - g)), which rounding of 1 - g can cancel
    for g below about 1e-15 (see the module docstring).
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
    branches = _track_branches(
        _poles_of_rows(coeffs, where=lambda i: f"alpha = {alpha:g}, g = {g_grid[i]:g}")[0])
    right = np.argwhere(branches.real >= 0.0)
    if len(right):
        i, k = right[0]
        raise NumericalPreconditionError(
            f"root s = {branches[i, k]:.6g} at alpha = {alpha:g}, g = {g_grid[i]:g} has Re >= 0: "
            "1 - g rounds to within a few ulps of 1, which cancels the cubic's stability "
            "margin alpha g (1 - (1 - g)); raise g to 1e-14 or more")
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
