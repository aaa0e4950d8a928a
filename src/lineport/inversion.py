"""Impulse responses: Bromwich-contour IFFT inversion and its analytic oracle.

``bromwich_ifft`` implements the numerical inversion

    h(t) ~= (exp(sigma t) / T) * IFFT[ H(sigma + i omega_k) ],

on a uniform grid with omega_k = 2 pi k / T. A strictly proper rational H
whose relative degree is below four produces a kink (or, at relative degree
one, a jump) of h at t = 0+, which a truncated Fourier sum resolves slowly;
the first three terms of the large-s expansion are therefore subtracted as
c_m/(s+mu)^m on the contour and added back in closed form, which leaves a
C^2 remainder and restores fast convergence without windowing. Aliasing is
controlled by the period choice T >= 20 / (slowest pole decay) and reported
as an estimated bound. The unit of work is the transfer matrix: its entries
share the denominator, poles (``TransferMatrixSpec.poles``, found once per
matrix), sigma, period and mu, so one contour serves all four (Dubner &
Abate, J. ACM 15, 1968), while each entry keeps its own arithmetic.

``invert_partial_fractions`` is the independent oracle: residue calculus on
simple poles, exact up to root-finding precision, from one exp(s t) table
per matrix.

``respond`` assembles (Phi_1, V_0) from the two source terms, each of the
form  c' * delta_dot(t) + c * delta(t) + regular(t); delta parts contribute
h * c, delta-dot parts dh/dt * c' evaluated from the residue representation
(never by numerical differentiation), and regular parts a trapezoid
convolution.
"""
from __future__ import annotations

import warnings

from dataclasses import dataclass

import numpy as np

from .errors import NumericalPreconditionError, ValidationError
from .signals import Signal, uniform_grid
from .spectral import ENTRY_NAMES, TransferMatrixSpec

MIN_IFFT_SAMPLES = 1024
MAX_IFFT_SAMPLES = 2 ** 20


def _markov_parameters(num, den, count=3):
    """Leading coefficients of H(s) = sum_k h_k s^-k at s -> infinity."""
    num = np.trim_zeros(np.asarray(num, dtype=float), "f")
    den = np.trim_zeros(np.asarray(den, dtype=float), "f")
    nd = len(den) - 1
    nn = len(num) - 1
    if nn >= nd:
        raise ValidationError(
            "improper transfer function: the impulse response contains a "
            "delta(t) distributional part; numeric inversion refused")
    padded = np.zeros(max(nd, count) + 1)
    padded[nd - nn:nd + 1] = num
    h = np.zeros(count)
    a = np.zeros(count + 1)
    a[:len(den)] = den
    for k in range(count):
        acc = padded[k + 1]
        for j in range(k):
            acc -= a[k - j] * h[j]
        h[k] = acc / a[0]
    return h


def _entry_names(entry):
    """``(names, single)`` for one entry name or a sequence of them."""
    if isinstance(entry, str):
        return (entry,), True
    return tuple(entry), False


def bromwich_ifft(num, den, poles, t_max, n_samples=16384, sigma=None):
    """Numerically invert the strictly proper rational num/den, whose
    denominator has the roots ``poles``, on [0, t_max].

    ``num`` is one numerator (1-D, one ``Signal`` returned) or a stack of
    numerators over the shared ``den``, one per row (a list of ``Signal``, one
    per row). A stack shares one contour: den(s), the (s+mu)^k terms and the
    exp(sigma t), exp(-mu t) and alias-tail factors are built once, while each
    row keeps its own subtraction, FFT and products, so every row equals a
    single-row call bit for bit.

    sigma defaults to 0.1 * (slowest pole decay) + 1/t_max; the FFT period is
    max(4 t_max, 20 / slowest decay), and the subtracted terms sit at the
    fastest decay (1/t_max if no pole decays). Returns the samples on the FFT
    grid restricted to [0, t_max], with quality metrics (imaginary residue,
    alias bound, contour parameters) in ``signal.meta``. A period that leaves
    fewer than two samples on [0, t_max], or over which the alias bound is not
    representable, is refused with ``NumericalPreconditionError``, naming the
    n_samples or t_max that would not be.
    """
    nums = np.asarray(num, dtype=float)
    rows = nums[None] if nums.ndim == 1 else nums
    markov = [_markov_parameters(row, den, 3) for row in rows]  # refuses an improper num/den
    if t_max <= 0:
        raise ValidationError("t_max must be positive")
    n_samples = int(n_samples)
    if n_samples < MIN_IFFT_SAMPLES or (n_samples & (n_samples - 1)) != 0:
        raise ValidationError(
            f"n_samples must be a power of two >= {MIN_IFFT_SAMPLES}, got {n_samples}")
    poles = np.asarray(poles)
    min_decay, max_decay = -poles.real.max(), -poles.real.min()
    if sigma is None:
        sigma = 0.1 * min_decay + 1.0 / t_max
    if sigma <= poles.real.max():
        raise NumericalPreconditionError(
            f"contour crosses pole: sigma={sigma:g} <= max Re(pole)={poles.real.max():g}")
    period = max(4.0 * t_max, 20.0 / max(min_decay, 1e-300))
    dt = period / n_samples
    if dt > 2.0 * t_max:  # the second FFT sample already lies beyond t_max
        need = MIN_IFFT_SAMPLES
        while need <= MAX_IFFT_SAMPLES and period / need > 2.0 * t_max:
            need *= 2
        advice = (f"n_samples (--n) of at least {need} would leave two"
                  if need <= MAX_IFFT_SAMPLES
                  else f"no n_samples (--n) up to {MAX_IFFT_SAMPLES} would")
        raise NumericalPreconditionError(
            f"slowest pole decay {min_decay:.3g} forces the FFT period 20/decay = "
            f"{period:.3g}, which leaves fewer than two of {n_samples} samples on "
            f"[0, t_max = {t_max:.3g}]; {advice}")
    mu = max_decay if max_decay > 0 else 1.0 / t_max

    omega = 2.0 * np.pi * np.fft.fftfreq(n_samples, d=dt)
    s = sigma + 1j * omega
    den_on_contour = np.polyval(den, s)
    shifted = s + mu
    shifted_powers = (shifted, shifted ** 2, shifted ** 3)
    t_all = dt * np.arange(n_samples)
    kept = int(np.count_nonzero(t_all <= t_max + 0.5 * dt))  # a prefix of the grid
    t = t_all[:kept]
    head_decay = np.exp(-mu * t)
    tail_start = int(0.9 * n_samples)
    # exp(sigma t) overflows on the tail first, where it makes the alias
    # bound non-finite, which is refused before any product is formed
    with np.errstate(over="ignore"):
        damp = np.exp(sigma * t)
        tail_growth = np.exp(sigma * t_all[tail_start:])
    decay_factor = np.exp(-(sigma + min_decay) * period)
    signals = []
    for row, (h1, h2, h3) in zip(rows, markov):
        c1 = h1
        c2 = h2 + c1 * mu
        c3 = h3 + 2.0 * c2 * mu - c1 * mu * mu
        h_on_contour = np.polyval(row, s)
        h_on_contour /= den_on_contour
        h_on_contour -= c1 / shifted_powers[0] + c2 / shifted_powers[1] + c3 / shifted_powers[2]
        g = np.fft.ifft(h_on_contour)
        g /= dt
        with np.errstate(over="ignore", invalid="ignore"):
            tail = np.abs(tail_growth * g.real[tail_start:])
            alias_bound = float(tail.max() * decay_factor / max(1.0 - decay_factor, 1e-16))
        if not np.isfinite(alias_bound):
            raise _alias_overflow(min_decay, period, sigma, t_max)
        h_vals = damp * g.real[:kept] + head_decay * (c1 + c2 * t + 0.5 * c3 * t * t)
        imag_residual = float(np.abs(damp * g.imag[:kept]).max())
        signals.append(Signal(t0=0.0, dt=dt, samples=h_vals,
                              meta={"sigma": float(sigma), "period": float(period),
                                    "n_samples": n_samples, "mu": float(mu),
                                    "imag_residual": imag_residual,
                                    "alias_bound": alias_bound}))
    return signals[0] if nums.ndim == 1 else signals


def _alias_overflow(min_decay, period, sigma, t_max):
    """The refusal of a period over which exp(sigma t) leaves the float
    range. At the default sigma, sigma * period is 2 + 20/(decay t_max) while
    the decay sets the period and 4 + 0.4 decay t_max once t_max does, so a
    t_max between the two roots of ``exponent`` keeps the bound finite."""
    exponent = 700.0  # below log(float max) = 709.78, leaving room for |g|
    low, high = 20.0 / (min_decay * (exponent - 2.0)), (exponent - 4.0) / (0.4 * min_decay)
    return NumericalPreconditionError(
        f"slowest pole decay {min_decay:.3g} and t_max = {t_max:.3g} force the FFT "
        f"period {period:.3g}, over which the alias-bound factor exp(sigma t), "
        f"sigma = {sigma:.3g}, overflows; no n_samples (--n) helps, a t_max (--t-max) "
        f"in [{low:.3g}, {high:.3g}] would keep it finite")


def invert_ifft(spec: TransferMatrixSpec, entry, t_max, n_samples=16384):
    """IFFT inversion of one transfer-matrix entry, or of a sequence of
    entries on one shared contour, one ``Signal`` per entry (see
    ``bromwich_ifft``, which refuses an entry that is not strictly proper)."""
    names, single = _entry_names(entry)
    rationals = [spec.entry_rational(name) for name in names]
    width = max(len(num) for num, _ in rationals)
    nums = np.zeros((len(names), width))  # leading zeros leave polyval's values as they are
    for row, (num, _) in zip(nums, rationals):
        row[width - len(num):] = num
    sigs = bromwich_ifft(nums, rationals[0][1], spec.poles.poles, t_max, n_samples=n_samples)
    for sig, name in zip(sigs, names):
        sig.meta["entry"] = name
    return sigs[0] if single else sigs


def residues(spec: TransferMatrixSpec, entry):
    """Poles and residues in physical units, h(t) = sum R exp(s t): the
    residues of one entry, or a list of them for a sequence of entries."""
    names, single = _entry_names(entry)
    rationals = [spec.entry_rational(name) for name in names]
    s = spec.poles.poles
    slope = np.polyval(np.polyder(rationals[0][1]), s)
    r = [np.polyval(num, s) / slope for num, _ in rationals]
    return s, (r[0] if single else r)


def invert_partial_fractions(spec: TransferMatrixSpec, entry, t_grid):
    """Analytic inversion by residue calculus (simple poles) of one entry,
    or of a sequence of entries from one exp(s t) table, one ``Signal`` per
    entry; each carries its poles and residues in ``meta``.

    A near-double root makes the residue representation ill-conditioned; in
    that case the result falls back to the IFFT inversion with a warning.
    """
    names, single = _entry_names(entry)
    for name in names:
        if spec.relative_degree(name) <= 0:
            raise ValidationError(
                f"{name} is improper: split off the polynomial part before inversion")
    t_grid = np.asarray(t_grid, dtype=float)
    s, rs = residues(spec, names)
    if "near-double-root" in spec.poles.flags:
        warnings.warn("near-double pole: partial fractions ill-conditioned, "
                      "falling back to IFFT inversion", stacklevel=2)
        sigs = invert_ifft(spec, names, float(t_grid[-1]), n_samples=16384)
        out = [Signal.from_samples(t_grid, np.interp(t_grid, sig.t_grid, sig.samples))
               for sig in sigs]
    else:
        growth = np.exp(np.outer(t_grid, s))
        out = [Signal.from_samples(t_grid, np.real(growth @ r)) for r in rs]
    for sig, name, r in zip(out, names, rs):
        sig.meta.update(entry=name, poles=s, residues=r)
    return out[0] if single else out


@dataclass
class SourceSpec:
    """One source term: ddelta_coef * d(delta)/dt + delta_coef * delta(t)
    plus an optional regular sampled part."""

    ddelta_coef: float = 0.0
    delta_coef: float = 0.0
    regular: Signal | None = None


def sources_from_initial(params, phi1=0.0, q1=0.0, q0=0.0,
                         v_bwd: Signal | None = None) -> tuple[SourceSpec, SourceSpec]:
    """Build the two source terms from the initial state and the incoming wave.

    f1 = phi1 * delta_dot + [ (q1 + q0)/C_r - (C_p/C_r) V0 ] * delta,
    f2 = tau V0 * delta + 2 v_bwd(t),  with V0 = q1/C_r + q0/C_p.

    The -(C_p/C_r) V0 delta coefficient is the form consistent with the
    underlying equations: free evolution from a state kicked by an impulsive
    e0 then reproduces the same response as the delta source itself.
    """
    v0s = q1 / params.c_r + q0 / params.c_p
    f1 = SourceSpec(ddelta_coef=phi1,
                    delta_coef=(q1 + q0) / params.c_r - (params.c_p / params.c_r) * v0s)
    regular = None
    if v_bwd is not None:
        regular = Signal(t0=v_bwd.t0, dt=v_bwd.dt, samples=2.0 * v_bwd.samples)
    f2 = SourceSpec(delta_coef=params.tau * v0s, regular=regular)
    return f1, f2


def _convolve_trapezoid(h, f, dt):
    full = np.convolve(h, f)[:len(h)]
    full -= 0.5 * (f[0] * h + h[0] * f[:len(h)])
    return dt * full


def _entry_response(spec: TransferMatrixSpec, entry, name, src: SourceSpec,
                    residue, growth, t_grid, dt):
    """Response of one ``entry``, with residues ``residue`` at the poles
    whose exp(s t) table on ``t_grid`` is ``growth``, to the source ``name``:
    its delta and delta-dot terms from the residues, its regular part by a
    trapezoid convolution."""
    if src.ddelta_coef != 0.0 and spec.relative_degree(entry) < 2:
        raise ValidationError(
            f"delta-dot source in {name} is inadmissible: {entry} has "
            f"relative degree {spec.relative_degree(entry)} < 2")
    has_regular = src.regular is not None and src.regular.samples.any()
    if src.delta_coef != 0.0 or has_regular:
        h_vals = np.real(growth @ residue)
    total = np.zeros(len(t_grid))
    if src.delta_coef != 0.0:
        total += src.delta_coef * h_vals
    if src.ddelta_coef != 0.0:  # dh/dt = sum R s exp(s t)
        total += src.ddelta_coef * np.real(growth @ (residue * spec.poles.poles))
    if has_regular:
        total += _convolve_trapezoid(h_vals, src.regular(t_grid, extend="zero"), dt)
    return total


def respond(spec: TransferMatrixSpec, f1: SourceSpec, f2: SourceSpec,
            t_grid) -> tuple[Signal, Signal]:
    """Responses Phi_1 = h11*f1 + h12*f2 and V_0 = h21*f1 + h22*f2, from
    one set of residues and one exp(s t) table for the four entries.

    A delta-dot coefficient is admissible only against entries of relative
    degree >= 2 (so that dh/dt exists as a function); the line source f2
    meets h22 of relative degree one and therefore must not carry one.
    """
    t_grid, dt = uniform_grid(t_grid)
    s, rs = residues(spec, ENTRY_NAMES)
    growth = np.exp(np.outer(t_grid, s))
    sources = (("f1", f1), ("f2", f2)) * 2  # the columns of h11, h12, h21, h22
    h11, h12, h21, h22 = (_entry_response(spec, entry, name, src, r, growth, t_grid, dt)
                          for entry, r, (name, src) in zip(ENTRY_NAMES, rs, sources))
    return Signal.from_samples(t_grid, h11 + h12), Signal.from_samples(t_grid, h21 + h22)


def normalize_max_abs(sig: Signal) -> Signal:
    """Divide by the maximum absolute sample, recording the divisor and its
    time (the convention used for presenting impulse responses)."""
    peak = np.abs(sig.samples).max()
    if peak == 0.0:
        raise ValidationError("cannot normalize an all-zero signal")
    k = int(np.argmax(np.abs(sig.samples)))
    out = Signal(t0=sig.t0, dt=sig.dt, samples=sig.samples / peak,
                 normalization=(float(peak), float(sig.t_grid[k])),
                 meta=dict(sig.meta))
    return out


def impulse_response_table(spec: TransferMatrixSpec, t_max, n_samples=16384):
    """All four entries by IFFT, on one contour, and by partial fractions on
    the IFFT grid, from one exp(s t) table, with the maximum pairwise
    discrepancy (used by the CLI)."""
    via_ifft = invert_ifft(spec, ENTRY_NAMES, t_max, n_samples=n_samples)
    t_ref = via_ifft[0].t_grid
    via_pf = invert_partial_fractions(spec, ENTRY_NAMES, t_ref)
    table = dict(zip(ENTRY_NAMES, zip(via_ifft, via_pf)))
    discrepancy = max(0.0, *(float(np.abs(a.samples - b.samples).max())
                             for a, b in table.values()))
    return t_ref, table, discrepancy
