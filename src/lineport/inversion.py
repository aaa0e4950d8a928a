"""Impulse responses: Bromwich-contour IFFT inversion and its analytic oracle.

``bromwich_ifft`` implements the numerical inversion

    h(t) ~= (exp(sigma t) / T) * IFFT[ H(sigma + i omega_k) ],

on a uniform grid with omega_k = 2 pi k / T. A strictly proper rational H
whose relative degree is below five produces a kink (or, at relative degree
one, a jump) of h at t = 0+, which a truncated Fourier sum resolves slowly;
the first MARKOV_TERMS = 4 terms of the large-s expansion are therefore
subtracted as c_m/(s+mu)^m on the contour and added back in closed form,
which leaves a C^3 remainder and restores fast convergence without
windowing. T is 4 t_max, and sigma puts the alias error at ALIAS_TARGET
(Dubner & Abate, J. ACM 15, 1968; Crump, J. ACM 23, 1976). The entries of a
transfer matrix share its denominator, poles (``TransferMatrixSpec.poles``)
and contour, while each keeps its own arithmetic.

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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalPreconditionError, ValidationError
from .signals import Signal, uniform_grid
from .spectral import ENTRY_NAMES, TransferMatrixSpec

MIN_IFFT_SAMPLES = 1024
MAX_IFFT_SAMPLES = 2 ** 20
ALIAS_TARGET = 1e-14  # exp(-(sigma + slowest decay) T), the alias error the contour targets
_LOG_INV_EPS = math.log(1.0 / ALIAS_TARGET)
MARKOV_TERMS = 4  # subtracted large-s terms; the remainder is C^(MARKOV_TERMS - 1)
_LOG_LIMIT = math.log(np.finfo(float).max / 16.0)  # a sum of 16 such terms still fits


def _proper_parts(num, den):
    """``num`` and ``den`` without leading zeros; refuses an improper num/den."""
    num = np.trim_zeros(np.asarray(num, dtype=float), "f")
    den = np.trim_zeros(np.asarray(den, dtype=float), "f")
    if len(num) >= len(den):
        raise ValidationError(
            "improper transfer function: the impulse response contains a "
            "delta(t) distributional part; numeric inversion refused")
    return num, den


def _markov_parameters(num, den, mu, count=MARKOV_TERMS):
    """Leading c_k of H(s) = sum_k c_k (s + mu)^-k at s -> infinity, for the
    trimmed proper ``num``/``den`` of ``_proper_parts``: H's h_k re-expanded."""
    nd = len(den) - 1
    nn = len(num) - 1
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
    return [sum(math.comb(k, j) * mu ** (k - j) * h[j] for j in range(k + 1))
            for k in range(count)]


def _refuse_t_max(coeff_rows, poles, t_max, n_samples):
    """Refuse a t_max outside [lo, hi], naming an --n or --t-max inside (1 %
    inside, for its 3 digits), in float logs free of inf and NaN. Above hi the
    fastest pole passes the Nyquist frequency pi n/(4 t_max), or exp(sigma t)
    the float range. Below hi every |s| on the contour is under (3 pi n +
    ln(1/ALIAS_TARGET))/(4 t_max); lo keeps that within the reach where
    |s|^MARKOV_TERMS (the Markov terms' scale) and each term c s^k of
    ``coeff_rows`` (numerators and den) stay finite. Both scale with n."""
    reach = _LOG_LIMIT / MARKOV_TERMS
    for row in coeff_rows:
        for power, c in enumerate(row[-2::-1], start=1):  # c s^power, constant skipped
            if c != 0.0:
                reach = min(reach, (_LOG_LIMIT - math.log(abs(c))) / power)
    fastest, growth = float(np.abs(poles).max()), float(poles.real.max())
    # growth's floor of 1e-300 also keeps the period 4 t_max finite
    cap = math.log((_LOG_LIMIT - _LOG_INV_EPS) / 4.0) - math.log(max(growth, 1e-300))
    lo = math.log((3.0 * math.pi * n_samples + _LOG_INV_EPS) / 4.0) - reach
    hi = min(cap, math.log(math.pi * n_samples / 4.0) - math.log(fastest)) if fastest else cap
    log_t = math.log(t_max)
    if lo <= log_t <= hi:
        return
    need = n_samples * 2 ** math.ceil((log_t - hi) / math.log(2.0)) if log_t > hi else 0
    if lo > hi:
        advice = "no t_max (--t-max) or n_samples (--n) would; scale the poles below that reach"
    elif log_t < lo:
        advice = f"use a t_max (--t-max) of at least {1.01 * math.exp(lo):.3g}"
    elif need <= MAX_IFFT_SAMPLES and log_t <= cap and lo + math.log(need / n_samples) <= log_t:
        advice = f"n_samples (--n) of at least {need} would resolve it"
    else:
        advice = (f"no n_samples (--n) up to {MAX_IFFT_SAMPLES} would; a t_max (--t-max) of "
                  f"at most {0.99 * math.exp(hi):.3g} would")
    raise NumericalPreconditionError(
        f"t_max = {t_max:.3g} lies outside the range where the contour at n_samples = "
        f"{n_samples} keeps the fastest pole (|s| = {fastest:.3g}) below its Nyquist frequency "
        f"pi n/(4 t_max), and itself (up to |s| = {math.exp(reach):.3g}), H and exp(sigma t) "
        f"in the float range; {advice}")


def bromwich_ifft(nums, den, poles, t_max, n_samples=16384):
    """Numerically invert each row of ``nums``, a stack of numerators over
    the shared strictly proper denominator ``den`` whose roots are ``poles``,
    on [0, t_max]; one ``Signal`` per row.

    The rows share one contour: den(s), 1/(s+mu) and the
    exp(sigma t), exp(-mu t) and alias-tail factors are built once, while each
    row keeps its own subtraction, FFT and products, so every row equals a
    one-row stack bit for bit.

    The FFT period is T = 4 t_max and sigma = -(slowest pole decay) +
    ln(1/ALIAS_TARGET)/T; mu is the fastest decay but at least 1/t_max.
    Returns the n_samples/4 + 1 samples on [0, t_max], with the imaginary
    residue, alias bound and contour parameters in ``signal.meta``, or
    refuses a t_max out of range (``_refuse_t_max``). In range the fastest
    pole is below pi n/T, so ln(1/ALIAS_TARGET)/T is over 1e-5 of the slowest
    decay: sigma clears every pole.
    """
    rows = np.asarray(nums, dtype=float)
    parts = [_proper_parts(row, den) for row in rows]  # refuses an improper num/den
    if t_max <= 0:
        raise ValidationError("t_max must be positive")
    n_samples = int(n_samples)
    if n_samples < MIN_IFFT_SAMPLES or (n_samples & (n_samples - 1)) != 0:
        raise ValidationError(
            f"n_samples must be a power of two >= {MIN_IFFT_SAMPLES}, got {n_samples}")
    poles = np.asarray(poles)
    _refuse_t_max([*(num for num, _ in parts), parts[0][1]], poles, float(t_max), n_samples)
    min_decay, max_decay = -poles.real.max(), -poles.real.min()
    period = 4.0 * t_max
    dt = period / n_samples
    sigma = -min_decay + _LOG_INV_EPS / period
    mu = max(max_decay, 1.0 / t_max)
    markov = [_markov_parameters(*part, mu) for part in parts]

    omega = 2.0 * np.pi * np.fft.fftfreq(n_samples, d=dt)
    s = sigma + 1j * omega
    den_on_contour = np.polyval(den, s)
    inverse = 1.0 / (s + mu)
    t_all = dt * np.arange(n_samples)
    t = t_all[:n_samples // 4 + 1]  # the last is t_max
    head_decay = np.exp(-mu * t)
    tail_start = int(0.9 * n_samples)
    damp = np.exp(sigma * t)
    tail_growth = np.exp(sigma * t_all[tail_start:])
    signals = []
    for row, c in zip(rows, markov):
        h_on_contour = np.polyval(row, s)
        h_on_contour /= den_on_contour
        h_on_contour -= inverse * np.polyval(c[::-1], inverse)  # sum_k c_k (s + mu)^-k
        g = np.fft.ifft(h_on_contour)
        g /= dt
        tail = np.abs(tail_growth * g.real[tail_start:])
        alias_bound = float(tail.max() * ALIAS_TARGET / (1.0 - ALIAS_TARGET))
        head = np.polyval([ck / math.factorial(k) for k, ck in enumerate(c)][::-1], t)
        h_vals = damp * g.real[:len(t)] + head_decay * head
        imag_residual = float(np.abs(damp * g.imag[:len(t)]).max())
        signals.append(Signal(t0=0.0, dt=dt, samples=h_vals,
                              meta={"sigma": float(sigma), "period": float(period),
                                    "n_samples": n_samples, "mu": float(mu),
                                    "imag_residual": imag_residual,
                                    "alias_bound": alias_bound}))
    return signals


def invert_ifft(spec: TransferMatrixSpec, t_max, n_samples=16384):
    """IFFT inversion of the four entries on one contour, one ``Signal``
    each in ``ENTRY_NAMES`` order (see ``bromwich_ifft``, which refuses an
    entry that is not strictly proper)."""
    nums, den = spec.physical
    return bromwich_ifft(nums, den, spec.poles.poles, t_max, n_samples=n_samples)


def residues(spec: TransferMatrixSpec):
    """Poles and residues in physical units, h(t) = sum R exp(s t): the
    poles, and one row of residues per entry in ``ENTRY_NAMES`` order."""
    nums, den = spec.physical
    s = spec.poles.poles
    slope = np.polyval(np.polyder(den), s)
    return s, np.array([np.polyval(num, s) / slope for num in nums])


def invert_partial_fractions(spec: TransferMatrixSpec, t_grid):
    """Analytic inversion by residue calculus (simple poles) of the four
    entries from one exp(s t) table, one ``Signal`` each in ``ENTRY_NAMES``
    order; each carries its poles and residues in ``meta``.

    A near-double root makes the residue representation ill-conditioned; in
    that case the result falls back to the IFFT inversion with a warning, and
    ``meta["ifft_fallback"]`` is true: no independent oracle ran.
    """
    for name in ENTRY_NAMES:
        if spec.relative_degree(name) <= 0:
            raise ValidationError(
                f"{name} is improper: split off the polynomial part before inversion")
    t_grid = np.asarray(t_grid, dtype=float)
    s, rs = residues(spec)
    fallback = "near-double-root" in spec.poles.flags
    if fallback:
        warnings.warn("near-double pole: partial fractions ill-conditioned, "
                      "falling back to IFFT inversion", stacklevel=2)
        sigs = invert_ifft(spec, float(t_grid[-1]), n_samples=16384)
        out = [Signal.from_samples(t_grid, np.interp(t_grid, sig.t_grid, sig.samples))
               for sig in sigs]
    else:
        growth = np.exp(np.outer(t_grid, s))
        out = [Signal.from_samples(t_grid, np.real(growth @ r)) for r in rs]
    for sig, r in zip(out, rs):
        sig.meta.update(poles=s, residues=r, ifft_fallback=fallback)
    return out


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
    s, rs = residues(spec)
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
    return Signal(t0=sig.t0, dt=sig.dt, samples=sig.samples / peak,
                  normalization=(float(peak), float(sig.t_grid[k])),
                  meta=dict(sig.meta))


def impulse_response_table(spec: TransferMatrixSpec, t_max, n_samples=16384):
    """All four entries by IFFT, on one contour, and by partial fractions on
    the IFFT grid, from one exp(s t) table, with the maximum pairwise
    discrepancy (used by the CLI); None when the partial fractions fell back
    to the IFFT, so that no oracle ran."""
    via_ifft = invert_ifft(spec, t_max, n_samples=n_samples)
    t_ref = via_ifft[0].t_grid
    via_pf = invert_partial_fractions(spec, t_ref)
    table = dict(zip(ENTRY_NAMES, zip(via_ifft, via_pf)))
    discrepancy = None if via_pf[0].meta["ifft_fallback"] else max(
        0.0, *(float(np.abs(a.samples - b.samples).max()) for a, b in table.values()))
    return t_ref, table, discrepancy
