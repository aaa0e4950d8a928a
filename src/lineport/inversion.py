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
(Dubner & Abate, J. ACM 15, 1968; Crump, J. ACM 23, 1976). h is real, so
H(conj s) = conj H(s), bit for bit in float arithmetic: H is evaluated on
the contour's bins 0..n/2 and mirrored onto the rest. The entries of a
transfer matrix share its denominator, poles (``TransferMatrixSpec.poles``)
and contour, while each keeps its own arithmetic.

``invert_partial_fractions`` is the independent oracle: the residue sum
over the poles, which ``_confluent_rows`` takes as a divided difference, so
that nothing cancels as two poles meet; it shares only the poles with the
contour inversion.

``respond`` assembles (Phi_1, V_0) from the two source terms, each of the
form  c' * delta_dot(t) + c * delta(t) + regular(t); delta parts contribute
h * c, delta-dot parts dh/dt * c' from the same evaluator (never by numerical
differentiation), and regular parts a trapezoid convolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalPreconditionError, ValidationError
from .reduced_dynamics import _expm
from .signals import Signal, uniform_grid
from .spectral import ENTRY_NAMES, TransferMatrixSpec, _polyval_into

MIN_IFFT_SAMPLES = 1024
MAX_IFFT_SAMPLES = 2 ** 20
DEFAULT_IFFT_SAMPLES = 16384
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


def bromwich_ifft(nums, den, poles, t_max, n_samples=DEFAULT_IFFT_SAMPLES):
    """Numerically invert each row of ``nums``, a stack of numerators over
    the shared strictly proper denominator ``den`` whose roots are ``poles``,
    on [0, t_max]; one ``Signal`` per row.

    The rows share one contour, built once: s, den(s) and 1/(s+mu) on the
    bins k = 0..n/2 alone (fftfreq's frequencies k * (1/(n dt)), the last the
    Nyquist bin at -pi/dt), and the exp(sigma t), exp(-mu t) and alias-tail
    factors. Every row reuses one n-bin spectrum and a half-length Markov
    buffer: H minus the Markov sum fills bins 0..n/2, bins n/2+1..n-1 get the
    exact conjugates of bins n/2-1..1, the bits a full-contour evaluation
    gives, and the inverse FFT runs in place. Each row keeps its own
    subtraction, FFT and products, so every row equals a one-row stack bit
    for bit.

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

    half = n_samples // 2 + 1  # bins 0..n/2; bin n/2 is the Nyquist bin at -pi/dt
    s = np.empty(half, dtype=complex)  # sigma + i omega_k
    s.real = sigma
    s.imag = np.arange(half) * (1.0 / (n_samples * dt))  # fftfreq's k * (1/(n dt))
    s.imag[-1] *= -1.0
    s.imag *= 2.0 * np.pi
    den_on_contour = _polyval_into(np.empty_like(s), den, s)
    inverse = np.add(s, mu)
    np.divide(1.0, inverse, out=inverse)  # 1/(s + mu)
    g, markov_sum = np.empty(n_samples, dtype=complex), np.empty_like(s)
    h_on_contour = g[:half]
    t = dt * np.arange(n_samples // 4 + 1)  # the last is t_max
    head_decay = np.exp(-mu * t)
    tail_start = int(0.9 * n_samples)
    damp = np.exp(sigma * t)
    tail_growth = np.exp(sigma * (dt * np.arange(tail_start, n_samples)))
    signals = []
    for row, c in zip(rows, markov):
        _polyval_into(h_on_contour, row, s)
        h_on_contour /= den_on_contour
        _polyval_into(markov_sum, c[::-1], inverse)
        markov_sum *= inverse  # sum_k c_k (s + mu)^-k
        h_on_contour -= markov_sum
        np.conjugate(g[half - 2:0:-1], out=g[half:])  # bin n - k holds conj(bin k)
        np.fft.ifft(g, out=g)
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


def invert_ifft(spec: TransferMatrixSpec, t_max, n_samples=DEFAULT_IFFT_SAMPLES):
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


def _confluent_rows(spec: TransferMatrixSpec, t_grid, orders=(0,)):
    """The k-th time derivative of the four entries on the uniform ``t_grid``,
    one (4, len(t_grid)) array per k in ``orders``, rows in ``ENTRY_NAMES``
    order; an improper entry is refused.

    In x = s/omega_r, with den = a_3 (x - x_1)(x - x_2)(x - x_3), an entry
    scale * num(x)/den(x) has h(t) = scale omega_r f(omega_r t), where the
    residue sum f(tau) = sum_k num(x_k) exp(x_k tau)/den'(x_k) is the divided
    difference of num exp(tau .) over the poles, over a_3. That is the (1, 3)
    entry of num(Z) exp(tau Z)/a_3 for any Z whose resolvent has the (1, 3)
    entry 1/((z - x_1)(z - x_2)(z - x_3)) (Opitz, Z. Angew. Math. Mech. 44,
    T52, 1964; Higham, Functions of Matrices, 2008, 1.2). Z is real here: the
    pair x_2, x_3, complex or real, is the block [[a, 1], [c, a]] with
    a = (x_2 + x_3)/2 and c = ((x_2 - x_3)/2)^2, then x_1, the two blocks
    linked by a one. Nothing divides by a pole gap, so a double or near-double
    pair is no special case; d^k h/dt^k takes k more factors of omega_r Z. The
    columns exp(tau_j Z) e_3 come from exp(tau_0 Z) e_3 by powers of one
    exp(dtau Z), the filled columns doubled per pass.
    """
    for name in ENTRY_NAMES:
        if spec.relative_degree(name) <= 0:
            raise ValidationError(
                f"{name} is improper: split off the polynomial part before inversion")
    t_grid, dt = uniform_grid(t_grid)
    w = spec.omega_r
    x1, x2, x3 = spec.poles.poles / w
    a, half_gap = ((x2 + x3) / 2).real, (x2 - x3) / 2
    z = np.array([[a, 1.0, 0.0], [(half_gap * half_gap).real, a, 1.0], [0.0, 0.0, x1.real]])
    powers = [np.linalg.matrix_power(z, k)[0] for k in range(spec.numerators.shape[1])]
    weights = spec.numerators[:, ::-1] @ np.array(powers)  # e_1^T num(Z), one row per entry
    weights *= (spec.scales * w / spec.den[0])[:, None]
    columns = np.empty((3, len(t_grid)))
    columns[:, 0] = _expm(w * t_grid[0] * z)[:, 2]
    step, done = _expm(w * dt * z), 1
    while done < len(t_grid):
        k = min(done, len(t_grid) - done)
        columns[:, done:done + k] = step @ columns[:, :k]
        step, done = step @ step, done + k
    return [weights @ np.linalg.matrix_power(w * z, k) @ columns for k in orders]


def invert_partial_fractions(spec: TransferMatrixSpec, t_grid):
    """The analytic oracle: the four entries on the uniform ``t_grid`` from
    their poles alone (``_confluent_rows``), one ``Signal`` each in
    ``ENTRY_NAMES`` order; ``residues`` gives the poles and residues."""
    return [Signal.from_samples(t_grid, row) for row in _confluent_rows(spec, t_grid)[0]]


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
                    h, dh, t_grid, dt):
    """Response of one ``entry``, with samples ``h`` and dh/dt ``dh`` on
    ``t_grid``, to the source ``name``: its delta and delta-dot terms from
    those, its regular part by a trapezoid convolution."""
    if src.ddelta_coef != 0.0 and spec.relative_degree(entry) < 2:
        raise ValidationError(
            f"delta-dot source in {name} is inadmissible: {entry} has "
            f"relative degree {spec.relative_degree(entry)} < 2")
    total = src.delta_coef * h + src.ddelta_coef * dh
    if src.regular is not None and src.regular.samples.any():
        total += _convolve_trapezoid(h, src.regular(t_grid, extend="zero"), dt)
    return total


def respond(spec: TransferMatrixSpec, f1: SourceSpec, f2: SourceSpec,
            t_grid) -> tuple[Signal, Signal]:
    """Responses Phi_1 = h11*f1 + h12*f2 and V_0 = h21*f1 + h22*f2, from
    the four entries and their time derivatives (``_confluent_rows``).

    A delta-dot coefficient is admissible only against entries of relative
    degree >= 2 (so that dh/dt exists as a function); the line source f2
    meets h22 of relative degree one and therefore must not carry one.
    """
    t_grid, dt = uniform_grid(t_grid)
    hs, dhs = _confluent_rows(spec, t_grid, (0, 1))
    sources = (("f1", f1), ("f2", f2)) * 2  # the columns of h11, h12, h21, h22
    h11, h12, h21, h22 = (_entry_response(spec, entry, name, src, h, dh, t_grid, dt)
                          for entry, h, dh, (name, src) in zip(ENTRY_NAMES, hs, dhs, sources))
    return Signal.from_samples(t_grid, h11 + h12), Signal.from_samples(t_grid, h21 + h22)


def impulse_response_table(spec: TransferMatrixSpec, t_max, n_samples=DEFAULT_IFFT_SAMPLES):
    """All four entries by IFFT, on one contour, and by partial fractions on
    the IFFT grid, with the maximum pairwise discrepancy (used by the CLI)."""
    by_ifft = invert_ifft(spec, t_max, n_samples=n_samples)
    t_ref = by_ifft[0].t_grid
    table = dict(zip(ENTRY_NAMES, zip(by_ifft, invert_partial_fractions(spec, t_ref))))
    discrepancy = max(float(np.abs(a.samples - b.samples).max()) for a, b in table.values())
    return t_ref, table, discrepancy
