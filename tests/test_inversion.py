import math
import re

import numpy as np
import pytest

from lineport import (NumericalPreconditionError, ReducedState, Signal,
                      SourceSpec, ValidationError, assemble_rhs, bromwich_ifft,
                      integrate, invert_ifft, invert_partial_fractions, peak_envelope,
                      residues, respond, sources_from_initial, stiffness_matrix,
                      transfer_matrix)
from lineport.inversion import (_LOG_INV_EPS, ALIAS_TARGET, MAX_IFFT_SAMPLES,
                                _markov_parameters, _proper_parts, impulse_response_table)
from lineport.spectral import ENTRY_NAMES, LcExampleParams, find_poles

from conftest import lc_model, traced_peak

TR = 2.0 * np.pi


class TestBromwichIfft:
    def test_langevin_kernel_pair(self):
        # 1/(s + 1/tau) <-> exp(-t/tau), the port memory kernel
        tau = 0.6
        (sig,) = bromwich_ifft(np.array([[1.0]]), np.array([1.0, 1.0 / tau]),
                               np.array([-1.0 / tau]), t_max=5.0, n_samples=8192)
        exact = np.exp(-sig.t_grid / tau)
        assert np.abs(sig.samples - exact).max() <= 1e-6
        assert sig.meta["imag_residual"] <= 1e-8

    def test_contour_must_clear_poles(self):
        """A right-half-plane pole at +1 is inverted, not refused: sigma =
        1 + ln(1e14)/20 clears it, and h = exp(t) on the n/4 + 1 samples of
        [0, t_max]."""
        (sig,) = bromwich_ifft(np.array([[1.0]]), np.array([1.0, -1.0]), np.array([1.0]),
                               t_max=5.0)
        assert len(sig.samples) == 16384 // 4 + 1 and sig.t_grid[-1] == 5.0
        assert sig.meta["sigma"] > 1.0
        assert np.abs(sig.samples - np.exp(sig.t_grid)).max() <= 1e-12 * np.exp(5.0)

    def test_sample_count_validation(self):
        num, den = np.array([[1.0]]), np.array([1.0, 1.0])
        with pytest.raises(ValidationError, match="power of two"):
            bromwich_ifft(num, den, np.array([-1.0]), 1.0, n_samples=3000)
        with pytest.raises(ValidationError, match="power of two"):
            bromwich_ifft(num, den, np.array([-1.0]), 1.0, n_samples=512)

    def test_t_max_must_be_positive(self):
        with pytest.raises(ValidationError, match="^t_max must be positive$"):
            bromwich_ifft(np.array([[1.0]]), np.array([1.0, 1.0]), np.array([-1.0]), 0.0)

    def test_improper_entry_refused(self):
        # at g=0, h22 = 1: a pure delta(t), not a function
        spec = transfer_matrix(0.0, 2.0)
        with pytest.raises(ValidationError, match="distributional"):
            invert_ifft(spec, t_max=10.0)

    @pytest.mark.parametrize("num", [[1.0, 2.0], [1.0, 0.0, 1.0]],
                             ids=["relative-degree-0", "relative-degree-minus-1"])
    def test_improper_num_den_refused(self, num):
        """bromwich_ifft itself refuses an improper num/den: the only such
        check on the IFFT path."""
        with pytest.raises(ValidationError, match="distributional"):
            bromwich_ifft(np.array([num]), np.array([1.0, 1.0]), np.array([-1.0]), t_max=5.0)

    @pytest.mark.parametrize("decay, n, advice", [
        pytest.param(1e4, 1024, "n_samples (--n) of at least 16384 would resolve it",
                     id="n-1024"),
        pytest.param(1e5, 65536, "n_samples (--n) of at least 131072 would resolve it",
                     id="n-65536"),
        pytest.param(1e9, 16384, f"no n_samples (--n) up to {MAX_IFFT_SAMPLES} would; a t_max "
                     "(--t-max) of at most 1.27e-05 would", id="beyond-cap")])
    def test_too_few_samples_refused(self, decay, n, advice):
        """A pole too fast for n samples over 4 t_max lies beyond the Nyquist
        frequency pi n/(4 t_max); the refusal names the pole and the n, or
        beyond the cap the t_max, that resolves it."""
        message = (f"t_max = 1 lies outside the range where the contour at n_samples = {n} "
                   f"keeps the fastest pole (|s| = {decay:.3g}) below its Nyquist frequency "
                   "pi n/(4 t_max), and itself (up to |s| = 5.79e+76), H and exp(sigma t) in "
                   f"the float range; {advice}")
        with pytest.raises(NumericalPreconditionError, match=f"^{re.escape(message)}$"):
            bromwich_ifft(np.array([[1.0]]), np.array([1.0, decay]), np.array([-decay]),
                          t_max=1.0, n_samples=n)

    @pytest.mark.parametrize("decay, t_max, n", [(1e4, 1.0, 16384), (1e5, 1.0, 131072),
                                                  (1e9, 1.27e-5, 16384)])
    def test_named_n_or_t_max_is_accepted(self, decay, t_max, n):
        """The n or t_max that ``test_too_few_samples_refused`` names gives an
        accurate inversion."""
        (sig,) = bromwich_ifft(np.array([[1.0]]), np.array([1.0, decay]), np.array([-decay]),
                               t_max=t_max, n_samples=n)
        assert np.abs(sig.samples - np.exp(-decay * sig.t_grid)).max() <= 1e-6

    @pytest.mark.parametrize("t_max, advice", [
        pytest.param(5e-324, "use a t_max (--t-max) of at least 6.74e-73", id="t-max-5e-324"),
        pytest.param(1e-100, "use a t_max (--t-max) of at least 6.74e-73", id="t-max-1e-100")])
    def test_t_max_below_range_refused(self, t_max, advice):
        """A t_max so small that the contour's |s| leaves the float range,
        long before the sample spacing underflows, is refused without a
        ZeroDivisionError or numpy warning."""
        with pytest.raises(NumericalPreconditionError, match=re.escape(advice)):
            bromwich_ifft(np.array([[1.0]]), np.array([1.0, 1.0]), np.array([-1.0]), t_max)

    def test_pole_beyond_every_range_refused(self):
        """A pole beyond the contour's reach at every t_max and n."""
        with pytest.raises(NumericalPreconditionError,
                           match=r"\|s\| = 1e\+100\).*no t_max \(--t-max\) or n_samples"):
            bromwich_ifft(np.array([[1.0]]), np.array([1.0, 1e100]), np.array([-1e100]), 1.0)

    def test_slow_pole_inverted(self):
        """A decay of 5e-7 no longer sets the period: the contour follows
        t_max, and h = exp(-5e-7 t) comes out to rounding (the former rule
        stretched the period to 4e7 and refused)."""
        (sig,) = bromwich_ifft(np.array([[1.0]]), np.array([1.0, 5e-7]), np.array([-5e-7]),
                               t_max=62.8, n_samples=2 ** 19)
        assert sig.meta["period"] == 4 * 62.8
        assert np.abs(sig.samples - np.exp(-5e-7 * sig.t_grid)).max() <= 1e-12
        assert sig.meta["alias_bound"] <= 1e-13

    @pytest.mark.parametrize("t_max", [5.73e4, 3.48e9])
    def test_alias_refusal_range_is_finite(self, t_max):
        (sig,) = bromwich_ifft(np.array([[1.0]]), np.array([1.0, 5e-7]), np.array([-5e-7]),
                               t_max=t_max, n_samples=2 ** 19)
        assert np.isfinite(sig.meta["alias_bound"])

    def test_stack_rows_equal_single_calls(self):
        """A stack of numerators shares one contour; each row equals its own
        one-row stack bit for bit."""
        den = np.array([1.0, 3.0, 2.0])
        poles = np.array([-2.0, -1.0])
        nums = np.array([[0.0, 1.0], [2.0, -1.0]])
        stacked = bromwich_ifft(nums, den, poles, t_max=5.0, n_samples=4096)
        assert len(stacked) == 2
        for row, sig in zip(nums, stacked):
            (single,) = bromwich_ifft(np.trim_zeros(row, "f")[None], den, poles, t_max=5.0,
                                      n_samples=4096)
            assert isinstance(single, Signal)
            assert np.array_equal(sig.samples, single.samples)
            assert (sig.t0, sig.dt, sig.meta) == (single.t0, single.dt, single.meta)


def former_bromwich_ifft(nums, den, poles, t_max, n_samples):
    """``bromwich_ifft`` as it was before it held its contour buffers, one new
    array per Horner step, product and FFT; its refusals are left out, as it
    only runs on accepted input here."""
    rows = np.asarray(nums, dtype=float)
    parts = [_proper_parts(row, den) for row in rows]
    poles = np.asarray(poles)
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
    t = t_all[:n_samples // 4 + 1]
    head_decay = np.exp(-mu * t)
    tail_start = int(0.9 * n_samples)
    damp = np.exp(sigma * t)
    tail_growth = np.exp(sigma * t_all[tail_start:])
    signals = []
    for row, c in zip(rows, markov):
        h_on_contour = np.polyval(row, s)
        h_on_contour /= den_on_contour
        h_on_contour -= inverse * np.polyval(c[::-1], inverse)
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


def assert_same_bits(got, want):
    """Equal samples, grid and ``meta``, bit for bit: a signed zero counts as
    a difference."""
    assert np.array_equal(got.samples.view(np.uint64), want.samples.view(np.uint64))
    assert (got.t0, got.dt) == (want.t0, want.dt)
    assert {k: v.hex() if isinstance(v, float) else v for k, v in got.meta.items()} == \
        {k: v.hex() if isinstance(v, float) else v for k, v in want.meta.items()}


class TestHeldContourBuffers:
    """``bromwich_ifft`` evaluates H, the Markov sum and the FFT in contour
    buffers that all rows share, with the bits of the former fresh arrays."""

    FORMER_CASES = [(0.3, 2.0), (0.8, 2.0), (0.5, 0.5), (0.97, 20.0),
                    (0.9368188312392204, 0.5)]

    @staticmethod
    def assert_former_bits(g, alpha, n, t_max):
        spec = transfer_matrix(g, alpha)
        nums, den = spec.physical
        got = bromwich_ifft(nums, den, spec.poles.poles, t_max, n_samples=n)
        want = former_bromwich_ifft(nums, den, spec.poles.poles, t_max, n)
        assert len(got) == len(want) == 4
        for a, b in zip(got, want):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("n", [1024, 16384, 65536])
    @pytest.mark.parametrize("g, alpha", FORMER_CASES)
    def test_bits_of_the_former_inversion(self, g, alpha, n):
        """Both sides of numpy's 256 KiB temporary reuse, which sets the
        operand order of the Markov product (``_times_inverse``), and the
        near-double point."""
        self.assert_former_bits(g, alpha, n, 10 * TR)

    @pytest.mark.parametrize("n", [1024, 16384, 65536])
    @pytest.mark.parametrize("g, alpha", FORMER_CASES)
    def test_bits_of_the_former_inversion_at_t_max_5(self, g, alpha, n):
        """The same cases on a second contour: sigma and mu follow t_max."""
        self.assert_former_bits(g, alpha, n, 5.0)

    @pytest.mark.parametrize("n", [4096, 16384])
    def test_each_row_of_a_four_row_stack_is_a_one_row_call(self, n):
        spec = transfer_matrix(0.3, 2.0)
        nums, den = spec.physical
        stacked = bromwich_ifft(nums, den, spec.poles.poles, 10 * TR, n_samples=n)
        for k, sig in enumerate(stacked):
            (single,) = bromwich_ifft(nums[k:k + 1], den, spec.poles.poles, 10 * TR,
                                      n_samples=n)
            assert_same_bits(sig, single)

    def test_traced_peak_of_a_four_row_stack(self):
        """Held buffers: at most 6.5 contour arrays (16 n bytes each) at the
        peak, against 8.86 when every step made a new array."""
        n = 65536
        spec = transfer_matrix(0.3, 2.0)
        nums, den = spec.physical
        peak = traced_peak(lambda: bromwich_ifft(nums, den, spec.poles.poles, 10 * TR,
                                                 n_samples=n))
        assert peak <= 6.5 * 16 * n

    def test_traced_peak_of_the_half_contour(self):
        """s, den(s), 1/(s + mu) and the Markov sum on bins 0..n/2 only: the
        peak is 4.35 contour arrays, against 6.36 with every bin evaluated."""
        n = 65536
        spec = transfer_matrix(0.3, 2.0)
        nums, den = spec.physical
        peak = traced_peak(lambda: bromwich_ifft(nums, den, spec.poles.poles, 10 * TR,
                                                 n_samples=n))
        assert peak <= 4.5 * 16 * n


def assert_same_signal(got, want):
    """Equal samples and grid, and equal ``meta``, arrays compared by value."""
    assert np.array_equal(got.samples, want.samples)
    assert (got.t0, got.dt) == (want.t0, want.dt)
    assert got.meta.keys() == want.meta.keys()
    for key, value in want.meta.items():
        assert np.array_equal(got.meta[key], value), key


class TestBatchedInversion:
    """``impulse_response_table`` inverts the four entries on one contour and
    from one exp(s t) table; it must equal the per-entry route exactly: each
    entry's IFFT as a one-row stack."""

    @staticmethod
    def per_entry_table(spec, t_max, n):
        table, discrepancy = {}, 0.0
        nums, den = spec.physical
        for k, entry in enumerate(ENTRY_NAMES):
            (via_ifft,) = bromwich_ifft(nums[k:k + 1], den, spec.poles.poles, t_max,
                                        n_samples=n)
            via_pf = invert_partial_fractions(spec, via_ifft.t_grid)[k]
            table[entry] = (via_ifft, via_pf)
            discrepancy = max(discrepancy,
                              float(np.abs(via_ifft.samples - via_pf.samples).max()))
        # a partial-fraction fallback to the IFFT is no oracle: no figure
        return via_ifft.t_grid, table, None if via_pf.meta["ifft_fallback"] else discrepancy

    def assert_same_table(self, spec, t_max, n):
        t_ref, table, discrepancy = impulse_response_table(spec, t_max, n)
        want_t, want, want_discrepancy = self.per_entry_table(spec, t_max, n)
        assert np.array_equal(t_ref, want_t)
        assert discrepancy == want_discrepancy
        for entry in ENTRY_NAMES:
            for got_sig, want_sig in zip(table[entry], want[entry]):
                assert_same_signal(got_sig, want_sig)
        s, r = residues(spec)
        nums, den = spec.physical
        for entry, num, r_entry in zip(ENTRY_NAMES, nums, r):
            assert np.array_equal(r_entry, np.polyval(num, s) / np.polyval(np.polyder(den), s))
            assert np.array_equal(table[entry][1].meta["residues"], r_entry)

    @pytest.mark.parametrize("omega_r", [1.0, 2.5])
    @pytest.mark.parametrize("alpha", [0.4, 2.0, 20.0])
    @pytest.mark.parametrize("g", [0.05, 0.3, 0.8, 0.97])
    def test_table_equals_per_entry_path(self, g, alpha, omega_r):
        self.assert_same_table(transfer_matrix(g, alpha, omega_r), 10 * TR / omega_r, 4096)

    def test_near_double_root_fallback(self):
        """At the aperiodic transition of alpha 0.5 the partial fractions fall
        back to the IFFT, for all four entries at once."""
        spec = transfer_matrix(0.936818831239, 0.5)
        assert "near-double-root" in spec.poles.flags
        with pytest.warns(UserWarning, match="near-double pole"):
            self.assert_same_table(spec, 10 * TR, 16384)

class TestAgainstPartialFractions:
    @pytest.mark.parametrize("g", [0.3, 0.8])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_all_entries_agree(self, g, alpha):
        n = 16384 if alpha == 2.0 else 131072
        spec = transfer_matrix(g, alpha)
        all_ifft = invert_ifft(spec, t_max=10 * TR, n_samples=n)
        all_pf = invert_partial_fractions(spec, all_ifft[0].t_grid)
        for via_ifft, via_pf in zip(all_ifft, all_pf):
            assert np.abs(via_ifft.samples - via_pf.samples).max() <= 1e-6

    def test_h21_normalized_agreement(self):
        spec = transfer_matrix(0.3, 2.0)
        via_ifft = invert_ifft(spec, t_max=10 * TR, n_samples=16384)[2]
        via_pf = invert_partial_fractions(spec, via_ifft.t_grid)[2]
        scale = np.abs(via_pf.samples).max()
        assert np.abs(via_ifft.samples / scale - via_pf.samples / scale).max() <= 1e-6


class TestAccuracy:
    """The relative IFFT-PF figure per entry (as the bench's impulse check
    computes it) at n = 16384 and t_max = 10 T_r, on points where the period
    rule max(4 t_max, 20/slowest decay) missed 1e-6 (0.11 at g 0.999,
    5.1e-3 at g 0.01 and alpha 50, 5.9e-4 at g 0.9 and alpha 50, 1.3e-6 at
    g 0.25 and alpha 1.5, inside the bench's laplace box) or refused (g
    0.999999)."""

    @pytest.mark.parametrize("g, alpha", [(0.999, 2.0), (0.999999, 2.0), (0.01, 50.0),
                                          (0.9, 50.0), (0.25, 1.5)])
    def test_relative_discrepancy_below_1e_6(self, g, alpha):
        _, table, _ = impulse_response_table(transfer_matrix(g, alpha), 10 * TR, 16384)
        for via_ifft, via_pf in table.values():
            err = np.abs(via_ifft.samples - via_pf.samples).max()
            assert err <= 1e-6 * np.abs(via_pf.samples).max()


class TestPartialFractions:
    def test_residue_consistency_identity(self):
        # sum_i R_i * den/(s - s_i) must reconstruct the numerator
        spec = transfer_matrix(0.3, 2.0, omega_r=1.3)
        nums, den_s = spec.physical
        s, rs = residues(spec)
        for num_s, r in zip(nums, rs):
            recon = np.zeros(len(den_s) - 1, dtype=complex)
            for si, ri in zip(s, r):
                quotient, _ = np.polydiv(den_s.astype(complex), np.array([1.0, -si]))
                recon += ri * quotient
            padded = np.zeros(len(recon))
            padded[len(recon) - len(num_s):] = num_s
            assert np.abs(recon.imag).max() <= 1e-12 * np.abs(recon.real).max()
            assert recon.real == pytest.approx(padded, rel=1e-9, abs=1e-12)

    def test_conjugate_pairing_keeps_signal_real(self):
        spec = transfer_matrix(0.3, 2.0)
        t = np.linspace(0.0, 10 * TR, 512)
        s, (r, *_) = residues(spec)
        complex_sum = np.exp(np.outer(t, s)) @ r
        assert np.abs(complex_sum.imag).max() <= 1e-14 * np.abs(complex_sum.real).max()

    def test_improper_entry_rejected(self):
        spec = transfer_matrix(0.0, 2.0)
        with pytest.raises(ValidationError, match="improper"):
            invert_partial_fractions(spec, np.linspace(0, 1, 64))


class TestDecayAndOscillation:
    @pytest.mark.parametrize("g", [0.3, 0.8])
    def test_tail_decay_matches_slowest_pole(self, g):
        spec = transfer_matrix(g, 2.0)
        ps = find_poles(spec.den)
        slowest = min(-s.real for s in ps.poles)
        t = np.linspace(0.0, 25 * TR, 20001)
        for sig in invert_partial_fractions(spec, t):
            tail = t >= 12 * TR
            x_t, x_a = t[tail], np.abs(sig.samples[tail])
            signs = np.sign(sig.samples[tail])
            if np.count_nonzero(np.diff(signs)) >= 4:
                x_t, x_a = peak_envelope(x_t, sig.samples[tail])
            keep = x_a > 1e-300
            slope = np.polyfit(x_t[keep], np.log(x_a[keep]), 1)[0]
            assert -slope == pytest.approx(slowest, rel=0.02)

    def test_h11_spectral_peak_at_pair_frequency(self):
        spec = transfer_matrix(0.3, 2.0)
        ps = find_poles(spec.den)
        t_max = 80 * TR
        n = 2 ** 14
        t = np.linspace(0.0, t_max, n, endpoint=False)
        sig = invert_partial_fractions(spec, t)[0]
        spectrum = np.abs(np.fft.rfft(sig.samples))
        freqs = np.fft.rfftfreq(n, d=t[1] - t[0])
        peak = freqs[np.argmax(spectrum)]
        assert abs(peak - ps.s2.imag / (2 * np.pi)) <= freqs[1]

    def test_h22_shape_invariance_under_omega_scaling(self):
        lam = 3.7
        t1 = np.linspace(0.0, 10 * TR, 4001)
        h_a, h_b = (invert_partial_fractions(transfer_matrix(0.3, 2.0, omega_r=w), t1 / w)[3]
                    .samples for w in (1.0, lam))
        assert np.abs(h_a / np.abs(h_a).max() - h_b / np.abs(h_b).max()).max() <= 1e-8


class TestRespond:
    def test_zero_sources_zero_response(self):
        spec = transfer_matrix(0.3, 2.0)
        t = np.linspace(0.0, 5 * TR, 512)
        phi1, v0 = respond(spec, SourceSpec(), SourceSpec(), t)
        assert not phi1.samples.any() and not v0.samples.any()

    def test_unit_delta_in_charge_slot(self):
        params = LcExampleParams.from_dimensionless(0.3, 2.0)
        spec = transfer_matrix(0.3, 2.0)
        t = np.linspace(0.0, 5 * TR, 512)
        phi1, _ = respond(spec, SourceSpec(delta_coef=1.0 / params.c_r),
                          SourceSpec(), t)
        h11 = invert_partial_fractions(spec, t)[0]
        assert phi1.samples == pytest.approx(h11.samples / params.c_r, rel=1e-12)

    def test_backward_dirac_pulse_gives_column_two(self):
        # backward voltage wave = 0.5 delta(t) means f2 = delta(t)
        spec = transfer_matrix(0.3, 2.0)
        t = np.linspace(0.0, 5 * TR, 512)
        phi1, v0 = respond(spec, SourceSpec(), SourceSpec(delta_coef=1.0), t)
        _, h12, _, h22 = invert_partial_fractions(spec, t)
        assert phi1.samples == pytest.approx(h12.samples, rel=1e-12, abs=1e-15)
        assert v0.samples == pytest.approx(h22.samples, rel=1e-12, abs=1e-15)

    def test_delta_dot_inadmissible_against_h22(self):
        spec = transfer_matrix(0.3, 2.0)
        t = np.linspace(0.0, TR, 64)
        with pytest.raises(ValidationError, match="relative degree"):
            respond(spec, SourceSpec(), SourceSpec(ddelta_coef=1.0), t)

    def test_delta_dot_matches_flux_displacement(self):
        # f1 = delta_dot is the response to a pure initial flux displacement
        g, alpha = 0.3, 2.0
        model, topo, params = lc_model(g, alpha)
        spec = transfer_matrix(g, alpha)
        t = np.linspace(0.0, 10 * TR, 2001)
        f1, f2 = sources_from_initial(params, phi1=1.0)
        assert f1.ddelta_coef == 1.0 and f1.delta_coef == 0.0 and f2.delta_coef == 0.0
        phi1, v0 = respond(spec, f1, f2, t)
        traj = integrate(assemble_rhs(model, stiffness_matrix(topo)),
                         ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)
        assert np.abs(phi1.samples - traj.phi[:, 0]).max() <= 1e-9
        assert np.abs(v0.samples - traj.v0).max() <= 1e-9 * np.abs(traj.v0).max()

    def test_regular_source_matches_time_domain(self):
        # smooth incoming wave: residue convolution vs direct integration
        g, alpha = 0.3, 2.0
        model, topo, params = lc_model(g, alpha)
        spec = transfer_matrix(g, alpha)
        t = np.linspace(0.0, 8 * TR, 8001)
        v_bwd = Signal.from_samples(t, 0.4 * np.exp(-((t - 2 * TR) / 2.0) ** 2))
        e0 = Signal.from_samples(t, 2.0 * v_bwd.samples)
        f1, f2 = sources_from_initial(params, v_bwd=v_bwd)
        phi1, v0 = respond(spec, f1, f2, t)
        traj = integrate(assemble_rhs(model, stiffness_matrix(topo), e0=e0),
                         ReducedState(phi=[0.0], q=[0.0], q0=0.0), t)
        scale = np.abs(traj.phi[:, 0]).max()
        assert np.abs(phi1.samples - traj.phi[:, 0]).max() <= 1e-3 * scale

    def test_sources_from_initial_column_structure(self):
        params = LcExampleParams.from_dimensionless(0.3, 2.0)
        g = params.g
        q1 = params.c_r / (1.0 - g)
        q0 = -g * params.c_r / (1.0 - g)
        f1, f2 = sources_from_initial(params, q1=q1, q0=q0)
        assert f1.delta_coef == pytest.approx(1.0, rel=1e-12)
        assert f2.delta_coef == pytest.approx(0.0, abs=1e-15)
        f1b, f2b = sources_from_initial(params, q0=1.0 / params.z_c)
        assert f1b.delta_coef == pytest.approx(0.0, abs=1e-15)
        assert f2b.delta_coef == pytest.approx(1.0, rel=1e-12)
