import re
import warnings

import numpy as np
import pytest

from lineport import (NumericalPreconditionError, ValidationError, char_poly,
                      classify_modes, find_poles, pole_locus, poly_backward_residual,
                      transfer_eval, transfer_matrix, weak_coupling)
from lineport.spectral import LcExampleParams, _poles_of_rows, _track_branches


class TestCharPoly:
    def test_decoupled(self):
        assert np.allclose(char_poly(0.0, 2.0), [0.0, 1.0, 0.0, 1.0])

    def test_short_circuit_limit_has_zero_root(self):
        coeffs = char_poly(1.0, 0.7)
        assert coeffs[-1] == 0.0
        ps = find_poles(coeffs)
        assert min(abs(s) for s in ps.poles) == 0.0

    def test_reference_point(self):
        assert np.allclose(char_poly(0.3, 2.0), [0.6, 1.0, 0.6, 0.7])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            char_poly(-0.1, 1.0)
        with pytest.raises(ValidationError):
            char_poly(0.5, 0.0)


class TestFindPoles:
    def test_decoupled_pair(self):
        ps = find_poles(char_poly(0.0, 1.0), omega_r=2.5)
        assert "reduced-order" in ps.flags
        assert ps.poles == pytest.approx([2.5j, -2.5j])

    def test_reference_roots_and_residuals(self):
        # reference values from an independent companion-matrix solve
        ps = find_poles(char_poly(0.3, 2.0))
        assert ps.s1 == pytest.approx(-1.5149209266471326, rel=1e-10)
        assert ps.s2 == pytest.approx(-0.07587287000976699 + 0.8742771359879736j, rel=1e-10)
        assert ps.s3 == pytest.approx(np.conj(ps.s2), rel=0, abs=0)
        for s in ps.poles:
            assert poly_backward_residual(char_poly(0.3, 2.0), s) <= 1e-12

    def test_conjugate_closure_exact(self):
        for g, alpha in [(0.2, 0.8), (0.5, 3.0), (0.9, 0.4)]:
            ps = find_poles(char_poly(g, alpha))
            assert set(np.round(ps.poles, 15)) == set(np.round(np.conj(ps.poles), 15))

    def test_weak_coupling_asymptotics(self):
        for alpha, g in [(0.5, 0.01), (1.0, 0.01), (2.0, 0.005)]:
            ps = find_poles(char_poly(g, alpha))
            assert abs(ps.s2.imag - np.sqrt(1 - g)) <= 0.01 * np.sqrt(1 - g)
            assert abs(ps.s2.real + alpha * g * g / 2.0) <= 0.1 * alpha * g * g / 2.0

    @pytest.mark.xfail(strict=True,
                       reason="factor-2 pitfall: the oscillatory decay is "
                              "alpha g^2 / 2, not alpha g^2; kept to document it")
    def test_decay_asymptote_without_the_half(self):
        alpha, g = 1.0, 0.01
        ps = find_poles(char_poly(g, alpha))
        assert abs(ps.s2.real + alpha * g * g) <= 0.1 * alpha * g * g

    def test_triple_real_ordering(self):
        ps = find_poles(char_poly(0.99, 0.3))
        assert "aperiodic-triple" in ps.flags
        assert all(s.imag == 0.0 for s in ps.poles)
        assert ps.s1.real == min(s.real for s in ps.poles)
        assert ps.s2.real == max(s.real for s in ps.poles)

    def test_near_double_root_flagged(self):
        # at the aperiodic transition the oscillatory pair collides
        alpha = 0.5
        from scipy.optimize import brentq
        def min_im(g):
            ps = find_poles(char_poly(g, alpha))
            return abs(ps.s2.imag) - 1e-6
        g_c = brentq(min_im, 0.9, 0.97, xtol=1e-13)
        ps = find_poles(char_poly(g_c, alpha))
        assert "near-double-root" in ps.flags

    @pytest.mark.parametrize("g, alpha", [(1e-100, 2.0), (0.2237, 1e-16), (0.5765, 2.8e-100)])
    def test_far_root_flags_no_pair(self, g, alpha):
        """One root far out (-1/(alpha g)) leaves the well-separated pair
        near the unit circle unflagged: each pair is judged on its own scale."""
        ps = find_poles(char_poly(g, alpha))
        assert abs(ps.s1) > 1e15
        assert "near-double-root" not in ps.flags

    @pytest.mark.parametrize("coeffs", [[1.0, 2.0], [2.0, 0.0], [1.0, 3.0, 2.0],
                                        [1.0, 0.0, 4.0]],
                             ids=["degree-1", "zero-root", "degree-2-real", "degree-2-pair"])
    def test_low_degree_against_np_roots(self, coeffs):
        ps = find_poles(coeffs)
        want = np.sort(np.roots(coeffs).astype(complex))
        assert np.sort(ps.poles) == pytest.approx(want, rel=1e-14, abs=1e-300)
        assert "near-double-root" not in ps.flags

    @pytest.mark.parametrize("coeffs, degree", [
        ([3.0], "degree 0"), ([0.0, 1.0], "degree 0"),
        ([0.0, 0.0], "degree undefined (the zero polynomial)")],
        ids=["constant", "constant-after-strip", "zero-polynomial"])
    def test_below_degree_one_refused(self, coeffs, degree):
        with pytest.raises(ValidationError, match=r"degree >= 1, got " + re.escape(degree)):
            find_poles(coeffs)


def former_backward_residual(coeffs, x):
    """The former ``poly_backward_residual``: a sum over a table of powers."""
    coeffs = np.asarray(coeffs, dtype=float)
    terms = coeffs * x ** np.arange(len(coeffs) - 1, -1, -1)
    return float(abs(np.sum(terms)) / max(np.abs(terms).max(), np.abs(coeffs).max()))


class TestBackwardResidual:
    def test_matches_former_power_sum(self, rng):
        """The one-row call of the batched residual keeps the former
        definition. Horner and the power sum round p(x) differently, each by
        at most about 2n(n+1) rounding units of the largest term, which both
        divide by: for the cubic the two agree to 64 eps, fixed from that
        bound with a margin for complex arithmetic, at the roots and away
        from them."""
        eps = np.finfo(float).eps
        for _ in range(500):
            coeffs = char_poly(rng.uniform(0.01, 0.99), np.exp(rng.uniform(-5.0, 5.0)))
            points = [*find_poles(coeffs).poles, rng.normal(), rng.normal() * 1e3,
                      complex(*rng.normal(size=2)) * np.exp(rng.uniform(-3.0, 3.0))]
            for x in points:
                got, want = poly_backward_residual(coeffs, x), former_backward_residual(coeffs, x)
                assert abs(got - want) <= 64 * eps


class TestClassify:
    def test_mixed(self):
        labels = classify_modes(find_poles(char_poly(0.3, 2.0)))
        assert labels == ["aperiodic", "oscillatory", "oscillatory"]

    def test_triple_aperiodic(self):
        labels = classify_modes(find_poles(char_poly(0.99, 0.3)))
        assert labels == ["aperiodic"] * 3

    def test_decoupled_pure_oscillation(self):
        ps = find_poles(char_poly(0.0, 1.0))
        assert classify_modes(ps) == ["oscillatory", "oscillatory"]
        assert all(s.real == 0.0 for s in ps.poles)


def independent_inverse(g, alpha, omega_r, s):
    """H^-1 assembled directly from the Laplace-transformed circuit pair:
    row 1: (s^2 + wr^2 (1-g)) Phi - g s V0 = F1
    row 2: tau wr^2 Phi + (tau s + 1) V0 = F2
    """
    tau = alpha * g / omega_r
    return np.array([
        [s ** 2 + omega_r ** 2 * (1.0 - g), -g * s],
        [tau * omega_r ** 2, tau * s + 1.0],
    ], dtype=complex)


class TestTransferMatrix:
    def test_decoupled_h22_is_unity(self):
        spec = transfer_matrix(0.0, 1.7)
        h = transfer_eval(spec, 0.3 + 0.4j)
        assert h[1, 1] == pytest.approx(1.0, rel=1e-14)

    def test_values_at_origin(self):
        g, alpha, wr = 0.3, 2.0, 1.4
        spec = transfer_matrix(g, alpha, wr)
        h = transfer_eval(spec, 0.0)
        assert h[0, 0] == pytest.approx(1.0 / (wr ** 2 * (1 - g)), rel=1e-14)
        assert h[1, 1] == pytest.approx(1.0, rel=1e-14)
        assert h[0, 1] == pytest.approx(0.0, abs=1e-16)
        assert h[1, 0] == pytest.approx(-alpha * g / (wr * (1 - g)), rel=1e-14)

    def test_h22_depends_only_on_s_over_omega(self):
        g, alpha = 0.45, 1.2
        s = 0.7 + 0.2j
        for lam in (2.0, 5.0, 0.3):
            h1 = transfer_eval(transfer_matrix(g, alpha, 1.0), s)[1, 1]
            h2 = transfer_eval(transfer_matrix(g, alpha, lam), lam * s)[1, 1]
            assert h2 == pytest.approx(h1, rel=1e-13)

    def test_inverse_identity(self):
        # H(s) @ H^-1(s) = I with H^-1 assembled independently; this pins the
        # g (not alpha g) factor in the 12 entry
        rng = np.random.default_rng(5)
        for g, alpha, wr in [(0.3, 2.0, 1.0), (0.8, 0.5, 2.2), (0.15, 3.1, 0.7)]:
            spec = transfer_matrix(g, alpha, wr)
            for _ in range(4):
                s = complex(rng.normal(), rng.normal()) * wr
                h = transfer_eval(spec, s)
                prod = h @ independent_inverse(g, alpha, wr, s)
                assert np.abs(prod - np.eye(2)).max() <= 1e-12

    def test_evaluation_at_pole_rejected(self):
        spec = transfer_matrix(0.3, 2.0)
        ps = find_poles(spec.den)
        with pytest.raises(ValidationError, match="pole"):
            transfer_eval(spec, ps.s1)

    def test_spec_finds_its_poles_once(self):
        spec = transfer_matrix(0.3, 2.0, omega_r=1.3)
        assert spec.poles is spec.poles
        assert np.array_equal(spec.poles.poles, find_poles(spec.den, 1.3).poles)

    def test_relative_degrees(self):
        spec = transfer_matrix(0.3, 2.0)
        assert spec.relative_degree("h11") == 2
        assert spec.relative_degree("h12") == 2
        assert spec.relative_degree("h21") == 3
        assert spec.relative_degree("h22") == 1

    @pytest.mark.parametrize("omega_r", [1e200, 1e120, 1e-120])
    def test_omega_r_outside_range_refused(self, omega_r):
        """omega_r outside OMEGA_R_RANGE is refused by name before any
        arithmetic: no OverflowError, no numpy warning, no later refusal."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalPreconditionError,
                               match=re.escape(f"omega_r {omega_r:g} lies outside [1e-100, 1e+100]")):
                transfer_matrix(0.3, 2.0, omega_r=omega_r)

    def test_spec_stores_one_numerator_array(self):
        """The entries are one padded numerator array and one scale array in
        ENTRY_NAMES order, converted to physical s once."""
        spec = transfer_matrix(0.3, 2.0, omega_r=1.3)
        assert spec.numerators.shape == (4, 3) and spec.scales.shape == (4,)
        assert spec.physical is spec.physical
        nums, den = spec.physical
        assert nums.shape == (4, 3)
        assert den == pytest.approx(spec.den / 1.3 ** np.arange(3, -1, -1), rel=1e-15)


class TestWeakCoupling:
    def test_decoupled(self):
        omega, kappa = weak_coupling(0.0, 1.0, omega_r=3.0)
        assert omega == 3.0 and kappa == 0.0

    def test_formula_arithmetic(self):
        omega, kappa = weak_coupling(0.01, 0.5)
        assert kappa == pytest.approx(5e-5, rel=1e-12)
        assert omega == pytest.approx(0.99498743710662, rel=1e-12)

    def test_agreement_with_poles(self):
        for alpha, g in [(0.5, 0.02), (1.0, 0.01), (0.25, 0.04)]:
            omega, kappa = weak_coupling(g, alpha)
            ps = find_poles(char_poly(g, alpha))
            assert abs(ps.s2.imag) == pytest.approx(omega, rel=0.01)
            assert abs(ps.s2.real) == pytest.approx(kappa / 2.0, rel=0.1)

    def test_regime_warning(self):
        with pytest.warns(UserWarning, match="regime"):
            weak_coupling(0.5, 1.0)


def reference_order(roots):
    real_mask = np.abs(roots.imag) <= 1e-9 * np.maximum(np.abs(roots), 1.0)
    reals = np.sort(roots[real_mask].real)
    complexes = roots[~real_mask]
    if len(complexes) == 2:
        pair_re = complexes.real.mean()
        pair_im = np.abs(complexes.imag).mean()
        ordered = [complex(r) for r in reals]
        ordered += [pair_re + 1j * pair_im, pair_re - 1j * pair_im]
        return np.array(ordered)
    assert len(complexes) == 0
    if len(reals) == 3:
        return np.array([reals[0], reals[2], reals[1]], dtype=complex)
    return reals.astype(complex)


def reference_locus(alpha, g_grid):
    """Pole locus one g at a time, as computed before the batched core."""
    branches = np.empty((len(g_grid), 3), dtype=complex)
    prev = None
    for i, g in enumerate(g_grid):
        work = np.array([alpha * g, 1.0, alpha * g, 1.0 - g])
        roots = np.roots(work)
        deriv = np.polyval(np.polyder(work), roots)
        ok = np.abs(deriv) > 0
        roots[ok] = roots[ok] - np.polyval(work, roots[ok]) / deriv[ok]
        roots = reference_order(roots) * 1.0  # find_poles' omega_r scaling
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
        hit = np.where(np.abs(im) == 0.0)[0]
        if np.abs(im[0]) > 0 and len(hit):
            transitions[k] = float(g_grid[hit[0]])
    return branches, transitions


class TestPoleLocus:
    def test_transition_only_for_small_alpha(self):
        g_grid = np.arange(0.001, 1.0, 0.001)
        locus_05 = pole_locus(0.5, g_grid)
        assert locus_05.transitions, "alpha=0.5 must lose its oscillatory pair"
        g_c = min(locus_05.transitions.values())
        assert 0.9 < g_c < 1.0
        for alpha in (1.0, 2.0):
            locus = pole_locus(alpha, g_grid)
            ims = locus.branches.imag
            pair_cols = [k for k in range(3) if abs(ims[0, k]) > 0]
            assert not locus.transitions
            assert np.all(np.abs(ims[:, pair_cols]) > 0)

    def test_s1_asymptote_small_g(self):
        for alpha in (0.5, 1.0, 2.0):
            locus = pole_locus(alpha, np.array([0.001, 0.002]))
            s1 = locus.branches[0, 0]
            assert s1.imag == 0.0
            assert s1.real == pytest.approx(-1.0 / (alpha * 0.001), rel=0.05)

    def test_near_zero_real_pole_at_large_g(self):
        # a real pole approaches 0 as g -> 1 for every alpha; for alpha <= 0.5
        # it is the branch continued from the formerly oscillatory pair
        g_grid = np.arange(0.001, 1.0, 0.001)
        for alpha in (0.5, 1.0, 2.0):
            locus = pole_locus(alpha, g_grid)
            final = locus.branches[-1]
            real_final = final[np.abs(final.imag) == 0.0]
            assert len(real_final) >= 1
            assert np.abs(real_final).min() <= 0.01

    def test_branch_continuity(self):
        g_grid = np.arange(0.3, 0.7, 1e-3)
        locus = pole_locus(2.0, g_grid)
        steps = np.abs(np.diff(locus.branches, axis=0))
        ratios = steps[1:] / np.maximum(steps[:-1], 1e-15)
        assert ratios.max() <= 10.0

    def test_branch_continuity_through_transition(self):
        # the square-root collision at the aperiodic transition stays within
        # the 10x step-growth bound at 1e-3 resolution
        g_grid = np.arange(0.90, 0.98, 1e-3)
        locus = pole_locus(0.5, g_grid)
        steps = np.abs(np.diff(locus.branches, axis=0))
        ratios = steps[1:] / np.maximum(steps[:-1], 1e-15)
        assert ratios.max() <= 10.0

    def test_residuals_along_locus(self):
        g_grid = np.linspace(0.05, 0.95, 19)
        for alpha in (0.5, 2.0):
            locus = pole_locus(alpha, g_grid)
            for g, row in zip(g_grid, locus.branches):
                coeffs = char_poly(g, alpha)
                for s in row:
                    assert poly_backward_residual(coeffs, s) <= 1e-12

    def test_rejects_bad_grid(self):
        with pytest.raises(ValidationError):
            pole_locus(1.0, np.array([0.0, 0.5]))
        with pytest.raises(ValidationError):
            pole_locus(1.0, np.array([0.5, 0.4]))
        for grid in ([], np.array([[0.2, 0.4]])):
            with pytest.raises(ValidationError, match="non-empty 1-D"):
                pole_locus(1.0, grid)
        with pytest.raises(NumericalPreconditionError, match="underflows"):
            pole_locus(5e-324, np.array([0.5]))

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 2.0, 20.0, *np.exp(
        np.random.default_rng(7).uniform(np.log(0.05), np.log(20.0), 4))])
    def test_matches_per_g_loop(self, alpha):
        # the batched locus equals, bit for bit, the former route: np.roots
        # per g, one Newton step, per-g ordering and greedy matching
        g_grid = np.arange(0.001, 0.999 + 0.0005, 0.001)
        g_grid = g_grid[(g_grid > 0.0) & (g_grid < 1.0)]
        branches, transitions = reference_locus(alpha, g_grid)
        locus = pole_locus(alpha, g_grid)
        assert np.array_equal(locus.branches, branches)
        assert locus.transitions == transitions


def greedy_branches(rows):
    """The former matching, kept as the reference: each branch in turn takes
    the nearest remaining root of the next row, the first of equally near
    roots winning."""
    rows = rows.tolist()
    tracked = [rows[0]]
    for remaining in rows[1:]:
        matched = []
        for target in tracked[-1]:
            dist = [abs(root - target) for root in remaining]
            matched.append(remaining.pop(dist.index(min(dist))))
        tracked.append(matched)
    return np.array(tracked, dtype=complex)


def step_displacements(branches):
    """Per step, the three branch moves summed in ascending order, as the
    tracker sums them, so equal moves give equal sums."""
    return np.sort(np.abs(np.diff(branches, axis=0)), axis=1).sum(axis=1)


DEFAULT_G_GRID = np.arange(0.001, 0.999 + 0.0005, 0.001)


class TestBranchTracking:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_default_grid_unchanged_from_greedy(self, alpha):
        rows = _poles_of_rows(char_poly(DEFAULT_G_GRID, alpha))[0]
        assert np.array_equal(pole_locus(alpha, DEFAULT_G_GRID).branches, greedy_branches(rows))

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.4, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("points", [99, 999, 5000])
    def test_never_moves_more_than_greedy(self, alpha, points):
        """The best of the six assignments is chosen at every step, and the
        greedy pairing is one of them: no step, and so no total, moves more."""
        g_grid = np.linspace(0.0001, 0.9999, points)
        rows = _poles_of_rows(char_poly(g_grid, alpha))[0]
        best = step_displacements(_track_branches(rows))
        greedy = step_displacements(greedy_branches(rows))
        assert np.all(best <= greedy)
        assert best.sum() <= greedy.sum()

    def test_differs_where_greedy_steals(self):
        """The roots at 0 and 1 move to 0.9 and -1.05. Greedy gives 0, the
        first branch, its nearest root 0.9, which leaves 1 to travel to -1.05
        (total 2.95); the best assignment moves 0 to -1.05 and 1 to 0.9
        (total 1.15). A third row, in another order, checks the composition."""
        rows = np.array([[-10.0, 0.0, 1.0],
                         [-10.0, 0.9, -1.05],
                         [-1.1, -10.0, 1.0]], dtype=complex)
        assert np.array_equal(greedy_branches(rows), [[-10.0, 0.0, 1.0],
                                                      [-10.0, 0.9, -1.05],
                                                      [-10.0, 1.0, -1.1]])
        assert np.array_equal(_track_branches(rows), [[-10.0, 0.0, 1.0],
                                                      [-10.0, -1.05, 0.9],
                                                      [-10.0, -1.1, 1.0]])
        assert step_displacements(_track_branches(rows)).sum() == pytest.approx(1.3)
        assert step_displacements(greedy_branches(rows)).sum() == pytest.approx(3.1)

    def test_tie_goes_to_the_nearer_root(self):
        """A conjugate pair splitting into two real roots: both assignments
        move the pair by the same total, and the earlier root of the pair
        (+Im) takes the nearer real root, -0.55, as greedy matching does."""
        rows = np.array([[-10.0, -0.5 + 0.1j, -0.5 - 0.1j],
                         [-10.0, -0.3, -0.55]])
        want = [[-10.0, -0.5 + 0.1j, -0.5 - 0.1j], [-10.0, -0.55, -0.3]]
        assert np.array_equal(greedy_branches(rows), want)
        assert np.array_equal(_track_branches(rows), want)

    @pytest.mark.parametrize("alpha, g_grid", [
        pytest.param(0.39769908928453795, np.linspace(0.01, 0.99, 99), id="99-points"),
        pytest.param(0.02511242479240059, np.linspace(0.0001, 0.9999, 5000), id="5000-points"),
    ])
    def test_tie_at_pair_split_is_exact(self, alpha, g_grid):
        """On these grids the three moves summed in index order round the
        two assignments at the pair's split one ulp apart; summed in
        ascending order they tie exactly, and the tie rule keeps greedy's
        branches."""
        rows = _poles_of_rows(char_poly(g_grid, alpha))[0]
        assert np.array_equal(_track_branches(rows), greedy_branches(rows))

    def test_undoes_shuffled_rows(self, rng):
        """Three well-separated smooth branches, every row shuffled: the
        composed per-step assignments restore the branches in row 0's order."""
        t = np.linspace(0.0, 1.0, 777)[:, None]
        smooth = np.array([-3.0, 1j, 2.0 - 1j]) + 0.5 * np.exp(2j * np.pi * t * [1.0, 2.0, 3.0])
        shuffled = np.array([row[rng.permutation(3)] for row in smooth])
        order = [list(smooth[0]).index(root) for root in shuffled[0]]
        assert np.array_equal(_track_branches(shuffled), smooth[:, order])


class TestStability:
    def test_left_half_plane_over_grid(self):
        # Routh-Hurwitz: a2 a1 - a3 a0 = alpha g^2 > 0 for g in (0,1)
        gs = np.linspace(0.01, 0.99, 50)
        alphas = np.linspace(0.05, 5.0, 40)
        for g in gs:
            for alpha in alphas:
                coeffs = char_poly(g, alpha)
                assert coeffs[1] * coeffs[2] > coeffs[0] * coeffs[3]
                ps = find_poles(coeffs)
                assert all(s.real < 0 for s in ps.poles)


class TestLcParams:
    def test_dimensionless_round_trip(self):
        params = LcExampleParams.from_dimensionless(0.3, 2.0, omega_r=1.5)
        assert params.g == pytest.approx(0.3, rel=1e-14)
        assert params.alpha == pytest.approx(2.0, rel=1e-14)
        assert params.omega_r == pytest.approx(1.5, rel=1e-14)
        assert params.c_p == pytest.approx(params.c_c * params.c_r
                                           / (params.c_c + params.c_r), rel=1e-14)
        assert params.tau == pytest.approx(params.z_c * params.c_p, rel=1e-14)

    def test_bounds(self):
        with pytest.raises(ValidationError):
            LcExampleParams.from_dimensionless(1.0, 1.0)
        with pytest.raises(ValidationError):
            LcExampleParams.from_dimensionless(0.5, -1.0)
