"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; tolerances are fixed here, not tuned elsewhere.
"""
import time

import numpy as np
import pytest

from lineport import (LadderSystem, ReducedState, assemble_rhs,
                      build_capacitance_matrix, char_poly, commutator_residual,
                      derive_reduced_model, find_poles, integrate, invert_ifft,
                      invert_partial_fractions, ladder_oracle, langevin_weak,
                      line_params, peak_envelope, pole_locus,
                      poly_backward_residual, propagator_of, stiffness_matrix,
                      transfer_matrix)
from lineport.spectral import ENTRY_NAMES

from conftest import lc_model, lc_topology, random_topology

TR = 2.0 * np.pi


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number}] {status}: {label}" + (f" ({detail})" if detail else ""),
          flush=True)
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_criterion_1_exact_identities():
    rng = np.random.default_rng(112233)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        topo = random_topology(rng, n_max=20)
        model = derive_reduced_model(topo, float(rng.uniform(0.5, 100.0)))
        n = model.n_nodes
        e1 = np.zeros(n)
        e1[0] = 1.0
        scale_cb = np.abs(model.cb).max() * max(1.0, np.abs(model.p).max())
        r1 = np.abs(model.cb @ model.p - e1).max() / scale_cb
        r2 = abs(1.0 / model.c_p - (1.0 / topo.coupling_capacitance + model.p[0])) \
            * model.c_p
        r3 = np.abs(model.a + model.b - model.cb_inv).max() / np.abs(model.cb_inv).max()
        worst = max(worst, r1, r2, r3)
    elapsed = time.perf_counter() - start
    report(1, "Cb p = e1, 1/C_p = 1/C_c + p1, A + B = Cb^-1 on 1000 random "
              "topologies at 1e-12 relative",
           worst <= 1e-12 and elapsed < 5.0,
           f"worst residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_stability_sweep():
    start = time.perf_counter()
    gs = np.linspace(0.005, 0.995, 100)          # 100 values in (0, 1)
    alphas = np.linspace(0.05, 5.0, 101)[1:]     # 100 values in (0.05, 5]
    worst_resid = 0.0
    max_real = -np.inf
    for g in gs:
        coeffs_row = [char_poly(g, alpha) for alpha in alphas]
        for coeffs in coeffs_row:
            ps = find_poles(coeffs)
            max_real = max(max_real, max(s.real for s in ps.poles))
            worst_resid = max(worst_resid,
                              max(poly_backward_residual(coeffs, s) for s in ps.poles))
    elapsed = time.perf_counter() - start
    report(2, "all poles strictly left of the imaginary axis on the 100x100 "
              "(g, alpha) grid with residual <= 1e-12",
           max_real < 0.0 and worst_resid <= 1e-12 and elapsed < 5.0,
           f"max Re {max_real:.2e}, worst residual {worst_resid:.2e}, {elapsed:.2f} s")


def test_criterion_3_weak_coupling_asymptotics():
    ok = True
    details = []
    for alpha, g in [(0.5, 0.02), (1.0, 0.01), (2.0, 0.005), (0.5, 0.01), (0.1, 0.1)]:
        ps = find_poles(char_poly(g, alpha))
        im_err = abs(abs(ps.s2.imag) - np.sqrt(1 - g)) / np.sqrt(1 - g)
        # the oscillatory decay rate is kappa/2 = alpha g^2 / 2 (the damping
        # coefficient kappa = omega_r alpha g^2 halves on the amplitude)
        re_err = abs(ps.s2.real + alpha * g * g / 2.0) / (alpha * g * g / 2.0)
        ok &= im_err <= 0.01 and re_err <= 0.10
        details.append(f"a={alpha} g={g}: dIm {im_err:.1e} dRe {re_err:.1e}")
    for alpha in (0.5, 1.0, 2.0):
        ps = find_poles(char_poly(0.001, alpha))
        s1_err = abs(ps.s1.real + 1.0 / (alpha * 0.001)) / (1.0 / (alpha * 0.001))
        ok &= ps.s1.imag == 0.0 and s1_err <= 0.05
        details.append(f"a={alpha} s1 {s1_err:.1e}")
    report(3, "weak-coupling pole asymptotics: Im ~ sqrt(1-g) (1%), "
              "Re ~ -alpha g^2/2 (10%), s1 ~ -1/(alpha g) (5%)",
           ok, "; ".join(details))


def test_criterion_4_pole_locus_fig4():
    g_grid = np.arange(0.001, 1.0, 0.001)
    ok = True
    details = []
    for alpha in (0.5, 1.0, 2.0):
        locus = pole_locus(alpha, g_grid)
        s1_start = locus.branches[0, 0]
        final = locus.branches[-1]
        real_final = final[np.abs(final.imag) == 0.0]
        diverges = abs(s1_start) >= 100.0
        approaches_zero = len(real_final) > 0 and np.abs(real_final).min() <= 0.01
        has_transition = bool(locus.transitions)
        ok &= diverges and approaches_zero
        ok &= has_transition if alpha == 0.5 else not has_transition
        details.append(f"a={alpha}: |s1(0.001)|={abs(s1_start):.0f}, "
                       f"min|real pole|(0.999)={np.abs(real_final).min():.1e}, "
                       f"transition={locus.transitions or None}")
    report(4, "pole loci: s1 diverges as g->0, a real pole -> 0 as g->1, "
              "aperiodic transition only for alpha=0.5",
           ok, "; ".join(details))


def impulse_initial_state(params, column):
    """Initial (phi1, q1, q0) whose free evolution equals one response column."""
    g = params.g
    if column == 1:
        return ReducedState(phi=[0.0], q=[params.c_r / (1 - g)],
                            q0=-g * params.c_r / (1 - g))
    return ReducedState(phi=[0.0], q=[0.0], q0=1.0 / params.z_c)


def test_criterion_5_oracle_triangle():
    start = time.perf_counter()
    ok = True
    details = []
    for g in (0.3, 0.8):
        model, topo, params = lc_model(g=g, alpha=2.0)
        spec = transfer_matrix(g, 2.0)
        k = stiffness_matrix(topo)
        sims = {}
        for column in (1, 2):
            first = invert_ifft(spec, 10 * TR, n_samples=16384)[0]
            traj = integrate(assemble_rhs(model, k),
                             impulse_initial_state(params, column), first.t_grid)
            sims[(1, column)] = traj.phi[:, 0]
            sims[(2, column)] = traj.v0
        row_col = {"h11": (1, 1), "h12": (1, 2), "h21": (2, 1), "h22": (2, 2)}
        worst_ab = worst_bc = worst_ac = 0.0
        all_ifft = invert_ifft(spec, 10 * TR, n_samples=16384)
        all_pf = invert_partial_fractions(spec, all_ifft[0].t_grid)
        for entry, via_ifft, via_pf in zip(ENTRY_NAMES, all_ifft, all_pf):
            sim = sims[row_col[entry]]
            scale = np.abs(via_pf.samples).max()
            worst_ab = max(worst_ab, np.abs(via_ifft.samples - via_pf.samples).max() / scale)
            worst_bc = max(worst_bc, np.abs(via_pf.samples - sim).max() / scale)
            worst_ac = max(worst_ac, np.abs(via_ifft.samples - sim).max() / scale)
        ok &= worst_ab <= 1e-6 and worst_bc <= 1e-4 and worst_ac <= 1e-4
        details.append(f"g={g}: ifft-pf {worst_ab:.1e}, pf-sim {worst_bc:.1e}, "
                       f"ifft-sim {worst_ac:.1e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(5, "impulse-response triangle: IFFT / partial fractions / "
              "time-domain simulation agree (1e-6, 1e-4 relative)",
           ok, "; ".join(details) + f", {elapsed:.2f} s")


def test_criterion_6_continuum_convergence():
    start = time.perf_counter()
    model, topo, params = lc_model(g=0.3, alpha=2.0)
    line = line_params(params.z_c, 1.0 / params.z_c)
    t_max = 10 * params.t_r
    t = np.linspace(0.0, t_max, 401)
    initial = ReducedState(phi=[1.0], q=[0.0], q0=0.0)
    reduced = integrate(assemble_rhs(model, stiffness_matrix(topo)), initial, t)
    norm = np.linalg.norm(reduced.phi[:, 0])
    errors = []
    for n_sec in (500, 1000, 2000, 4000):
        ladder = ladder_oracle(line, n_sec, 1.12 * line.v_p * t_max / 2.0,
                               topo, initial, t)
        errors.append(np.linalg.norm(ladder.phi[:, 0] - reduced.phi[:, 0]) / norm)
    elapsed = time.perf_counter() - start
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    report(6, "ladder -> reduced continuum limit: L2 error at 4000 sections "
              "<= 1% and monotone in section count",
           errors[-1] <= 0.01 and monotone and elapsed < 60.0,
           "errors " + ", ".join(f"{e:.2e}" for e in errors) + f", {elapsed:.2f} s")


def test_criterion_7_commutator_preservation():
    topo, params = lc_topology(g=0.3, alpha=2.0)
    line = line_params(params.z_c, 1.0 / params.z_c)
    system = LadderSystem(topo, line, 300, 20.0)
    dt = params.t_r / 1000.0
    prop = propagator_of(system, 5 * params.t_r, dt=dt)
    resid = commutator_residual(prop)
    report(7, "closed ladder+LC propagator symplectic over 5 T_r "
              "(leapfrog dt = T_r/1000) within 1e-8",
           resid <= 1e-8, f"residual {resid:.2e}")


def envelope_deviation(t, weak_samples, full_samples):
    tw, aw = peak_envelope(t, weak_samples)
    tf, af = peak_envelope(t, full_samples)
    common = (tf >= tw[0]) & (tf <= tw[-1])
    interp = np.interp(tf[common], tw, aw)
    return float(np.abs(interp - af[common]).max() / af[common].max())


def test_criterion_8_langevin_regime():
    # weak regime alpha g = 0.01
    g, alpha = 0.01, 1.0
    model, topo, params = lc_model(g=g, alpha=alpha)
    kappa = params.omega_r * alpha * g * g
    t = np.arange(0.0, 5.0 * (2.0 / kappa), params.t_r / 50.0)
    weak = langevin_weak(params, None, (1.0, 0.0), t)
    full = integrate(assemble_rhs(model, stiffness_matrix(topo)),
                     ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)
    dev_weak = envelope_deviation(t, weak.samples, full.phi[:, 0])

    # breakdown at alpha g = 1
    g2, alpha2 = 0.5, 2.0
    model2, topo2, params2 = lc_model(g=g2, alpha=alpha2)
    kappa2 = params2.omega_r * alpha2 * g2 * g2
    t2 = np.arange(0.0, 5.0 * (2.0 / kappa2), params2.t_r / 400.0)
    with pytest.warns(UserWarning):
        weak2 = langevin_weak(params2, None, (1.0, 0.0), t2)
    full2 = integrate(assemble_rhs(model2, stiffness_matrix(topo2)),
                      ReducedState(phi=[1.0], q=[0.0], q0=0.0), t2)
    dev_strong = envelope_deviation(t2, weak2.samples, full2.phi[:, 0])
    report(8, "Markovian weak-coupling model: envelope within 5% at "
              "alpha g = 0.01, off by > 20% at alpha g = 1",
           dev_weak <= 0.05 and dev_strong > 0.20,
           f"deviation {dev_weak:.3f} (weak), {dev_strong:.3f} (strong)")


def test_criterion_9_energy_conservation():
    topo, params = lc_topology(g=0.3, alpha=2.0)
    line = line_params(params.z_c, 1.0 / params.z_c)
    t_max = 10 * params.t_r
    t = np.linspace(0.0, t_max, 201)
    traj = ladder_oracle(line, 500, 1.12 * line.v_p * t_max / 2.0, topo,
                         ReducedState(phi=[1.0], q=[0.0], q0=0.0), t,
                         dt=params.t_r / 5000.0)
    drift = traj.meta["energy_drift"]
    report(9, "closed ladder+circuit Hamiltonian drift <= 1e-6 over 10 T_r",
           drift <= 1e-6, f"drift {drift:.2e}")
