import re
import warnings
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest

from lineport import (LadderSystem, LineInitialState, NumericalPreconditionError,
                      ReducedState, StateSpace, ValidationError, assemble_rhs,
                      build_capacitance_matrix, char_poly, derive_reduced_model,
                      find_poles, integrate, ladder_oracle, langevin_form,
                      line_params, parse_netlist, peak_envelope, reduce_ground,
                      stiffness_matrix, thevenin_source)
from lineport.netlist import junction_kernel
from lineport.reduced_dynamics import (CACHE_LINE, _cache_aligned,
                                       _lti_step_operators, _propagate_affine)
from lineport.signals import Signal

from conftest import lc_model, random_topology, traced_peak


def lc_line(params, v_p=1.0):
    """Line constants realizing the example's Z_c at propagation speed v_p."""
    return line_params(params.z_c / v_p, 1.0 / (params.z_c * v_p))


class TestRhs:
    def test_pure_q0_decay(self):
        # with a flat potential the port equation is the scalar ODE dQ0/dt = -Q0/tau
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        rhs = assemble_rhs(model, np.zeros((1, 1)))
        t = np.linspace(0.0, 5.0 * model.tau, 2001)
        traj = integrate(rhs, ReducedState(phi=[0.0], q=[0.0], q0=2.0), t)
        assert np.allclose(traj.q[:, 0], 0.0, atol=1e-15)
        assert traj.q0 == pytest.approx(2.0 * np.exp(-t / model.tau), rel=1e-9)

    def test_reduces_to_lc_example_equations(self):
        # eliminating Q1 must leave:
        #   d2Phi1 + Phi1/(L_r (C_r+C_c)) = (C_p/C_r) dV0
        #   dV0 + V0/tau = -Phi1/(L_r C_r) + e0*0
        model, topo, params = lc_model(g=0.4, alpha=1.3)
        rhs = assemble_rhs(model, stiffness_matrix(topo))
        dt = 2e-4
        t = np.arange(0.0, 3.0, dt)
        traj = integrate(rhs, ReducedState(phi=[0.6], q=[-0.2], q0=0.4), t)
        phi1, v0 = traj.phi[:, 0], traj.v0
        d2phi = (phi1[2:] - 2 * phi1[1:-1] + phi1[:-2]) / dt ** 2
        dv0 = (v0[2:] - v0[:-2]) / (2 * dt)
        lhs = d2phi + phi1[1:-1] / (params.l_r * (params.c_r + params.c_c))
        rhs_51 = (params.c_p / params.c_r) * dv0
        assert np.abs(lhs - rhs_51).max() <= 1e-5 * np.abs(rhs_51).max()
        dv0_full = (v0[2:] - v0[:-2]) / (2 * dt)
        res_52 = dv0_full + v0[1:-1] / params.tau + phi1[1:-1] / (params.l_r * params.c_r)
        assert np.abs(res_52).max() <= 1e-5 * np.abs(v0).max() / params.tau

    def test_decoupled_limit_oscillates_at_omega_r(self):
        model, topo, params = lc_model(g=1e-9, alpha=2.0)
        rhs = assemble_rhs(model, stiffness_matrix(topo))
        t = np.linspace(0.0, 10 * params.t_r, 2001)
        traj = integrate(rhs, ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)
        assert traj.phi[:, 0] == pytest.approx(np.cos(params.omega_r * t), abs=1e-6)


class TestIntegrate:
    def test_zero_state_stays_zero(self):
        model, topo, _ = lc_model()
        rhs = assemble_rhs(model, stiffness_matrix(topo))
        t = np.linspace(0.0, 10.0, 101)
        traj = integrate(rhs, ReducedState(phi=[0.0], q=[0.0], q0=0.0), t)
        assert not traj.phi.any() and not traj.q.any() and not traj.q0.any()

    def test_weak_coupling_envelope_decay(self):
        # amplitude decays at kappa/2 with kappa = omega_r alpha g^2 (the
        # damping coefficient of the weak-coupling oscillator equation)
        g, alpha = 0.01, 1.0
        model, topo, params = lc_model(g=g, alpha=alpha)
        kappa = params.omega_r * alpha * g * g
        rhs = assemble_rhs(model, stiffness_matrix(topo))
        t_end = 4.0 / kappa
        t = np.arange(0.0, t_end, params.t_r / 40.0)
        traj = integrate(rhs, ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)
        tp, amp = peak_envelope(t, traj.phi[:, 0])
        keep = amp > 1e-3
        slope = np.polyfit(tp[keep], np.log(amp[keep]), 1)[0]
        assert slope == pytest.approx(-kappa / 2.0, rel=0.05)

    def test_expm_matches_rk4(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        rhs = assemble_rhs(model, stiffness_matrix(topo))
        t = np.arange(0.0, 10 * params.t_r, 2.5e-3)
        initial = ReducedState(phi=[0.5], q=[0.3], q0=-0.2)
        exact = integrate(rhs, initial, t, method="expm")
        runge = integrate(rhs, initial, t, method="rk4")
        scale = np.abs(exact.phi[:, 0]).max()
        assert np.abs(exact.phi[:, 0] - runge.phi[:, 0]).max() <= 1e-8 * scale

    def test_coarse_dt_warns_for_rk4(self):
        model, topo, _ = lc_model()
        rhs = assemble_rhs(model, stiffness_matrix(topo))
        t = np.linspace(0.0, 10.0, 21)
        with pytest.warns(UserWarning, match="resolve"):
            integrate(rhs, ReducedState(phi=[1.0], q=[0.0], q0=0.0), t, method="rk4")

    @pytest.mark.parametrize("form", [integrate, langevin_form], ids=["direct", "langevin"])
    def test_junction_stiffness_sets_the_rk4_dt_bound(self, form):
        """A junction's small-signal stiffness E_J/phi0^2 enters the dt bound
        as an inductor would: here it, not tau, sets the bound."""
        from lineport import CircuitTopology, derive_reduced_model
        from lineport.reduced_dynamics import DT_SAFETY_FACTOR
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1.0),),
                               junctions=((1, 2, 100.0, 2.0),), coupling_capacitance=0.4)
        model = derive_reduced_model(topo, 1.5)
        inv_omega = 1.0 / np.sqrt(model.cb_inv[0, 0] * 100.0 / 2.0 ** 2)
        assert inv_omega < model.tau
        limit = inv_omega / DT_SAFETY_FACTOR
        initial = ReducedState(phi=[0.3], q=[0.0], q0=0.0)
        for dt, warns in ((0.99 * limit, False), (1.01 * limit, True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if form is integrate:
                    integrate(assemble_rhs(model, topo), initial, np.arange(11) * dt)
                else:
                    langevin_form(model, topo, None, initial, np.arange(11) * dt)
            assert any("does not resolve" in str(w.message) for w in caught) == warns

    def test_junctions_use_rk4_and_reject_expm(self):
        from lineport import CircuitTopology, derive_reduced_model
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1.0),),
                               junctions=((1, 2, 0.8, 1.0),),
                               coupling_capacitance=0.4)
        rhs = assemble_rhs(derive_reduced_model(topo, 1.5), topo)
        t = np.linspace(0.0, 5.0, 2001)
        traj = integrate(rhs, ReducedState(phi=[0.3], q=[0.0], q0=0.0), t)
        assert traj.meta["integrator"] == "rk4"
        with pytest.raises(ValidationError, match="linear"):
            integrate(rhs, ReducedState(phi=[0.3], q=[0.0], q0=0.0), t, method="expm")


def gaussian_source(t, center, width):
    return Signal.from_samples(t, 0.5 * np.exp(-((t - center) / width) ** 2))


def josephson_run(sourced):
    """A one-node junction circuit, optionally driven by a pulse sampled on
    the output grid: (rhs, initial state, grid)."""
    from lineport import CircuitTopology, derive_reduced_model
    topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1.0),),
                           junctions=((1, 2, 0.8, 1.0),), coupling_capacitance=0.4)
    t = np.linspace(0.0, 5.0, 2001)
    rhs = assemble_rhs(derive_reduced_model(topo, 1.5), topo,
                       e0=gaussian_source(t, 2.0, 0.4) if sourced else None)
    return rhs, ReducedState(phi=[0.3], q=[0.1], q0=-0.2), t


class TestRk4SampledSource:
    """RK4 takes e0 sampled once on the grid and linear between samples,
    against the former stepper that interpolated e0 at every stage."""

    @staticmethod
    def per_stage_rk4(rhs, y0, t_grid):
        """The former RK4: f(t, y) with e0 interpolated at t, t + dt/2 and
        t + dt inside each step."""
        n = rhs.model.n_nodes

        def f(t, y):
            out = rhs(y)
            out[2 * n] += (rhs.e0(t) if rhs.e0 is not None else 0.0) / rhs.model.z_c
            return out

        dt = t_grid[1] - t_grid[0]
        out = np.empty((len(y0), len(t_grid)))
        y = y0.copy()
        for i, t in enumerate(t_grid):
            out[:, i] = y
            if i == len(t_grid) - 1:
                break
            k1 = f(t, y)
            k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = f(t + dt, y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return out

    @staticmethod
    def packed(traj):
        return np.vstack([traj.phi.T, traj.q.T, traj.q0])

    def test_unsourced_josephson_bit_identical(self):
        rhs, initial, t = josephson_run(sourced=False)
        got = self.packed(integrate(rhs, initial, t, method="rk4"))
        assert np.array_equal(got, self.per_stage_rk4(rhs, initial.packed(), t))

    def test_sourced_josephson_matches_to_rounding(self):
        rhs, initial, t = josephson_run(sourced=True)
        got = self.packed(integrate(rhs, initial, t, method="rk4"))
        ref = self.per_stage_rk4(rhs, initial.packed(), t)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert (np.abs(got - ref) <= 1e-13 * scale).all()

    def test_sourced_lc_rk4_matches_expm(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        t = np.arange(0.0, 10 * params.t_r, 2.5e-3)
        e0 = gaussian_source(t, 2 * params.t_r, 0.5 * params.t_r)
        rhs = assemble_rhs(model, stiffness_matrix(topo), e0=e0)
        initial = ReducedState(phi=[0.5], q=[0.3], q0=-0.2)
        exact = self.packed(integrate(rhs, initial, t, method="expm"))
        runge = self.packed(integrate(rhs, initial, t, method="rk4"))
        scale = np.abs(exact).max(axis=1, keepdims=True)
        assert (np.abs(exact - runge) <= 1e-8 * scale).all()

    def test_source_sampled_once(self, monkeypatch):
        rhs, initial, t = josephson_run(sourced=True)
        calls = []
        original = Signal.__call__
        monkeypatch.setattr(Signal, "__call__",
                            lambda self, *a, **k: calls.append(1) or original(self, *a, **k))
        integrate(rhs, initial, t, method="rk4")
        langevin_form(rhs.model, rhs.grad_u, rhs.e0, initial, t)
        assert len(calls) == 2


class TestHugeInitialState:
    """An initial state too large to step names itself, not only dt."""

    def test_rk4_first_step(self):
        rhs, _, t = josephson_run(sourced=False)
        with pytest.raises(NumericalPreconditionError,
                           match=r"reduce the initial state \(size 1e\+308\) or dt"):
            integrate(rhs, ReducedState(phi=[0.0], q=[1e308], q0=0.0), t)

    def test_ladder_initial_energy(self):
        model, topo, params = lc_model()
        line = lc_line(params)
        t = np.linspace(0.0, params.t_r, 51)
        with pytest.raises(NumericalPreconditionError,
                           match="reduce the initial state: its energy is not finite"):
            ladder_oracle(line, 100, 1.12 * line.v_p * params.t_r / 2, topo,
                          ReducedState(phi=[1e300], q=[0.0], q0=0.0), t)

    def test_ladder_refused_before_stepping(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ladder stepped from a non-finite energy")
        monkeypatch.setattr(LadderSystem, "drift_kick", fail)
        self.test_ladder_initial_energy()


SPLIT_NETLIST = """\
C 1 4 1.0
C 2 4 0.7
C 3 4 1.3
C 1 2 0.2
L 1 2 0.9
J 2 4 0.6 1.0
J 2 3 0.8 0.5
COUPLE 0.4
"""


class TestSplitRhs:
    """The one right-hand side form, flow @ y plus the junction forces,
    against the former hand-written bodies on a circuit with a linear
    inductor, a junction to ground and a junction between two nodes."""

    SEEDS = range(5)

    @staticmethod
    def circuit():
        from lineport import derive_reduced_model
        topo = parse_netlist(SPLIT_NETLIST)
        return topo, derive_reduced_model(topo, 1.5)

    @staticmethod
    def close(got, want):
        return np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_reduced_rhs_equals_former_body(self):
        from lineport import potential_gradient
        topo, m = self.circuit()
        rhs = assemble_rhs(m, topo)
        assert not rhs.is_linear
        for seed in self.SEEDS:
            y = np.random.default_rng(seed).normal(size=7)
            phi, q, q0 = y[:3], y[3:6], y[6]
            want = np.concatenate([m.cb_inv @ q + m.p * q0, -potential_gradient(topo, phi),
                                   [-q0 / m.tau - (m.p @ q) / m.z_c]])
            assert self.close(rhs(y), want)

    def test_langevin_rhs_equals_former_closure(self, monkeypatch):
        import lineport.reduced_dynamics as rd
        from lineport import potential_gradient
        topo, m = self.circuit()
        captured = {}

        def capture(model, stiffness, flow, f, linear, *args):
            captured["f"], captured["linear"] = f, linear
            raise AssertionError("captured")
        monkeypatch.setattr(rd, "_evolve", capture)
        with pytest.raises(AssertionError, match="captured"):
            langevin_form(m, topo, None, ReducedState(phi=np.zeros(3), q=np.zeros(3), q0=0.0),
                          np.linspace(0.0, 1.0, 11))
        assert not captured["linear"]
        cpp = m.c_p * m.p
        for seed in self.SEEDS:
            y = np.random.default_rng(seed).normal(size=10)
            phi, q, mem, yv = y[:3], y[3:6], y[6:9], y[9]
            dq = -potential_gradient(topo, phi)
            want = np.concatenate([m.a @ q + cpp * (m.p @ mem + yv), dq, dq - mem / m.tau,
                                   [-yv / m.tau]])
            assert self.close(captured["f"](y), want)

    def test_ladder_gradient_equals_potential_gradient(self):
        from lineport import potential_gradient
        topo, _ = self.circuit()
        system = LadderSystem(topo, line_params(2.0, 0.5), 100, 10.0)
        for seed in self.SEEDS:
            q = np.random.default_rng(seed).normal(size=system.dim)
            assert self.close(system.grad_potential(q)[:3], potential_gradient(topo, q[:3]))

    def test_rk4_stage_refuses_flux_overflow(self):
        topo, m = self.circuit()
        with pytest.raises(NumericalPreconditionError,
                           match="junction flux difference overflows at flux size 1e"):
            integrate(assemble_rhs(m, topo),
                      ReducedState(phi=[0.0, 1e308, -1e308], q=np.zeros(3), q0=0.0),
                      np.linspace(0.0, 1.0, 11))

    def test_ladder_kernel_refuses_flux_overflow(self):
        topo, _ = self.circuit()
        system = LadderSystem(topo, line_params(2.0, 0.5), 100, 10.0)
        q, u, acc = np.zeros((3, system.dim))
        q[:3] = [0.0, 1e308, -1e308]
        with np.errstate(over="ignore"), pytest.raises(
                NumericalPreconditionError,
                match="junction flux difference overflows at flux size 1e"):
            system.drift_kick(q, u, 0.5 * system.cfl_dt(), acc)(1)


class TestPropagateAffine:
    """The one-row doubling scan against the per-sample loop it replaced and,
    bit for bit, against the former scan of a d x T input matrix; the sample
    counts cover one and two passes, both sides of a power of two and of a
    1024-column block, and a lone column left over after two such blocks.
    Other block sizes give the same bits (``test_block_size_keeps_the_bits``)."""

    DT = 0.01
    ROW = 6
    COUNTS = [2, 3, 5, 64, 65, 20001, 1023, 1024, 1025, 2049]

    @pytest.fixture
    def flow(self):
        return self.stable_flow(np.random.default_rng(7), 7)

    @staticmethod
    def stable_flow(rng, d):
        a = rng.standard_normal((d, d))
        return a - (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(d)

    @staticmethod
    def input_matrix(source, d, n):
        """The d x T input that ``source`` = (row, samples) stands for."""
        b = np.zeros((d, n))
        b[source[0]] = source[1]
        return b

    @staticmethod
    def per_sample_loop(flow, b, u0, dt):
        e_step, f_op, g_op = _lti_step_operators(flow, dt)
        out = np.empty((len(u0), b.shape[1]))
        u = u0.copy()
        for k in range(b.shape[1] - 1):
            out[:, k] = u
            u = e_step @ u + f_op @ b[:, k] + g_op @ (b[:, k + 1] - b[:, k])
        out[:, -1] = u
        return out

    @staticmethod
    def matrix_scan(flow, b, u0, dt):
        """The former scan: products and passes over the whole d x T input."""
        e_step, f_op, g_op = _lti_step_operators(flow, dt)
        us = np.empty((len(u0), b.shape[1]))
        us[:, 0] = u0
        np.matmul(f_op - g_op, b[:, :-1], out=us[:, 1:])
        us[:, 1:] += g_op @ b[:, 1:]
        shift = 1
        while shift < us.shape[1]:
            us[:, shift:] += e_step @ us[:, :-shift]
            e_step = e_step @ e_step
            shift *= 2
        return us

    def repeated_step(self, flow, u0, n):
        e_step = _lti_step_operators(flow, self.DT)[0]
        ref = np.empty((len(u0), n))
        ref[:, 0] = u0
        for k in range(1, n):
            ref[:, k] = e_step @ ref[:, k - 1]
        return ref

    @pytest.mark.parametrize("n", COUNTS)
    def test_matches_per_sample_loop(self, flow, n):
        rng = np.random.default_rng(n)
        source, u0 = (self.ROW, rng.standard_normal(n)), rng.standard_normal(7)
        ref = self.per_sample_loop(flow, self.input_matrix(source, 7, n), u0, self.DT)
        got = _propagate_affine(flow, source, u0, self.DT, n)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", COUNTS)
    def test_zero_source_is_repeated_step(self, flow, n):
        u0 = np.random.default_rng(n).standard_normal(7)
        ref = self.repeated_step(flow, u0, n)
        got = _propagate_affine(flow, (self.ROW, np.zeros(n)), u0, self.DT, n)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", COUNTS)
    def test_no_source_is_repeated_step(self, n):
        """``integrate`` takes an absent e0 as zero samples: the repeated
        step's columns, and bit for bit those of a zero e0."""
        model, topo, _ = lc_model()
        t = self.DT * np.arange(n)
        initial = ReducedState(phi=[1.0], q=[0.3], q0=-0.2)
        runs = [integrate(assemble_rhs(model, topo, e0=e0), initial, t, method="expm")
                for e0 in (None, Signal.from_samples(t, np.zeros(n)))]
        got, zero = (np.column_stack([traj.phi, traj.q, traj.q0]).T for traj in runs)
        ref = self.repeated_step(assemble_rhs(model, topo).flow_matrix, initial.packed(), n)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(got, zero) and np.array_equal(np.signbit(got), np.signbit(zero))

    @pytest.mark.parametrize("n", COUNTS)
    @pytest.mark.parametrize("d", [2, 7, 10])
    def test_bit_identical_to_matrix_scan(self, n, d):
        """Random flows and rows, samples holding exact zeros and -0.0, a
        state holding -0.0: every bit, signs of zero included, as the scan of
        the d x T input matrix gave it."""
        self.assert_matrix_scan_bits(d, n)

    @pytest.mark.parametrize("block", [2, 1024, 4096, "count + 1"])
    def test_block_size_keeps_the_bits(self, monkeypatch, block):
        """``SCAN_BLOCK`` is a choice of speed alone: at blocks of 2, 1024 and
        4096 columns and of one more than the count, the matrix scan's bits
        on counts at both sides of 4096 and with a lone column left over
        after two 4096-column blocks."""
        import lineport.reduced_dynamics as rd
        for n in (3, 1025, 4095, 4097, 8193):
            monkeypatch.setattr(rd, "SCAN_BLOCK", n + 1 if block == "count + 1" else block)
            self.assert_matrix_scan_bits(7, n)

    def assert_matrix_scan_bits(self, d, n):
        rng = np.random.default_rng([d, n])
        flow = self.stable_flow(rng, d)
        samples = rng.standard_normal(n)
        samples[rng.random(n) < 0.3] = 0.0
        samples[rng.random(n) < 0.2] = -0.0
        u0 = rng.standard_normal(d)
        u0[0] = -0.0
        row = int(rng.integers(d))
        for source in ((row, samples), (row, np.zeros(n))):
            got = _propagate_affine(flow, source, u0, self.DT, n)
            ref = self.matrix_scan(flow, self.input_matrix(source, d, n), u0, self.DT)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


# the benchmark's driven chain: three LC nodes, grounded through the last inductor
CHAIN_NETLIST = """\
C 1 4 1.0
C 2 4 1.0
C 3 4 1.0
C 1 2 0.2
L 1 2 1.0
L 2 3 1.5
L 3 4 2.0
COUPLE 0.42857142857142855
"""


@pytest.mark.parametrize("form, d", [("integrate", 7), ("langevin_form", 10)])
def test_sourced_expm_traced_peak(form, d):
    """The sourced expm stepper holds its d x T state and little more: a
    traced peak of at most twice the returned state's bytes on the driven
    chain at T = 20001. A d x T input matrix and its full-width scan
    temporaries came to about 2.9 times."""
    topo = parse_netlist(CHAIN_NETLIST)
    line = line_params(2.0, 0.5)
    model, k = derive_reduced_model(topo, line.z_c), stiffness_matrix(topo)
    t = np.linspace(0.0, 12.0 * np.pi, 20001)
    e0 = gaussian_source(t, 8.0, 1.5)
    initial = ReducedState(phi=np.zeros(3), q=np.zeros(3), q0=0.0)
    if form == "integrate":
        run = partial(integrate, assemble_rhs(model, k, e0=e0), initial, t, method="expm")
    else:
        run = partial(langevin_form, model, k, e0, initial, t, method="expm")
    assert traced_peak(run) <= 2.0 * d * len(t) * 8


@pytest.mark.parametrize("field", ["c_p", "z_c"])
@pytest.mark.parametrize("netlist", [
    pytest.param("C 1 2 1.0\nL 1 2 1.0\nCOUPLE 0.42857142857142855\n", id="lc"),
    pytest.param(CHAIN_NETLIST, id="chain")])
def test_replaced_port_constant_moves_tau(netlist, field):
    """tau is Z_c C_p, not a value of its own: a model with C_p or Z_c
    replaced (x 1.01) has the flow's -1/tau of the new product, and a phi1
    that differs from the model's own."""
    topo = parse_netlist(netlist)
    model = derive_reduced_model(topo, 1.0)
    planted = replace(model, **{field: 1.01 * getattr(model, field)})
    n = model.n_nodes
    a = StateSpace.reduced(planted, stiffness_matrix(topo)).a
    assert a[2 * n, 2 * n] == -1.0 / (planted.z_c * planted.c_p)
    t = np.linspace(0.0, 5.0, 51)
    initial = ReducedState(phi=np.eye(n)[0], q=np.zeros(n), q0=0.0)
    phi1 = [integrate(assemble_rhs(m, topo), initial, t).phi[:, 0] for m in (model, planted)]
    assert not np.array_equal(*phi1)


class TestLangevinForm:
    def test_matches_direct_integration(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        k = stiffness_matrix(topo)
        t = np.linspace(0.0, 10 * params.t_r, 2001)
        initial = ReducedState(phi=[1.0], q=[0.2], q0=-0.1)
        direct = integrate(assemble_rhs(model, k), initial, t)
        langevin = langevin_form(model, k, None, initial, t)
        scale = np.abs(direct.phi[:, 0]).max()
        assert np.abs(direct.phi[:, 0] - langevin.phi[:, 0]).max() <= 1e-8 * scale
        v_scale = np.abs(direct.v0).max()
        assert np.abs(direct.v0 - langevin.v0).max() <= 1e-8 * v_scale
        assert np.abs(direct.q0 - langevin.q0).max() <= 1e-8 * np.abs(direct.q0).max()

    def test_v0_identity_along_trajectory(self):
        model, topo, params = lc_model(g=0.42, alpha=0.7)
        k = stiffness_matrix(topo)
        t = np.linspace(0.0, 5 * params.t_r, 1001)
        initial = ReducedState(phi=[0.1], q=[0.9], q0=0.5)
        traj = langevin_form(model, k, None, initial, t)
        ident = traj.q @ model.p + traj.q0 / model.c_p
        assert np.abs(traj.v0 - ident).max() <= 1e-10 * np.abs(traj.v0).max()

    def test_constant_drive_steady_state(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        k = stiffness_matrix(topo)
        e_value = 0.8
        t = np.linspace(0.0, 60 * params.t_r, 16001)
        e0 = Signal.from_samples(t, np.full(len(t), e_value))
        initial = ReducedState(phi=[0.0], q=[0.0], q0=0.0)
        traj = integrate(assemble_rhs(model, k, e0=e0), initial, t)
        assert traj.v0[-1] == pytest.approx(e_value, rel=1e-6)
        # dQ0/dt -> 0 at the fixed point
        dq0 = (traj.q0[-1] - traj.q0[-3]) / (2 * traj.dt)
        assert abs(dq0) <= 1e-6 * abs(e_value / model.z_c)
        lange = langevin_form(model, k, e0, initial, t)
        assert lange.v0[-1] == pytest.approx(e_value, rel=1e-6)

    def test_multinode_formulation_equivalence(self, rng):
        from conftest import random_topology
        from lineport import derive_reduced_model
        topo = random_topology(rng, n_max=4)
        model = derive_reduced_model(topo, 2.0)
        k = stiffness_matrix(topo)
        n = topo.node_count
        t = np.linspace(0.0, 20.0, 4001)
        initial = ReducedState(phi=rng.normal(size=n), q=rng.normal(size=n),
                               q0=0.3)
        direct = integrate(assemble_rhs(model, k), initial, t)
        langevin = langevin_form(model, k, None, initial, t)
        scale = np.abs(direct.phi).max()
        assert np.abs(direct.phi - langevin.phi).max() <= 1e-8 * scale


# a junction 600 times the Josephson example's: the ladder step that 100
# sections give resolves it too coarsely to keep the energy
STIFF_JUNCTION_NETLIST = """\
C 1 3 1.0
J 1 2 300 1.0
C 2 3 1.0
L 2 3 1.0
COUPLE 0.42857142857142855
"""


class TestLadderOracle:
    def test_decoupled_matches_cosine(self):
        model, topo, params = lc_model(g=1e-6 / (1.0 + 1e-6), alpha=2.0)
        line = lc_line(params)
        t = np.linspace(0.0, 10 * params.t_r, 501)
        traj = ladder_oracle(line, 600, 1.1 * params.t_r * 5.0 * line.v_p * 2, topo,
                             ReducedState(phi=[1.0], q=[0.0], q0=0.0), t,
                             dt=params.t_r / 2000.0)
        expected = np.cos(params.omega_r * t)
        assert np.abs(traj.phi[:, 0] - expected).max() <= 1e-3

    def test_matches_reduced_model_at_4000_sections(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        line = lc_line(params)
        t_max = 10 * params.t_r
        t = np.linspace(0.0, t_max, 401)
        initial = ReducedState(phi=[1.0], q=[0.0], q0=0.0)
        ladder = ladder_oracle(line, 4000, 1.12 * line.v_p * t_max / 2, topo, initial, t)
        reduced = integrate(assemble_rhs(model, stiffness_matrix(topo)), initial, t)
        err = np.linalg.norm(ladder.phi[:, 0] - reduced.phi[:, 0])
        assert err / np.linalg.norm(reduced.phi[:, 0]) <= 0.01

    def test_second_order_convergence(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        line = lc_line(params)
        t_max = 5 * params.t_r
        t = np.linspace(0.0, t_max, 201)
        initial = ReducedState(phi=[1.0], q=[0.0], q0=0.0)
        reduced = integrate(assemble_rhs(model, stiffness_matrix(topo)), initial, t)
        errs = []
        for n_sec in (250, 500, 1000):
            ladder = ladder_oracle(line, n_sec, 1.12 * line.v_p * t_max / 2,
                                   topo, initial, t)
            errs.append(np.linalg.norm(ladder.phi[:, 0] - reduced.phi[:, 0]))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0  # ~4x per halving of dx

    def test_incoming_pulse_same_physics_both_paths(self):
        # a flux pulse on the line drives the circuit identically through
        # the ladder and through the reduced model's e0
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        line = lc_line(params)
        x0, width = 8.0, 1.5
        t_max = 6 * params.t_r
        length = 1.12 * line.v_p * t_max / 2 + 2 * x0
        dx_prof = width / 400.0
        profile = LineInitialState.from_functions(
            lambda x: 0.5 * np.exp(-((x - x0) / width) ** 2),
            lambda x: np.zeros_like(x), x_max=length, dx=dx_prof, extend="zero")
        t = np.linspace(0.0, t_max, 2001)
        initial = ReducedState(phi=[0.0], q=[0.0], q0=0.0)
        e0 = thevenin_source(profile, line, np.linspace(0.0, t_max, 8001))
        reduced = integrate(assemble_rhs(model, stiffness_matrix(topo), e0=e0),
                            initial, t)
        ladder = ladder_oracle(line, 4000, length, topo, initial, t,
                               line_initial=profile)
        scale = np.abs(reduced.phi[:, 0]).max()
        assert np.abs(ladder.phi[:, 0] - reduced.phi[:, 0]).max() <= 0.01 * scale

    def test_echo_window_enforced(self):
        model, topo, params = lc_model()
        line = lc_line(params)
        t = np.linspace(0.0, 100.0, 101)
        with pytest.raises(NumericalPreconditionError, match="length > 50"):
            ladder_oracle(line, 200, 40.0, topo,
                          ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)

    def test_too_few_sections_rejected(self):
        model, topo, params = lc_model()
        line = lc_line(params)
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValidationError, match="n_sections"):
            ladder_oracle(line, 50, 10.0, topo,
                          ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)

    def test_cfl_guard(self):
        model, topo, params = lc_model()
        line = lc_line(params)
        t = np.linspace(0.0, 5 * params.t_r, 64)
        with pytest.raises(NumericalPreconditionError, match="exceeds CFL bound"):
            ladder_oracle(line, 150, 1.2 * line.v_p * 5 * params.t_r / 2, topo,
                          ReducedState(phi=[1.0], q=[0.0], q0=0.0), t,
                          dt=5.0)  # far beyond the CFL bound

    @pytest.mark.parametrize("t_max, samples, message", [
        (1e-200, 11, "dt=2.78e-203 squares below the smallest normal float64, which needs "
                     "dt >= 1.49e-154; raise t_max (--t-max) to 1e-151 or more"),
        (1e-320, 3, "dt=2.96e-323 squares below the smallest normal float64, which needs "
                    "dt >= 1.49e-154; raise t_max (--t-max) to 1e-151 or more"),
        (1e200, 11, "dt=2.78e+197 squares beyond the largest float64, which needs "
                    "dt <= 1.34e+154; lower t_max (--t-max) to 1e156 or less")])
    def test_step_squared_must_be_normal(self, monkeypatch, t_max, samples, message):
        """A step that squares outside the normal float64 range is refused
        before the kernel is built. The power of ten named for t_max follows
        from the substep count, so it holds where dt itself is subnormal
        (2.96e-323, six ulps, stands for 1e-320 over 2 x 169 substeps)."""
        def fail(*args, **kwargs):
            raise AssertionError("ladder stepped with a step whose square is not normal")
        monkeypatch.setattr(LadderSystem, "drift_kick", fail)
        _, topo, _ = lc_model()
        t = np.linspace(0.0, t_max, samples)
        with pytest.raises(NumericalPreconditionError, match=re.escape(message)):
            ladder_oracle(line_params(2.0, 0.5), 100, 0.56 * t_max, topo,
                          ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)

    def test_energy_drift_guard(self):
        """A junction too stiff for 100 sections' step passes the CFL check
        and is refused by the drift guard, which names the section count."""
        topo = parse_netlist(STIFF_JUNCTION_NETLIST)
        t = np.linspace(0.0, 5.0, 51)
        with pytest.raises(NumericalPreconditionError, match=re.escape(
                "ladder energy drift 0.0177 exceeds 0.01; raise n_sections (--n-sections)")):
            ladder_oracle(line_params(2.0, 0.5), 100, 2.8, topo,
                          ReducedState(phi=[1.0, 0.0], q=[0.0, 0.0], q0=0.0), t)

    def test_energy_conserved_tightly(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        line = lc_line(params)
        t_max = 10 * params.t_r
        t = np.linspace(0.0, t_max, 201)
        traj = ladder_oracle(line, 500, 1.12 * line.v_p * t_max / 2, topo,
                             ReducedState(phi=[1.0], q=[0.0], q0=0.0), t,
                             dt=params.t_r / 5000.0)
        assert traj.meta["energy_drift"] <= 1e-6


def former_leapfrog(system, q, p, grad, dt):
    """The former stepper: one kick-drift-kick step, new arrays each step."""
    p_half = p - 0.5 * dt * grad
    q = q + dt * system.velocities(p_half)
    grad = system.grad_potential(q)
    return q, p_half - 0.5 * dt * grad, grad


def former_ladder_columns(system, initial, t, dt, line_initial=None):
    """ladder_oracle's [phi, q, q0, v0] columns on ``t`` by the former
    stepper, ``dt`` being the substep that ladder_oracle reports."""
    n_sub = round((t[1] - t[0]) / dt)
    n = system.n_circ
    q, p = system.initial_state(initial, line_initial)
    grad = system.grad_potential(q)
    rows = []
    for k in range(len(t)):
        if k:
            for _ in range(n_sub):
                q, p, grad = former_leapfrog(system, q, p, grad, dt)
        v0 = system.velocities(p)[n]
        rows.append([*q[:n], *p[:n], p[n] - system.cells[0] * v0, v0])
    return np.array(rows)


LADDER_JOSEPHSON_NETLIST = """\
C 1 3 1.0
J 1 2 0.5 1.0
C 2 3 1.0
L 2 3 1.0
COUPLE 0.4
"""


def gaussian_profile(x0, width, x_max):
    """A flux pulse on the line and no charge, sampled like a --phi0-csv file."""
    return LineInitialState.from_functions(
        lambda x: 0.5 * np.exp(-((x - x0) / width) ** 2), np.zeros_like,
        x_max=x_max, dx=width / 100.0, extend="zero")


class TestLeapfrogKernel:
    """The in-place stepper with merged half-kicks against the former
    allocate-per-step kick-drift-kick."""

    @staticmethod
    def lc_system(n_sections=200):
        _, topo, params = lc_model(g=0.3, alpha=2.0)
        return LadderSystem(topo, lc_line(params), n_sections, 10.0)

    @pytest.mark.parametrize("topo, initial, n_sections, samples, profile, n_sub", [
        pytest.param(lc_model(g=0.3, alpha=2.0)[1],
                     ReducedState(phi=[1.0], q=[0.2], q0=-0.1), 150, 101, None, 6,
                     id="lc-150"),
        pytest.param(lc_model(g=0.3, alpha=2.0)[1],
                     ReducedState(phi=[1.0], q=[0.2], q0=-0.1), 1000, 101, None, 36,
                     id="lc-1000"),
        pytest.param(parse_netlist(LADDER_JOSEPHSON_NETLIST),
                     ReducedState(phi=[0.8, -0.3], q=[0.1, 0.0], q0=0.05), 150, 101, None,
                     6, id="josephson-2-node"),
        # the shape of the driven benchmark: a junction circuit hit by a line
        # pulse, two substeps per output sample
        pytest.param(parse_netlist(LADDER_JOSEPHSON_NETLIST),
                     ReducedState(phi=[1.0, 0.5], q=[0.0, 0.0], q0=0.0), 150, 301,
                     (1.5, 0.4), 2, id="josephson-pulse"),
        # the substep ratio of the 4000-section ladder benchmark on a short run
        pytest.param(lc_model(g=0.3, alpha=2.0)[1],
                     ReducedState(phi=[1.0], q=[0.2], q0=-0.1), 400, 101, None, 15,
                     id="lc-15-substeps"),
    ])
    def test_oracle_matches_former_stepper(self, topo, initial, n_sections, samples,
                                           profile, n_sub):
        line = line_params(2.0, 0.5)  # Z_c = 2, v_p = 1
        t = np.linspace(0.0, 2 * np.pi, samples)
        length = 1.12 * line.v_p * t[-1] / 2
        line_initial = None
        if profile is not None:
            x0, width = profile
            length += 0.56 * (x0 + 4 * width)  # the pulse's echo stays out of the window
            line_initial = gaussian_profile(x0, width, 2 * length)
        traj = ladder_oracle(line, n_sections, length, topo, initial, t,
                             line_initial=line_initial)
        assert traj.meta["substeps"] == n_sub * (samples - 1)
        system = LadderSystem(topo, line, n_sections, length)
        want = former_ladder_columns(system, initial, t, traj.meta["dt"], line_initial)
        got = np.column_stack([traj.phi, traj.q, traj.q0, traj.v0])
        peak = np.abs(want).max(axis=0)
        assert (np.abs(got - want).max(axis=0) <= 1e-13 * peak).all()

    def test_kernel_stack_equals_column_calls(self):
        system = self.lc_system()
        rng = np.random.default_rng(9)
        q0, u0 = rng.normal(size=(2, system.dim, 3))
        u0 *= 1e-3
        dt = 0.5 * system.cfl_dt()
        q, u, acc = q0.copy(), u0.copy(), np.empty_like(q0)
        system.drift_kick(q, u, dt, acc)(5)
        for j in range(3):
            qj, uj, accj = q0[:, j].copy(), u0[:, j].copy(), np.empty(system.dim)
            system.drift_kick(qj, uj, dt, accj)(5)
            for got, want in ((q[:, j], qj), (u[:, j], uj), (acc[:, j], accj)):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_josephson_stack_equals_column_calls(self):
        """A (dim, B) stack on a junction ladder: each column of the junction
        forces and of grad U has the bits of its 1-D call, drift_kick and
        leapfrog_step agree with column calls as on the LC ladder, and an
        overflowing column is refused at its own flux size."""
        topo = parse_netlist(LADDER_JOSEPHSON_NETLIST)
        system = LadderSystem(topo, line_params(2.0, 0.5), 150, 10.0)
        n = system.n_circ
        rng = np.random.default_rng(11)
        q0, u0 = rng.normal(size=(2, system.dim, 3))
        u0 *= 1e-3
        dt = 0.5 * system.cfl_dt()
        forces = junction_kernel(topo, (n, 3))(q0[:n]).copy()
        grad = system.grad_potential(q0)
        q, u, acc = q0.copy(), u0.copy(), np.empty_like(q0)
        system.drift_kick(q, u, dt, acc)(5)
        stepped = system.leapfrog_step(q0, u0, grad, dt, steps=3)
        for j in range(3):
            assert forces[:, j].tobytes() == junction_kernel(topo, (n,))(q0[:n, j]).tobytes()
            assert grad[:, j].tobytes() == system.grad_potential(q0[:, j]).tobytes()
            qj, uj, accj = q0[:, j].copy(), u0[:, j].copy(), np.empty(system.dim)
            system.drift_kick(qj, uj, dt, accj)(5)
            column = system.leapfrog_step(q0[:, j], u0[:, j], grad[:, j], dt, steps=3)
            for got, want in ((q[:, j], qj), (u[:, j], uj), (acc[:, j], accj),
                              *((a[:, j], b) for a, b in zip(stepped, column))):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        q0[:n, 1] = [1e308, -1e308]
        with pytest.raises(NumericalPreconditionError,
                           match="junction flux difference overflows at flux size 1e\\+308"):
            junction_kernel(topo, (n, 3))(q0[:n])

    @pytest.mark.parametrize("topo", [
        pytest.param(lc_model(g=0.3, alpha=2.0)[1], id="lc"),
        pytest.param(parse_netlist(LADDER_JOSEPHSON_NETLIST), id="josephson")])
    def test_kernel_leaves_last_kick(self, topo):
        system = LadderSystem(topo, line_params(2.0, 0.5), 150, 10.0)
        rng = np.random.default_rng(10)
        q, u = rng.normal(size=(2, system.dim))
        u *= 1e-3
        dt = 0.5 * system.cfl_dt()
        acc = np.empty_like(q)
        system.drift_kick(q, u, dt, acc)(6)
        u_before = u.copy()
        system.drift_kick(q, u, dt, acc)(1)
        want = dt * dt * system.velocities(system.grad_potential(q))
        assert np.abs(acc - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(u, u_before - acc)

    @pytest.mark.parametrize("topo", [
        pytest.param(lc_model(g=0.3, alpha=2.0)[1], id="lc"),
        pytest.param(parse_netlist(LADDER_JOSEPHSON_NETLIST), id="josephson")])
    def test_second_call_allocates_no_state(self, topo):
        """The returned loop holds its d buffer: a second call allocates
        nothing state-sized and returns the same d, holding diff(q_line) at
        the final q."""
        system = LadderSystem(topo, line_params(2.0, 0.5), 4000, 10.0)
        rng = np.random.default_rng(12)
        q, u = rng.normal(size=(2, system.dim))
        u *= 1e-3
        dt = 0.5 * system.cfl_dt()
        acc = np.empty_like(q)
        loop = system.drift_kick(q, u, dt, acc)
        first = loop(2)
        returned = []
        peak = traced_peak(lambda: returned.append(loop(2)))
        (second,) = returned
        assert peak < q.nbytes // 4
        assert second is first
        assert np.array_equal(second, np.diff(q[system.n_circ:]))

    @pytest.mark.parametrize("topo", [
        pytest.param(lc_model(g=0.3, alpha=2.0)[1], id="lc"),
        pytest.param(parse_netlist(LADDER_JOSEPHSON_NETLIST), id="josephson")])
    def test_stepping_sets_no_system_state(self, topo):
        """The kernel, the step wrapper and the step maps leave the system's
        attributes as ``__init__`` set them: the same names bound to the same
        objects. A Josephson system refuses the maps and still keeps them."""
        system = LadderSystem(topo, line_params(2.0, 0.5), 150, 10.0)
        before = dict(vars(system))
        rng = np.random.default_rng(13)
        q, u = rng.normal(size=(2, system.dim))
        u *= 1e-3
        dt = 0.5 * system.cfl_dt()
        system.drift_kick(q, u, dt, np.empty_like(q))(3)
        system.leapfrog_step(q, u, system.grad_potential(q), dt, steps=2)
        for step_map in (lambda: system.one_step_matrix(dt),
                         lambda: system.leapfrog_power(dt, 3)):
            if topo.is_linear:
                step_map()
            else:
                with pytest.raises(ValidationError, match="linear circuit"):
                    step_map()
        after = vars(system)
        assert list(after) == list(before)
        assert all(after[name] is value for name, value in before.items())

    def test_kick_operators_follow_dt(self):
        """The dt-scaled kick operators follow dt: a second dt on a used
        system steps as on a fresh one."""
        rng = np.random.default_rng(11)
        q0, u0 = rng.normal(size=(2, self.lc_system().dim))
        dt = 0.5 * self.lc_system().cfl_dt()
        used = self.lc_system()
        used.drift_kick(q0.copy(), u0.copy(), dt, np.empty_like(q0))(3)
        got = [q0.copy(), u0.copy(), np.empty_like(q0)]
        used.drift_kick(*got[:2], 0.5 * dt, got[2])(3)
        want = [q0.copy(), u0.copy(), np.empty_like(q0)]
        self.lc_system().drift_kick(*want[:2], 0.5 * dt, want[2])(3)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_arguments_unchanged(self):
        system = self.lc_system()
        rng = np.random.default_rng(5)
        q, p = rng.normal(size=(2, system.dim))
        grad = system.grad_potential(q)
        before = [a.copy() for a in (q, p, grad)]
        out = system.leapfrog_step(q, p, grad, 0.5 * system.cfl_dt(), steps=7)
        for arg, kept in zip((q, p, grad), before):
            assert np.array_equal(arg, kept)
        assert not any(np.shares_memory(o, a) for o in out for a in (q, p, grad))

    def test_stack_equals_column_calls(self):
        system = self.lc_system()
        rng = np.random.default_rng(6)
        q, p = rng.normal(size=(2, system.dim, 3))
        dt = 0.5 * system.cfl_dt()
        stacked = system.leapfrog_step(q, p, system.grad_potential(q), dt, steps=5)
        for j in range(3):
            qj, pj = q[:, j].copy(), p[:, j].copy()
            column = system.leapfrog_step(qj, pj, system.grad_potential(qj), dt, steps=5)
            for got, want in zip(stacked, column):
                assert np.abs(got[:, j] - want).max() <= 1e-14 * np.abs(want).max()

    def test_steps_equal_repeated_single_steps(self):
        system = self.lc_system()
        rng = np.random.default_rng(7)
        q, p = rng.normal(size=(2, system.dim))
        grad = system.grad_potential(q)
        dt = 0.5 * system.cfl_dt()
        merged = system.leapfrog_step(q, p, grad, dt, steps=40)
        single = (q, p, grad)
        for _ in range(40):
            single = system.leapfrog_step(*single, dt)
        for got, want in zip(merged, single):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_needs_a_step(self):
        system = self.lc_system()
        q = np.zeros(system.dim)
        with pytest.raises(ValidationError, match="steps >= 1"):
            system.leapfrog_step(q, q, q, 0.1, steps=0)


class TestLadderSamples:
    """Each output sample is read off the kernel's own state (u, acc): the
    energies against M (u + acc/2) / dt through ``momenta`` and
    ``hamiltonian``, and no per-sample calls of either."""

    CASES = [
        pytest.param(lc_model(g=0.3, alpha=2.0)[1], ReducedState(phi=[1.0], q=[0.2], q0=-0.1),
                     id="lc"),
        pytest.param(parse_netlist(LADDER_JOSEPHSON_NETLIST),
                     ReducedState(phi=[0.8, -0.3], q=[0.1, 0.0], q0=0.05), id="josephson"),
    ]
    LINE = line_params(2.0, 0.5)  # Z_c = 2, v_p = 1

    def run(self, topo, initial, samples):
        t = np.linspace(0.0, 2 * np.pi, samples)
        length = 1.12 * self.LINE.v_p * t[-1] / 2
        return ladder_oracle(self.LINE, 150, length, topo, initial, t), length

    @pytest.mark.parametrize("topo, initial", CASES)
    def test_energy_matches_hamiltonian(self, topo, initial):
        traj, length = self.run(topo, initial, 101)
        system = LadderSystem(topo, self.LINE, 150, length)
        dt = traj.meta["dt"]
        n_sub = traj.meta["substeps"] // 100
        q, p = system.initial_state(initial)
        energy = [system.hamiltonian(q, p)]
        u = dt * system.velocities(p - 0.5 * dt * system.grad_potential(q))
        acc = np.empty_like(u)
        for _ in range(100):
            system.drift_kick(q, u, dt, acc)(n_sub)
            energy.append(system.hamiltonian(q, system.momenta(u + 0.5 * acc) / dt))
        energy = np.array(energy)
        drift = np.abs(energy - energy[0]).max() / abs(energy[0])
        assert traj.meta["energy0"] == energy[0]
        assert traj.meta["energy_drift"] == pytest.approx(drift, rel=1e-12)

    @pytest.mark.parametrize("topo, initial", CASES)
    def test_no_per_sample_operator_calls(self, topo, initial, monkeypatch):
        calls = {}
        for name in ("hamiltonian", "velocities", "momenta"):
            original = getattr(LadderSystem, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(LadderSystem, name, counted)
        counts = []
        for samples in (51, 201):
            calls.clear()
            self.run(topo, initial, samples)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert all(c <= 2 for c in counts[0].values()), counts[0]


def shifted(values, offset):
    """A copy of ``values`` whose first byte sits ``offset`` bytes past a
    cache line."""
    raw = np.empty(values.nbytes + 2 * CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % CACHE_LINE + offset
    out = raw[start:start + values.nbytes].view(np.float64).reshape(values.shape)
    out[...] = values
    return out


def on_a_line(view):
    return view.ctypes.data % CACHE_LINE == 0


class TestCacheAlignedBuffers:
    """Every view the leapfrog kernel writes starts a cache line, and where
    a buffer sits never changes a bit of what the kernel computes."""

    SYSTEMS = [
        pytest.param(lc_model(g=0.3, alpha=2.0)[1], 150, id="lc"),
        pytest.param(parse_netlist(LADDER_JOSEPHSON_NETLIST), 151, id="josephson"),
        pytest.param(parse_netlist(CHAIN_NETLIST), 400, id="chain"),
    ]

    @pytest.mark.parametrize("shape, at", [((1,), 0), ((1001,), 0), ((1001,), 3),
                                           ((4003,), 2), ((7, 3), 0), ((153, 3), 2),
                                           ((402, 1), 4), ((5, 2, 3), 1)])
    def test_helper_aligns_the_requested_row_and_keeps_the_values(self, shape, at):
        rng = np.random.default_rng(len(shape) * 1000 + shape[0] + at)
        values = rng.normal(size=shape)
        values.flat[:3] = [-0.0, 5e-324, np.nan][:values.size]
        for _ in range(8):  # each call may land anywhere in a line
            out = _cache_aligned(shape, values, at=at)
            assert out.shape == shape and out.dtype == np.float64
            assert out.flags.c_contiguous and out.flags.writeable
            assert on_a_line(out[at:])
            assert out.tobytes() == values.tobytes()
            root = out
            while root.base is not None:
                root = root.base
            assert root.nbytes == out.nbytes + CACHE_LINE
        assert _cache_aligned(shape).shape == shape
        assert not _cache_aligned(shape, 0.0).any()

    @pytest.mark.parametrize("topo, n_sections", SYSTEMS)
    def test_oracle_hands_the_kernel_aligned_buffers(self, topo, n_sections, monkeypatch):
        """The q and u that ``ladder_oracle`` gives ``drift_kick`` start a
        line at element 0, acc at element n + 1 (the kick's line output),
        and so does the d buffer that the kernel's loop returns."""
        seen = []
        drift_kick = LadderSystem.drift_kick

        def captured(system, q, u, dt, acc):
            loop = drift_kick(system, q, u, dt, acc)

            def stepped(steps):
                d = loop(steps)
                seen.append((system.n_circ, q, u, acc, d))
                return d
            return stepped
        monkeypatch.setattr(LadderSystem, "drift_kick", captured)
        line = line_params(2.0, 0.5)
        t = np.linspace(0.0, 2 * np.pi, 21)
        n = topo.node_count
        initial = ReducedState(phi=np.linspace(0.8, -0.3, n), q=np.zeros(n), q0=0.05)
        ladder_oracle(line, n_sections, 1.12 * line.v_p * t[-1] / 2, topo, initial, t)
        assert len(seen) == 20
        for n, q, u, acc, d in seen:
            assert on_a_line(q) and on_a_line(u) and on_a_line(acc[n + 1:]) and on_a_line(d)

    @pytest.mark.parametrize("topo, n_sections", SYSTEMS)
    def test_layout_never_changes_bits(self, topo, n_sections):
        """drift_kick on one state copied into buffers that start 0, 8, ...,
        56 bytes past a line: q, u, acc and d keep every bit."""
        system = LadderSystem(topo, line_params(2.0, 0.5), n_sections, 10.0)
        rng = np.random.default_rng(n_sections)
        q0, u0 = rng.normal(size=(2, system.dim))
        u0 *= 1e-3
        dt = 0.5 * system.cfl_dt()
        runs = []
        for offset in range(0, CACHE_LINE, 8):
            q, u, acc = shifted(q0, offset), shifted(u0, offset), shifted(q0, offset)
            d = system.drift_kick(q, u, dt, acc)(7)
            runs.append([a.tobytes() for a in (q, u, acc, d)])
        assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda m, topo, line: integrate(assemble_rhs(m, topo), ReducedState(
        phi=[1.0], q=[0.0], q0=0.0), np.linspace(0.0, 1.0, 101), method="bogus"),
        "unknown integration method 'bogus'", id="integrate-unknown-method"),
    pytest.param(lambda m, topo, line: LadderSystem(topo, line, 150, 0.0),
                 "ladder length must be positive", id="ladder-length-0"),
    pytest.param(lambda m, topo, line: ReducedState(phi=[1.0, 2.0], q=[0.0], q0=0.0),
                 "phi and q must have the same length", id="state-lengths-differ"),
    pytest.param(lambda m, topo, line: assemble_rhs(m, np.eye(2)),
                 "grad_u must be a CircuitTopology or a 1x1 stiffness matrix",
                 id="stiffness-shape"),
    pytest.param(lambda m, topo, line: assemble_rhs(m, lambda phi: phi),
                 "grad_u must be a CircuitTopology or a 1x1 stiffness matrix",
                 id="grad-u-callable")])
def test_malformed_arguments_refused(call, message):
    model, topo, params = lc_model()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(model, topo, lc_line(params))


@pytest.mark.parametrize("form", [integrate, langevin_form], ids=["direct", "langevin"])
@pytest.mark.parametrize("junction, method, message", [
    pytest.param(False, "bogus", "unknown integration method 'bogus'", id="unknown-method"),
    pytest.param(True, "expm", "matrix-exponential stepper requires a linear circuit",
                 id="expm-nonlinear")])
def test_refused_method_warns_nothing(form, junction, method, message):
    """A refused method raises before the dt check: at dt = 5, which does
    not resolve the circuit, a driven run warns nothing first."""
    from lineport import CircuitTopology
    if junction:
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1.0),),
                               junctions=((1, 2, 0.8, 1.0),), coupling_capacitance=0.4)
        model = derive_reduced_model(topo, 1.5)
    else:
        model, topo, _ = lc_model()
    t = 5.0 * np.arange(11)
    e0 = gaussian_source(t, 20.0, 5.0)
    initial = ReducedState(phi=[0.3], q=[0.0], q0=0.0)
    with warnings.catch_warnings(), pytest.raises(ValidationError,
                                                  match=f"^{re.escape(message)}$"):
        warnings.simplefilter("error")
        if form is integrate:
            integrate(assemble_rhs(model, topo, e0=e0), initial, t, method=method)
        else:
            langevin_form(model, topo, e0, initial, t, method=method)


class TestTimeGridChecked:
    """A bad time grid is refused before any stepping or ladder assembly."""

    BAD_GRIDS = [pytest.param([0.0], id="one-point"),
                 pytest.param([0.0, 0.1, 0.3, 0.4], id="non-uniform"),
                 pytest.param([0.0, -0.1, -0.2], id="decreasing")]

    @pytest.fixture
    def no_stepping(self, monkeypatch):
        import lineport.reduced_dynamics as rd

        def fail(*args, **kwargs):
            raise AssertionError("stepping started on a bad time grid")
        for name in ("_propagate_affine", "_rk4", "LadderSystem"):
            monkeypatch.setattr(rd, name, fail)

    @pytest.mark.parametrize("t", BAD_GRIDS)
    @pytest.mark.parametrize("method", ["expm", "rk4"])
    def test_integrate(self, no_stepping, t, method):
        model, topo, _ = lc_model()
        rhs = assemble_rhs(model, stiffness_matrix(topo))
        with pytest.raises(ValidationError, match="time grid"):
            integrate(rhs, ReducedState(phi=[1.0], q=[0.0], q0=0.0), t, method=method)

    @pytest.mark.parametrize("t", BAD_GRIDS)
    @pytest.mark.parametrize("method", ["expm", "rk4"])
    def test_langevin_form(self, no_stepping, t, method):
        model, topo, _ = lc_model()
        with pytest.raises(ValidationError, match="time grid"):
            langevin_form(model, stiffness_matrix(topo), None,
                          ReducedState(phi=[1.0], q=[0.0], q0=0.0), t, method=method)

    @pytest.mark.parametrize("t", BAD_GRIDS)
    def test_ladder_oracle(self, no_stepping, t):
        model, topo, params = lc_model()
        with pytest.raises(ValidationError, match="time grid"):
            ladder_oracle(lc_line(params), 200, 10.0, topo,
                          ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)


class TestStateSpace:
    def test_reduced_flow_eigenvalues_are_the_laplace_poles(self):
        """The reduced LC flow's eigenvalues are the roots of the Laplace
        oracle's cubic (times omega_r), each to 1e-12 of its magnitude, on a
        270-point (g, alpha, omega_r) grid; each root is matched to its
        nearest eigenvalue, and no two roots to the same one."""
        for g in np.linspace(0.02, 0.98, 10):
            for alpha in np.geomspace(0.05, 20.0, 9):
                for omega_r in (0.5, 1.0, 3.0):
                    model, topo, params = lc_model(g=g, alpha=alpha, omega_r=omega_r)
                    flow = StateSpace.reduced(model, stiffness_matrix(topo)).a
                    eig = np.linalg.eigvals(flow)
                    poles = find_poles(char_poly(params.g, params.alpha), params.omega_r).poles
                    gap = np.abs(eig[:, None] - poles[None, :])
                    assert len(set(gap.argmin(axis=0))) == 3
                    assert np.all(gap.min(axis=0) <= 1e-12 * np.abs(poles))


def mp_expm(a):
    """exp(A) to 50 digits by mpmath, rounded to doubles."""
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


class TestExpmKernel:
    """``StateSpace.propagator`` against mpmath's exp(A) at 50 digits. The
    bound follows from the conditioning of exp: its relative condition number
    is at least ||A|| (N. J. Higham, Functions of Matrices, SIAM 2008, sec.
    10.2), so a stable method loses accuracy in proportion. The max-abs error
    may reach 8 ulps of max|exp(A)| per unit of ||A||_1, and 8 ulps below
    ||A||_1 = 1."""

    @staticmethod
    def assert_close(got, a, want=None):
        want = mp_expm(a) if want is None else want
        bound = 8 * np.finfo(float).eps * max(1.0, np.linalg.norm(a, 1))
        assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reduced_flows_of_random_circuits(self, seed):
        topo = random_topology(np.random.default_rng(seed), n_max=3)
        flow = StateSpace.reduced(derive_reduced_model(topo, 2.0), stiffness_matrix(topo))
        for dt in (1e-3, 0.1, 1.0, 10.0):
            self.assert_close(flow.propagator(dt), flow.a * dt)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_step_operators_of_random_circuits(self, seed):
        """E, F and G of the exact stepper are blocks of exp(W dt) for the
        3d x 3d augmented W = [[M, I, 0], [0, 0, I], [0, 0, 0]]."""
        topo = random_topology(np.random.default_rng(seed), n_max=3)
        m = StateSpace.reduced(derive_reduced_model(topo, 2.0), stiffness_matrix(topo)).a
        d = len(m)
        w = np.zeros((3 * d, 3 * d))
        w[:d, :d] = m
        w[:2 * d, d:] = np.eye(2 * d)
        for dt in (0.01, 0.5):
            want = mp_expm(w * dt)
            blocks = np.hstack(_lti_step_operators(m, dt))
            blocks[:, 2 * d:] *= dt
            self.assert_close(blocks, w * dt, want[:d])

    @pytest.mark.parametrize("kind", ["closed", "port-flux"])
    def test_lumped_flows_over_norms(self, kind):
        """||A t||_1 from 1e-8 to 1e3: none to eight squarings."""
        model, topo, _ = lc_model(g=0.3, alpha=2.0)
        k = stiffness_matrix(topo)
        mass = reduce_ground(build_capacitance_matrix(topo), topo.ground)
        flow = (StateSpace.closed(mass, k) if kind == "closed"
                else StateSpace.reduced(model, k, port_flux=True))
        for norm in 10.0 ** np.arange(-8, 4):
            t = norm / np.linalg.norm(flow.a, 1)
            self.assert_close(flow.propagator(t), flow.a * t)

    def test_non_normal_matrices_over_norms(self):
        a = np.random.default_rng(5).standard_normal((6, 6))
        for norm in 10.0 ** np.arange(-8, 4):
            t = norm / np.linalg.norm(a, 1)
            self.assert_close(StateSpace(a).propagator(t), a * t)

    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(StateSpace(np.zeros((5, 5))).propagator(1.0), np.eye(5))
        model, topo, _ = lc_model()
        flow = StateSpace.reduced(model, stiffness_matrix(topo))
        assert np.array_equal(flow.propagator(0.0), np.eye(3))
