import numpy as np
import pytest

from lineport import (GaussianMoments, HamiltonianSystem, LadderSystem,
                      OpenReducedSystem, ReducedState, Signal, ValidationError,
                      assemble_rhs, build_capacitance_matrix, canonical_j,
                      commutator_residual, derive_reduced_model, integrate,
                      ladder_oracle, langevin_weak, line_params, parse_netlist,
                      peak_envelope, propagate_gaussian, propagator_of, reduce_ground,
                      residual_report, stiffness_matrix)
from lineport.spectral import LcExampleParams

from conftest import lc_model, lc_topology

TR = 2.0 * np.pi


def lc_ladder(g=0.3, alpha=2.0, n_sections=300, length=20.0):
    topo, params = lc_topology(g=g, alpha=alpha)
    line = line_params(params.z_c, 1.0 / params.z_c)  # v_p = 1
    return LadderSystem(topo, line, n_sections, length), params


class TestPropagator:
    def test_identity_at_time_zero(self):
        system, params = lc_ladder()
        prop = propagator_of(system, 0.0, dt=params.t_r / 1000)
        assert np.allclose(prop.matrix, np.eye(2 * system.dim), atol=0)

    def test_harmonic_quarter_period_rotation(self):
        c_r, l_r = 2.0, 0.5
        omega = 1.0 / np.sqrt(l_r * c_r)
        system = HamiltonianSystem(mass=np.array([[c_r]]),
                                   stiffness=np.array([[1.0 / l_r]]))
        prop = propagator_of(system, (np.pi / 2.0) / omega)
        expected = np.array([[0.0, 1.0 / (c_r * omega)], [-c_r * omega, 0.0]])
        assert np.allclose(prop.matrix, expected, atol=1e-12)
        assert np.linalg.det(prop.matrix) == pytest.approx(1.0, rel=1e-12)

    def test_closed_ladder_symplectic(self):
        system, params = lc_ladder()
        dt = params.t_r / 1000.0
        prop = propagator_of(system, 5 * params.t_r, dt=dt)
        assert commutator_residual(prop) <= 1e-8

    def test_nonlinear_circuit_rejected(self):
        from lineport import CircuitTopology
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1.0),),
                               junctions=((1, 2, 1.0, 1.0),),
                               coupling_capacitance=0.5)
        line = line_params(1.0, 1.0)
        system = LadderSystem(topo, line, 150, 10.0)
        with pytest.raises(ValidationError, match="linear"):
            propagator_of(system, 1.0, dt=0.01)

    def test_ladder_needs_dt(self):
        system, params = lc_ladder()
        with pytest.raises(ValidationError, match="dt"):
            propagator_of(system, 1.0)

    def test_ladder_propagator_is_the_trajectory_map(self):
        # the certified propagator must be the map that ladder_oracle applies:
        # S^k [q; p] at the initial ladder state gives output sample k
        system, params = lc_ladder(n_sections=150, length=8.0)
        t = np.linspace(0.0, 2.0 * params.t_r, 41)
        dt_out = t[1] - t[0]
        dt = dt_out / 8
        initial = ReducedState(phi=[0.7], q=[-0.4], q0=0.2)
        traj = ladder_oracle(system.line, system.n_sections, system.length,
                             system.topology, initial, t, dt=dt)
        assert traj.meta["dt"] == dt
        state = np.concatenate(system.initial_state(initial))
        n, dim = system.n_circ, system.dim
        for k in (1, 7, 40):
            mapped = propagator_of(system, k * dt_out, dt=dt).matrix @ state
            for got, want in ((mapped[:n], traj.phi), (mapped[dim:dim + n], traj.q)):
                assert np.abs(got - want[k]).max() <= 1e-12 * np.abs(want).max()

        step = system.one_step_matrix(dt)
        q, p = state[:dim], state[dim:]
        q1, p1, _ = system.leapfrog_step(q, p, system.grad_potential(q), dt)
        stepped = np.concatenate([q1, p1])
        assert np.abs(step @ state - stepped).max() <= 1e-14 * np.abs(stepped).max()


    @pytest.mark.parametrize("t, dt", [
        (np.inf, 0.01), (np.nan, 0.01), (1.0, 0.0), (1.0, -0.01),
        (1.0, np.inf), (1.0, np.nan), (1e300, 1e-300)])
    def test_ladder_refuses_unusable_t_or_dt(self, t, dt):
        system, _ = lc_ladder(n_sections=150, length=8.0)
        with pytest.raises(ValidationError, match="dt|t="):
            propagator_of(system, t, dt=dt)

    def test_negative_time_is_the_backward_map(self):
        system, params = lc_ladder(n_sections=150, length=8.0)
        dt = params.t_r / 1000.0
        forward = propagator_of(system, 0.3 * params.t_r, dt=dt).matrix
        backward = propagator_of(system, -0.3 * params.t_r, dt=dt).matrix
        assert np.abs(forward @ backward - np.eye(2 * system.dim)).max() <= 1e-12


def long_double_leapfrog_power(system, dt, steps):
    """S^steps by repeated squaring in long double, from the one-step
    matrix [[B, dt M^-1], [-(dt/2) K (I + B), B^T]] with B = I - (dt^2/2) M^-1 K
    assembled from the dense mass and stiffness of the float64 operators."""
    ld = np.longdouble
    dim, n = system.dim, system.n_circ
    eye = np.eye(dim, dtype=ld)
    k = system.grad_potential(np.eye(dim)).astype(ld)
    m_inv = np.zeros((dim, dim), dtype=ld)
    m_inv[:n + 1, :n + 1] = system.velocities(np.eye(dim))[:n + 1, :n + 1]
    m_inv[n + 1:, n + 1:] = np.diag(1 / system.cells[1:].astype(ld))
    h = ld(dt)
    b = eye - h * h / 2 * (m_inv @ k)
    base = np.block([[b, h * m_inv], [-(h / 2) * (k @ (eye + b)), b.T]])
    power = np.eye(2 * dim, dtype=ld)
    while steps:
        if steps & 1:
            power = power @ base
        steps >>= 1
        if steps:
            base = base @ base
    return power


class TestLeapfrogPower:
    """The leapfrog map from the ladder's modes against powers of the
    one-step matrix and a long-double reference."""

    @pytest.mark.parametrize("steps", [-3, 0, 1, 2, 3, 7, 64, 65, 1000])
    def test_matches_one_step_matrix_power(self, steps):
        system, params = lc_ladder(n_sections=150, length=8.0)
        dt = params.t_r / 1000.0
        want = np.linalg.matrix_power(system.one_step_matrix(dt), steps)
        got = system.leapfrog_power(dt, steps)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_zero_steps_is_the_exact_identity(self):
        system, params = lc_ladder(n_sections=150, length=8.0)
        assert np.array_equal(system.leapfrog_power(params.t_r / 1000.0, 0),
                              np.eye(2 * system.dim))

    def test_no_less_accurate_than_matrix_power(self):
        system, params = lc_ladder(n_sections=100, length=8.0)
        dt, steps = params.t_r / 1000.0, 1000
        exact = long_double_leapfrog_power(system, dt, steps)
        cheb = system.leapfrog_power(dt, steps)
        squared = np.linalg.matrix_power(system.one_step_matrix(dt), steps)
        assert np.abs(cheb - exact).max() <= np.abs(squared - exact).max()

    def test_long_run_against_long_double(self):
        system, params = lc_ladder(n_sections=100, length=8.0)
        dt, steps = params.t_r / 1000.0, 5000
        exact = long_double_leapfrog_power(system, dt, steps)
        got = system.leapfrog_power(dt, steps)
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_free_line_shift_drifts_exactly(self):
        # a uniform line velocity feels no force (K e = 0): theta = 0 on
        # this mode, sin N theta / sin theta is N, and q moves by N dt e
        system, params = lc_ladder(n_sections=150, length=8.0)
        dt, steps, n = params.t_r / 1000.0, 5000, system.n_circ
        e = np.zeros(system.dim)
        e[n:] = 1.0
        p = system.momenta(e)
        mapped = system.leapfrog_power(dt, steps) @ np.concatenate([np.zeros(system.dim), p])
        assert np.abs(mapped[:system.dim] - steps * dt * e).max() <= 1e-12 * steps * dt
        assert np.abs(mapped[system.dim:] - p).max() <= 1e-12 * np.abs(p).max()

    @pytest.mark.parametrize("planted", [0.0, -1e-13], ids=["zero", "small-negative"])
    def test_eigenvalue_at_or_below_zero_clipped(self, monkeypatch, planted):
        """The free mode's eigenvalue rounds to either side of 0; planted at
        exactly 0 or just below it (relative to the largest), the power
        stays finite and equal to the unplanted one."""
        system, params = lc_ladder(n_sections=150, length=8.0)
        dt, steps = params.t_r / 1000.0, 1000
        want = system.leapfrog_power(dt, steps)
        eigh = np.linalg.eigh

        def planted_eigh(a):
            lam, q = eigh(a)
            lam[np.argmin(np.abs(lam))] = planted * lam.max()
            return lam, q
        monkeypatch.setattr(np.linalg, "eigh", planted_eigh)
        got = system.leapfrog_power(dt, steps)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_benchmark_size_commutator_residual(self):
        # the benchmark's 300-section, 5000-step propagator: 3.0e-14 from
        # the modes, ten times under the bound; Chebyshev doubling gave 3.3e-12
        system, params = lc_ladder(n_sections=300, length=20.0)
        prop = propagator_of(system, 5 * params.t_r, dt=params.t_r / 1000.0)
        assert commutator_residual(prop) <= 3e-13

    def test_unstable_dt_refused(self):
        system, _ = lc_ladder(n_sections=150, length=8.0)
        with pytest.raises(ValidationError, match="unstable"):
            system.leapfrog_power(2.0 * system.cfl_dt(), 5)

    def test_nonlinear_circuit_rejected(self):
        from lineport import CircuitTopology
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1.0),),
                               junctions=((1, 2, 1.0, 1.0),),
                               coupling_capacitance=0.5)
        system = LadderSystem(topo, line_params(1.0, 1.0), 150, 10.0)
        with pytest.raises(ValidationError, match="linear"):
            system.leapfrog_power(0.01, 5)

    def test_momenta_invert_velocities(self):
        system, _ = lc_ladder(n_sections=150, length=8.0)
        p = np.random.default_rng(5).normal(size=(system.dim, 4))
        assert np.abs(system.momenta(system.velocities(p)) - p).max() <= 1e-13
        columns = np.column_stack([system.momenta(p[:, j]) for j in range(4)])
        assert np.abs(system.momenta(p) - columns).max() <= 1e-15 * np.abs(columns).max()


class TestCommutatorResidual:
    def test_identity_preserves_commutators(self):
        assert commutator_residual(np.eye(8)) == 0.0

    def test_half_product_form_matches_dense_j(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 5, 30):
            for _ in range(5):
                s = rng.normal(size=(2 * d, 2 * d))
                j = canonical_j(d)
                want = float(np.abs(s.T @ j @ s - j).max())
                assert commutator_residual(s) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            commutator_residual(np.eye(5))

    def test_open_system_contraction(self):
        # the reduced model is open: Q0 contracts at rate 1/tau while its
        # partner Phi0 does not, so the dominant pairing defect grows like
        # 1 - exp(-t/tau) and saturates at 1
        model, topo, params = lc_model(g=0.05, alpha=1.0)
        system = OpenReducedSystem(model=model, stiffness=stiffness_matrix(topo))
        tau = model.tau
        fractions = np.array([0.1, 0.5, 1.0, 3.0])
        residuals = []
        for f in fractions:
            residuals.append(commutator_residual(propagator_of(system, f * tau)))
            assert residuals[-1] > 0
        assert np.all(np.diff(residuals) > 0)
        assert residuals == pytest.approx(1.0 - np.exp(-fractions), rel=0.05)
        late = commutator_residual(propagator_of(system, 10.0 * tau))
        assert late == pytest.approx(1.0, rel=0.01)


class TestResidualReport:
    def test_json_fields(self):
        import json
        system, params = lc_ladder(n_sections=150, length=10.0)
        from lineport import residual_report
        prop = propagator_of(system, params.t_r, dt=params.t_r / 200.0)
        rep = residual_report(prop)
        assert set(rep) == {"symplectic_residual", "t", "dt", "system"}
        assert rep["system"] == "ladder-leapfrog"
        assert rep["symplectic_residual"] <= 1e-10
        json.dumps(rep)


CHAIN_NETLIST = """\
# three-node LC chain, grounded through the last inductor
C 1 4 1.0
C 2 4 1.0
C 3 4 1.0
C 1 2 0.2
L 1 2 1.0
L 2 3 1.5
L 3 4 2.0
COUPLE 0.42857142857142855
"""


def former_reduced_flow(model, k):
    """The former ``_reduced_flow_matrix``: the reduced flow on (Phi, Q, Q0)."""
    n = model.n_nodes
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[:n, n:2 * n] = model.cb_inv
    m[:n, 2 * n] = model.p
    m[n:2 * n, :n] = -k
    m[2 * n, n:2 * n] = -model.p / model.z_c
    m[2 * n, 2 * n] = -1.0 / model.tau
    return m


def former_closed_flow(mass, stiffness):
    """The flow ``propagator_of`` formerly built for a ``HamiltonianSystem``."""
    m_inv = np.linalg.inv(mass)
    d = len(mass)
    flow = np.zeros((2 * d, 2 * d))
    flow[:d, d:] = m_inv
    flow[d:, :d] = -stiffness
    return flow


def former_open_flow(model, stiffness):
    """The flow ``propagator_of`` formerly built for an ``OpenReducedSystem``:
    the reduced flow embedded in (Phi, Phi0, Q, Q0), plus dPhi0/dt = V0."""
    n = model.n_nodes
    keep = np.r_[0:n, n + 1:2 * n + 2]
    flow = np.zeros((2 * n + 2, 2 * n + 2))
    flow[np.ix_(keep, keep)] = former_reduced_flow(model, np.asarray(stiffness, dtype=float))
    flow[n, n + 1:] = np.append(model.p, 1.0 / model.c_p)
    return flow


def lumped_circuit(name):
    """(reduced model, topology) of the LC example or the 3-node chain."""
    if name == "lc":
        model, topo, _ = lc_model(g=0.3, alpha=2.0)
        return model, topo
    topo = parse_netlist(CHAIN_NETLIST)
    return derive_reduced_model(topo, 2.0), topo


class TestStateSpaceCore:
    """The lumped systems built by ``StateSpace`` against the flows that
    ``propagator_of`` and the reduced right-hand side formerly built by hand,
    kept here as the references."""

    @pytest.mark.parametrize("name", ["lc", "chain"])
    def test_propagators_equal_former_flows(self, name):
        from scipy.linalg import expm
        model, topo = lumped_circuit(name)
        k = stiffness_matrix(topo)
        mass = reduce_ground(build_capacitance_matrix(topo), topo.ground)
        assert np.array_equal(assemble_rhs(model, k).flow_matrix, former_reduced_flow(model, k))
        closed = HamiltonianSystem(mass=mass, stiffness=k)
        open_system = OpenReducedSystem(model=model, stiffness=k)
        for t in (0.1, 1.7, 13.0):
            assert np.array_equal(propagator_of(closed, t).matrix,
                                  expm(former_closed_flow(mass, k) * t))
            assert np.array_equal(propagator_of(open_system, t).matrix,
                                  expm(former_open_flow(model, k) * t))

    def test_residual_report_names_each_system(self):
        model, topo = lumped_circuit("lc")
        k = stiffness_matrix(topo)
        ladder, params = lc_ladder(n_sections=150, length=10.0)
        systems = {"ladder-leapfrog": ladder,
                   "closed-exact": HamiltonianSystem(mass=np.array([[1.0]]), stiffness=k),
                   "reduced-open": OpenReducedSystem(model=model, stiffness=k)}
        for kind, system in systems.items():
            dt = params.t_r / 200.0 if kind == "ladder-leapfrog" else None
            assert residual_report(propagator_of(system, params.t_r, dt=dt))["system"] == kind


class TestGaussian:
    def test_noise_flag_required(self):
        system, _ = lc_ladder(n_sections=150, length=10.0)
        prop = propagator_of(system, 0.0, dt=0.01)
        dim = 2 * system.dim
        moments = GaussianMoments(mean=np.zeros(dim), cov=np.eye(dim))
        with pytest.raises(ValidationError, match="noise"):
            propagate_gaussian(moments, prop)

    def test_vacuum_mean_stays_zero(self):
        c = np.array([[1.0]])
        prop = propagator_of(HamiltonianSystem(mass=c, stiffness=c), 0.7)
        moments = GaussianMoments(mean=np.zeros(2), cov=0.5 * np.eye(2))
        out = propagate_gaussian(moments, prop, noise_free=True)
        assert np.all(out.mean == 0.0)

    def test_mean_follows_classical_trajectory(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        k = stiffness_matrix(topo)
        system = OpenReducedSystem(model=model, stiffness=k)
        t_grid = np.linspace(0.0, 3 * params.t_r, 16)
        traj = integrate(assemble_rhs(model, k),
                         ReducedState(phi=[0.7], q=[-0.4], q0=0.2), t_grid)
        mean0 = np.array([0.7, 0.0, -0.4, 0.2])  # (Phi1, Phi0, Q1, Q0)
        cov0 = np.eye(4)
        scale = np.abs(traj.phi).max()
        for i, t in enumerate(t_grid):
            prop = propagator_of(system, float(t))
            out = propagate_gaussian(GaussianMoments(mean0, cov0), prop,
                                     noise_free=True)
            assert abs(out.mean[0] - traj.phi[i, 0]) <= 1e-10 * scale
            assert abs(out.mean[2] - traj.q[i, 0]) <= 1e-10 * scale
            assert abs(out.mean[3] - traj.q0[i]) <= 1e-10 * scale

    def test_phase_space_volume_preserved_closed_system(self):
        system, params = lc_ladder(n_sections=150, length=12.0)
        prop = propagator_of(system, params.t_r, dt=params.t_r / 500.0)
        sign, logdet = np.linalg.slogdet(prop.matrix)
        assert sign == 1.0 and abs(logdet) <= 1e-8
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        cov = np.eye(6) + 0.1 * (a + a.T) @ (a + a.T).T
        # restrict to the circuit block via a small closed system instead
        small = HamiltonianSystem(mass=np.diag([1.0, 2.0, 3.0]),
                                  stiffness=np.diag([2.0, 1.0, 0.5]))
        sp = propagator_of(small, 1.3)
        out = propagate_gaussian(GaussianMoments(np.zeros(6), cov), sp,
                                 noise_free=True)
        assert np.linalg.det(out.cov) == pytest.approx(np.linalg.det(cov), rel=1e-8)

    def test_covariance_validation(self):
        with pytest.raises(ValidationError, match="symmetric"):
            GaussianMoments(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_uncertainty_defect(self):
        vacuum = GaussianMoments(np.zeros(2), 0.5 * np.eye(2))
        assert vacuum.uncertainty_defect(hbar=1.0) >= -1e-12
        squeezed_too_far = GaussianMoments(np.zeros(2), np.diag([0.1, 0.1]))
        assert squeezed_too_far.uncertainty_defect(hbar=1.0) < -0.1
        # symplectic evolution preserves the defect of the vacuum boundary
        c = np.array([[1.0]])
        prop = propagator_of(HamiltonianSystem(mass=c, stiffness=c), 0.9)
        out = propagate_gaussian(vacuum, prop, noise_free=True)
        assert out.uncertainty_defect(hbar=1.0) >= -1e-12


class TestLangevinWeak:
    def test_damped_cosine_against_analytic(self):
        params = LcExampleParams.from_dimensionless(0.01, 1.0)
        kappa = params.omega_r * params.alpha * params.g ** 2
        omega_sq = params.omega_r ** 2 * (1.0 - params.g)
        t = np.arange(0.0, 6.0 / kappa, params.t_r / 60.0)
        sig = langevin_weak(params, None, (1.0, 0.0), t)
        om_d = np.sqrt(omega_sq - kappa ** 2 / 4.0)
        analytic = np.exp(-0.5 * kappa * t) * (np.cos(om_d * t)
                                               + (0.5 * kappa / om_d) * np.sin(om_d * t))
        tp, ap = peak_envelope(t, sig.samples)
        ta, aa = peak_envelope(t, analytic)
        assert ap == pytest.approx(aa, rel=1e-3)
        assert np.abs(sig.samples - analytic).max() <= 1e-6

    def test_envelope_matches_full_model_weak_regime(self):
        g, alpha = 0.01, 1.0
        model, topo, params = lc_model(g=g, alpha=alpha)
        kappa = params.omega_r * alpha * g * g
        t = np.arange(0.0, 5.0 * (2.0 / kappa), params.t_r / 60.0)
        weak = langevin_weak(params, None, (1.0, 0.0), t)
        full = integrate(assemble_rhs(model, stiffness_matrix(topo)),
                         ReducedState(phi=[1.0], q=[0.0], q0=0.0), t)
        tw, aw = peak_envelope(t, weak.samples)
        tf, af = peak_envelope(t, full.phi[:, 0])
        common = (tf >= tw[0]) & (tf <= tw[-1])
        interp = np.interp(tf[common], tw, aw)
        assert np.abs(interp - af[common]).max() / af[common].max() <= 0.05

    def test_markovian_warning_outside_regime(self):
        params = LcExampleParams.from_dimensionless(0.3, 2.0)
        t = np.linspace(0.0, TR, 64)
        with pytest.warns(UserWarning) as recorded:
            langevin_weak(params, None, (1.0, 0.0), t)
        messages = " ".join(str(w.message) for w in recorded)
        assert "Markovian" in messages and "regime" in messages

    def test_zero_drive_equals_no_drive(self):
        params = LcExampleParams.from_dimensionless(0.02, 0.5)
        t = np.linspace(0.0, 20 * params.t_r, 8001)
        none = langevin_weak(params, None, (1.0, 0.3), t)
        zero = langevin_weak(params, Signal.zeros(t), (1.0, 0.3), t)
        assert np.abs(zero.samples - none.samples).max() <= 1e-14 * np.abs(none.samples).max()

    def test_drive_term_scaling(self):
        # a ramp drive enters as the constant force 2g * slope; compare the
        # response to the analytic step response of the damped oscillator
        params = LcExampleParams.from_dimensionless(0.02, 0.5)
        t = np.linspace(0.0, 20 * params.t_r, 8001)
        slope = 0.25
        ramp = Signal.from_samples(t, slope * t)
        sig = langevin_weak(params, ramp, (0.0, 0.0), t)
        kappa = params.omega_r * params.alpha * params.g ** 2
        om2 = params.omega_r ** 2 * (1.0 - params.g)
        om_d = np.sqrt(om2 - kappa ** 2 / 4.0)
        force = 2.0 * params.g * slope
        analytic = (force / om2) * (1.0 - np.exp(-0.5 * kappa * t)
                                    * (np.cos(om_d * t)
                                       + (0.5 * kappa / om_d) * np.sin(om_d * t)))
        assert np.abs(sig.samples - analytic).max() <= 1e-6 * force / om2
