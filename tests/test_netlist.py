import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lineport import (CircuitTopology, NetlistParseError, NumericalPreconditionError,
                      ValidationError, build_capacitance_matrix, derive_reduced_model,
                      invariant_report, parse_netlist, potential_energy,
                      potential_gradient, reduce_ground, stiffness_matrix)
from lineport.netlist import PHI0_JOSEPHSON, junction_forces, subtract_junction_forces

from conftest import lc_model, lc_topology, random_topology


class TestCapacitanceMatrix:
    def test_single_capacitor_to_ground(self):
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 2.5),),
                               inductors=((1, 2, 1.0),), coupling_capacitance=1.0)
        full = build_capacitance_matrix(topo)
        assert np.allclose(full, [[2.5, -2.5], [-2.5, 2.5]], rtol=0, atol=0)

    def test_empty_capacitor_list_rejected_downstream(self):
        topo = CircuitTopology(node_count=1, inductors=((1, 2, 1.0),),
                               coupling_capacitance=1.0)
        assert np.all(build_capacitance_matrix(topo) == 0.0)
        with pytest.raises(ValidationError, match="inactive node"):
            derive_reduced_model(topo, 1.0)

    def test_two_capacitor_chain(self):
        c_a, c_b = 1.5, 0.25
        topo = CircuitTopology(node_count=2,
                               capacitors=((1, 2, c_a), (2, 3, c_b)),
                               inductors=((1, 3, 1.0), (2, 3, 1.0)),
                               coupling_capacitance=1.0)
        full = build_capacitance_matrix(topo)
        expected = np.array([[c_a, -c_a, 0.0],
                             [-c_a, c_a + c_b, -c_b],
                             [0.0, -c_b, c_b]])
        assert np.allclose(full, expected, rtol=0, atol=0)

    def test_duplicate_branches_summed(self):
        topo = CircuitTopology(node_count=1,
                               capacitors=((1, 2, 1.0), (2, 1, 2.0)),
                               inductors=((1, 2, 1.0),), coupling_capacitance=1.0)
        full = build_capacitance_matrix(topo)
        assert np.allclose(full, [[3.0, -3.0], [-3.0, 3.0]])

    def test_nonpositive_capacitance_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            CircuitTopology(node_count=1, capacitors=((1, 2, -1.0),),
                            inductors=((1, 2, 1.0),), coupling_capacitance=1.0)

    @pytest.mark.parametrize("field, value", [
        ("capacitors", ((1, 2, np.inf),)),
        ("inductors", ((1, 2, np.inf),)),
        ("inductors", ((1, 2, np.nan),)),
        ("junctions", ((1, 2, np.inf, 1.0),)),
        ("coupling_capacitance", np.inf),
    ])
    def test_nonfinite_element_rejected(self, field, value):
        kwargs = dict(node_count=1, capacitors=((1, 2, 1.0),),
                      inductors=((1, 2, 1.0),), coupling_capacitance=1.0)
        kwargs[field] = value
        with pytest.raises(ValidationError, match="finite"):
            CircuitTopology(**kwargs)

    def test_node_zero_forbidden(self):
        with pytest.raises(ValidationError, match="node 0"):
            CircuitTopology(node_count=1, capacitors=((0, 1, 1.0),),
                            inductors=((1, 2, 1.0),), coupling_capacitance=1.0)

    @pytest.mark.parametrize("field, kind, values", [
        ("capacitors", "capacitor", (1.0,)), ("inductors", "inductor", (1.0,)),
        ("junctions", "junction", (1.0, 1.0))])
    @pytest.mark.parametrize("nodes, message", [
        ((2, 2), "{kind} connects node 2 to itself"),
        ((1, 3), "{kind} node 3 outside 1..2"),
        ((-1, 2), "{kind} node -1 outside 1..2")], ids=["self-loop", "beyond-ground", "negative"])
    def test_bad_branch_nodes_refused(self, field, kind, values, nodes, message):
        kwargs = dict(node_count=1, capacitors=((1, 2, 1.0),),
                      inductors=((1, 2, 1.0),), coupling_capacitance=1.0)
        kwargs[field] = ((*nodes, *values),)
        with pytest.raises(ValidationError, match=f"^{message.format(kind=kind)}$"):
            CircuitTopology(**kwargs)

    @pytest.mark.parametrize("field, branch, message", [
        ("capacitors", (1, 2, 0.0), "capacitance must be positive and finite, got 0.0"),
        ("inductors", (1, 2, -2.0), "inductance must be positive and finite, got -2.0"),
        ("junctions", (1, 2, -1.0, 1.0), "junction energy must be positive and finite, got -1.0"),
        ("junctions", (1, 2, 1.0, 0.0), "flux scale must be positive and finite, got 0.0")],
        ids=["capacitance", "inductance", "junction-energy", "flux-scale"])
    def test_nonpositive_value_named(self, field, branch, message):
        kwargs = dict(node_count=1, capacitors=((1, 2, 1.0),),
                      inductors=((1, 2, 1.0),), coupling_capacitance=1.0)
        kwargs[field] = (branch,)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            CircuitTopology(**kwargs)

    @pytest.mark.parametrize("field, branch, message", [
        ("capacitors", (1, 2), "capacitor (1, 2) needs its two nodes and 1 value (i j value)"),
        ("inductors", (1, 2, 1.0, 2.0),
         "inductor (1, 2, 1.0, 2.0) needs its two nodes and 1 value (i j value)"),
        ("junctions", (1, 2),
         "junction (1, 2) needs its two nodes and 1 or 2 values (i j E_J [phi0])"),
        ("junctions", (1, 2, 1.0, 1.0, 1.0),
         "junction (1, 2, 1.0, 1.0, 1.0) needs its two nodes and 1 or 2 values "
         "(i j E_J [phi0])"),
        ("capacitors", (1,), "capacitor (1,) needs its two nodes and 1 value (i j value)")],
        ids=["capacitor-short", "inductor-long", "junction-short", "junction-long",
             "one-node"])
    def test_wrong_value_count_named(self, field, branch, message):
        kwargs = dict(node_count=1, coupling_capacitance=1.0)
        kwargs[field] = (branch,)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            CircuitTopology(**kwargs)

    def test_junction_flux_scale_defaults(self):
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1.0),),
                               junctions=((1, 2, 3.0),), coupling_capacitance=1.0)
        assert topo.junctions == ((1, 2, 3.0, PHI0_JOSEPHSON),)


class TestReduceGround:
    def test_lc_example(self):
        topo, params = lc_topology(g=0.3, alpha=2.0)
        cb = reduce_ground(build_capacitance_matrix(topo), topo.ground)
        assert np.allclose(cb, [[params.c_r]])

    def test_two_node_chain(self):
        c_a, c_b = 1.5, 0.25
        full = np.array([[c_a, -c_a, 0.0],
                         [-c_a, c_a + c_b, -c_b],
                         [0.0, -c_b, c_b]])
        cb = reduce_ground(full, 3)
        assert np.allclose(cb, [[c_a, -c_a], [-c_a, c_a + c_b]])

    def test_ground_index_out_of_range(self):
        with pytest.raises(ValidationError, match="ground index"):
            reduce_ground(np.eye(3), 4)

    def test_floating_island_detected(self):
        # nodes 1-2 linked by one capacitor, no capacitive path to ground
        topo = CircuitTopology(node_count=2, capacitors=((1, 2, 1.0),),
                               inductors=((1, 3, 1.0), (2, 3, 1.0)),
                               coupling_capacitance=1.0)
        with pytest.raises(ValidationError, match="floating island"):
            reduce_ground(build_capacitance_matrix(topo), topo.ground)

    def test_overflowing_stamps_refused(self):
        # each capacitance is finite, their sum on the diagonal is not
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1e308), (1, 2, 1e308)),
                               inductors=((1, 2, 1.0),), coupling_capacitance=1.0)
        with np.errstate(over="ignore"):
            full = build_capacitance_matrix(topo)
        with pytest.raises(NumericalPreconditionError, match="overflow; rescale the units"):
            reduce_ground(full, topo.ground)


class TestReducedModel:
    def test_lc_example_values(self):
        model, topo, params = lc_model(g=0.3, alpha=2.0)
        assert model.p == pytest.approx([1.0 / params.c_r])
        assert model.c_p == pytest.approx(
            params.c_c * params.c_r / (params.c_c + params.c_r), rel=1e-15)
        assert model.a[0, 0] == pytest.approx(1.0 / (params.c_c + params.c_r), rel=1e-15)
        assert model.tau == pytest.approx(params.z_c * model.c_p, rel=1e-15)

    def test_large_coupling_limit(self):
        # C_c -> inf with p1 = 1/C_r gives C_p -> C_r
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 2.0),),
                               inductors=((1, 2, 1.0),), coupling_capacitance=1e9)
        model = derive_reduced_model(topo, 1.0)
        assert model.c_p == pytest.approx(2.0, rel=1e-8)

    def test_condition_warning_attached(self):
        topo = CircuitTopology(node_count=2,
                               capacitors=((1, 3, 1.0), (2, 3, 1e-14), (1, 2, 1e-14)),
                               inductors=((1, 3, 1.0), (2, 3, 1.0)),
                               coupling_capacitance=1.0)
        model = derive_reduced_model(topo, 1.0)
        assert model.warnings and "condition" in model.warnings[0]

    def test_json_round_trip(self):
        """``to_json_dict``, which ``reduce`` writes, survives JSON text with
        the model's values exact; 1/C_p = 1/C_c + p_1 recovers C_c from it."""
        model, _, _ = lc_model()
        d = json.loads(json.dumps(model.to_json_dict()))
        assert d == {"cb": model.cb.ravel().tolist(), "p": model.p.tolist(),
                     "c_p": model.c_p, "a": model.a.ravel().tolist(),
                     "b": model.b.ravel().tolist(), "tau": model.tau, "z_c": model.z_c}
        assert 1.0 / (1.0 / d["c_p"] - d["p"][0]) == pytest.approx(
            model.coupling_capacitance, rel=1e-12)

    def test_json_row_major_flat(self):
        topo = random_topology(np.random.default_rng(7), n_max=4)
        model = derive_reduced_model(topo, 2.0)
        d = model.to_json_dict()
        n = len(d["p"])
        assert len(d["cb"]) == n * n
        assert d["cb"][1] == model.cb[0, 1]


class TestIdentities:
    def test_random_topologies(self, rng):
        for _ in range(100):
            topo = random_topology(rng)
            full = build_capacitance_matrix(topo)
            assert np.abs(full.sum(axis=1)).max() <= 1e-12 * np.abs(full).max()
            model = derive_reduced_model(topo, float(rng.uniform(0.5, 100.0)))
            n = model.n_nodes
            e1 = np.zeros(n)
            e1[0] = 1.0
            cb_norm = np.linalg.norm(model.cb, np.inf)
            assert np.allclose(model.cb, model.cb.T, rtol=1e-12, atol=0)
            assert np.abs(model.cb @ model.p - e1).max() <= 1e-12 * cb_norm * max(
                1.0, np.abs(model.p).max())
            rel = np.abs(model.a + model.b - model.cb_inv).max() / np.abs(model.cb_inv).max()
            assert rel <= 1e-12
            assert 1.0 / model.c_p == pytest.approx(
                1.0 / topo.coupling_capacitance + model.p[0], rel=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_identities_property(self, seed):
        gen = np.random.default_rng(seed)
        topo = random_topology(gen, n_max=8)
        model = derive_reduced_model(topo, 3.0)
        n = model.n_nodes
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.abs(model.cb @ model.p - e1).max() <= 1e-12 * np.linalg.norm(
            model.cb, np.inf) * max(1.0, np.abs(model.p).max())
        assert np.abs(model.a + model.b - model.cb_inv).max() <= \
            1e-12 * np.abs(model.cb_inv).max()


class TestPotential:
    def test_linear_inductor_gradient(self):
        topo, params = lc_topology()
        grad = potential_gradient(topo, np.array([0.7]))
        assert grad[0] == pytest.approx(0.7 / params.l_r, rel=1e-15)

    def test_junction_zero_flux_stationary(self):
        topo = CircuitTopology(node_count=1, capacitors=((1, 2, 1.0),),
                               junctions=((1, 2, 2.0, 1.0),),
                               coupling_capacitance=1.0)
        assert potential_gradient(topo, np.zeros(1)) == pytest.approx([0.0])

    def test_junction_quarter_period_force(self):
        ej, phi0 = 2.0, 0.5
        topo = CircuitTopology(node_count=2, capacitors=((1, 3, 1.0), (2, 3, 1.0)),
                               junctions=((1, 2, ej, phi0),),
                               coupling_capacitance=1.0)
        phi = np.array([np.pi * phi0 / 4.0, -np.pi * phi0 / 4.0])
        grad = potential_gradient(topo, phi)
        assert grad[0] == pytest.approx(ej / phi0, rel=1e-12)
        assert grad[1] == pytest.approx(-ej / phi0, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            topo = random_topology(rng, n_max=6)
            junctions = tuple((i, j, float(rng.uniform(0.5, 2.0)), 1.0)
                              for (i, j, _) in topo.inductors[:2])
            topo = CircuitTopology(node_count=topo.node_count,
                                   capacitors=topo.capacitors,
                                   inductors=topo.inductors,
                                   junctions=junctions,
                                   coupling_capacitance=topo.coupling_capacitance)
            phi = rng.normal(size=topo.node_count)
            grad = potential_gradient(topo, phi)
            h = 1e-6
            for k in range(topo.node_count):
                dphi = np.zeros_like(phi)
                dphi[k] = h
                fd = (potential_energy(topo, phi + dphi)
                      - potential_energy(topo, phi - dphi)) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_stiffness_matches_gradient(self, rng):
        topo = random_topology(rng, n_max=6)
        k = stiffness_matrix(topo)
        phi = rng.normal(size=topo.node_count)
        assert np.allclose(k @ phi, potential_gradient(topo, phi), rtol=1e-12, atol=1e-14)
        # entry-by-entry stamping over the internal nodes only, ground skipped:
        # the same accumulation order, so the values agree bit for bit
        n = topo.node_count
        ref = np.zeros((n, n))
        for i, j, l in topo.inductors:
            w = 1.0 / l
            if i <= n:
                ref[i - 1, i - 1] += w
            if j <= n:
                ref[j - 1, j - 1] += w
            if i <= n and j <= n:
                ref[i - 1, j - 1] -= w
                ref[j - 1, i - 1] -= w
        assert np.array_equal(k, ref)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda topo: derive_reduced_model(topo, 0.0),
                     "characteristic impedance must be positive", id="z-c-0"),
        pytest.param(lambda topo: potential_gradient(topo, np.zeros(2)),
                     r"flux vector must have shape \(1,\)", id="flux-shape"),
        pytest.param(lambda topo: stiffness_matrix(CircuitTopology(
            node_count=1, capacitors=((1, 2, 1.0),), junctions=((1, 2, 1.0, 1.0),),
            coupling_capacitance=0.5)), r"stiffness matrix requires a linear circuit "
            r"\(no junctions\)", id="josephson-stiffness")])
    def test_malformed_arguments_refused(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call(lc_topology()[0])

    def test_nonfinite_flux_rejected(self):
        topo, _ = lc_topology()
        with pytest.raises(ValidationError, match="finite"):
            potential_gradient(topo, np.array([np.nan]))

    def test_overflowing_junction_flux_difference(self):
        # both fluxes are finite, their difference is not
        topo = CircuitTopology(node_count=2, capacitors=((1, 3, 1.0), (2, 3, 1.0)),
                               inductors=((2, 3, 1.0),), junctions=((1, 2, 0.5, 1.0),),
                               coupling_capacitance=1.0)
        for f in (potential_gradient, potential_energy):
            with np.errstate(over="ignore"), pytest.raises(
                    NumericalPreconditionError, match="reduce the initial state or dt"):
                f(topo, np.array([1e308, -1e308]))

    def test_gradient_and_energy_match_former_loop(self, rng):
        # the former loops over a per-node flux lookup, kept as the reference:
        # the same accumulation order, so the values agree bit for bit
        def former(topo, phi):
            n = topo.node_count

            def node_flux(k):
                return phi[k - 1] if k <= n else 0.0

            grad, u = np.zeros(n), 0.0
            for i, j, l in topo.inductors:
                force = (node_flux(i) - node_flux(j)) / l
                u += 0.5 * (node_flux(i) - node_flux(j)) ** 2 / l
                if i <= n:
                    grad[i - 1] += force
                if j <= n:
                    grad[j - 1] -= force
            for i, j, ej, phi0 in topo.junctions:
                force = (ej / phi0) * math.sin((node_flux(i) - node_flux(j)) / phi0)
                u -= ej * math.cos((node_flux(i) - node_flux(j)) / phi0)
                if i <= n:
                    grad[i - 1] += force
                if j <= n:
                    grad[j - 1] -= force
            return grad, u

        for _ in range(50):
            topo = random_topology(rng, n_max=6)
            # reversed branches, so that ground is also the first node
            junctions = tuple((j, i, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 2.0)))
                              for (i, j, _) in topo.inductors[:3])
            topo = CircuitTopology(node_count=topo.node_count, capacitors=topo.capacitors,
                                   inductors=topo.inductors[1:], junctions=junctions,
                                   coupling_capacitance=topo.coupling_capacitance)
            phi = rng.normal(scale=3.0, size=topo.node_count)
            grad, u = former(topo, phi)
            assert np.array_equal(potential_gradient(topo, phi), grad)
            assert potential_energy(topo, phi) == u

    def test_subtracted_forces_keep_the_array_bits(self, rng):
        """``subtract_junction_forces`` writes the right-hand sides' rows node by
        node with the bits of a slice minus ``junction_forces``, also where
        junctions share a node and where a flux or a row is a signed zero."""
        for trial in range(50):
            topo = random_topology(rng, n_max=6)
            junctions = tuple((j, i, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 2.0)))
                              for (i, j, _) in topo.inductors[:3])
            topo = CircuitTopology(node_count=topo.node_count, capacitors=topo.capacitors,
                                   inductors=topo.inductors[1:], junctions=junctions,
                                   coupling_capacitance=topo.coupling_capacitance)
            n = topo.node_count
            phi = rng.normal(scale=3.0, size=n) if trial % 5 else np.zeros(n)
            out = rng.normal(size=3 * n + 1)
            out[rng.random(len(out)) < 0.3] = -0.0
            want = out.copy()
            force = junction_forces(topo, phi)
            want[n:2 * n] -= force
            want[2 * n:3 * n] -= force
            subtract_junction_forces(topo, phi, out, (n, 2 * n))
            assert np.array_equal(out.view(np.uint64), want.view(np.uint64))

    def test_stacked_energy_equals_row_calls(self, rng):
        """A stack of flux rows gives, row by row, the bits of one call per
        row, junction circuits included; an overflowing junction flux
        difference in any row is refused with that row's flux size."""
        for _ in range(50):
            topo = random_topology(rng, n_max=6)
            junctions = tuple((i, j, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 2.0)))
                              for (i, j, _) in topo.inductors[:2])
            topo = CircuitTopology(node_count=topo.node_count, capacitors=topo.capacitors,
                                   inductors=topo.inductors, junctions=junctions,
                                   coupling_capacitance=topo.coupling_capacitance)
            size = 10.0 ** rng.uniform(-8.0, 8.0, (40, topo.node_count))
            rows = size * rng.choice([-1.0, 1.0], (40, topo.node_count))
            stacked = potential_energy(topo, rows)
            assert stacked.shape == (40,)
            assert np.array_equal(stacked, [potential_energy(topo, row) for row in rows])
        topo, _ = lc_topology()
        assert potential_energy(topo, np.array([[1.0], [1e200]]))[1] == math.inf
        topo = CircuitTopology(node_count=2, capacitors=((1, 3, 1.0), (2, 3, 1.0)),
                               inductors=((2, 3, 1.0),), junctions=((1, 2, 0.5, 1.0),),
                               coupling_capacitance=1.0)
        with np.errstate(over="ignore"), pytest.raises(
                NumericalPreconditionError, match="overflows at flux size 1e\\+308"):
            potential_energy(topo, np.array([[1.0, 2.0], [1e308, -1e308], [1.5e308, -1.5e308]]))

    def test_energy_matches_former_numpy_scalar_loop(self, rng):
        """The energy runs elementwise on numpy arrays; the former loop on
        numpy scalars, kept as the reference, gives the same values bit for bit,
        across flux sizes 1e-8 to 1e8 and where a square overflows to inf."""
        def former(topo, phi):
            flux = [*np.asarray(phi, dtype=float), 0.0]
            u = 0.0
            for i, j, l in topo.inductors:
                u += 0.5 * (flux[i - 1] - flux[j - 1]) ** 2 / l
            for i, j, ej, phi0 in topo.junctions:
                u -= ej * math.cos((flux[i - 1] - flux[j - 1]) / phi0)
            return u

        for _ in range(100):
            topo = random_topology(rng, n_max=6)
            junctions = tuple((i, j, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 2.0)))
                              for (i, j, _) in topo.inductors[:2])
            topo = CircuitTopology(node_count=topo.node_count, capacitors=topo.capacitors,
                                   inductors=topo.inductors, junctions=junctions,
                                   coupling_capacitance=topo.coupling_capacitance)
            for _ in range(40):
                size = 10.0 ** rng.uniform(-8.0, 8.0, topo.node_count)
                phi = size * rng.choice([-1.0, 1.0], topo.node_count)
                assert potential_energy(topo, phi) == former(topo, phi)
        topo, _ = lc_topology()
        with np.errstate(over="ignore"):
            want = former(topo, np.array([1e200]))
        assert want == math.inf
        assert potential_energy(topo, np.array([1e200])) == want


SINGULAR_MESSAGE = "grounded capacitance matrix is singular: inactive node / floating island"


class TestNumpyNumericsAgainstScipy:
    """The netlist numerics run on numpy alone; scipy's routines, which they
    replaced, are the reference here."""

    def test_flux_quantum_matches_scipy_constants(self):
        from scipy import constants
        assert PHI0_JOSEPHSON == constants.hbar / (2 * constants.e)

    def test_cb_inverse_matches_cholesky_solve(self):
        from scipy.linalg import cho_factor, cho_solve
        rng = np.random.default_rng(2024)
        sizes = set()
        for _ in range(200):
            topo = random_topology(rng, n_max=6)
            model = derive_reduced_model(topo, 1.0)
            ref = cho_solve(cho_factor(model.cb), np.eye(model.n_nodes))
            ref = 0.5 * (ref + ref.T)  # the former route, symmetrized
            assert np.abs(model.cb_inv - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(model.cb_inv, model.cb_inv.T)
            sizes.add(model.n_nodes)
        assert sizes == {1, 2, 3, 4, 5, 6}

    @pytest.mark.parametrize("caps, n", [
        pytest.param(((1, 2, 1.0),), 2, id="floating-pair"),
        pytest.param(((1, 4, 1.0), (2, 3, 1.0)), 3, id="floating-pair-beside-grounded-node"),
        pytest.param(((1, 2, 1.0), (2, 3, 2.0), (3, 1, 0.5)), 3, id="floating-triangle"),
        pytest.param(((1, 3, 1.0),), 2, id="node-without-capacitor"),
    ])
    def test_singular_topologies_refused_like_scipy(self, caps, n):
        from scipy.linalg import cho_factor
        topo = CircuitTopology(node_count=n, capacitors=caps,
                               inductors=tuple((k, n + 1, 1.0) for k in range(1, n + 1)),
                               coupling_capacitance=1.0)
        full = build_capacitance_matrix(topo)
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(full[:n, :n])
        with pytest.raises(ValidationError) as info:
            reduce_ground(full, topo.ground)
        assert str(info.value) == SINGULAR_MESSAGE

    @pytest.mark.parametrize("full", [
        pytest.param([[0.0, 0.0], [0.0, 0.0]], id="zero"),
        pytest.param([[-1.0, 1.0], [1.0, -1.0]], id="negative"),
        pytest.param([[1.0, -2.0, 1.0], [-2.0, 1.0, 1.0], [1.0, 1.0, -2.0]], id="indefinite"),
    ])
    def test_singular_matrices_refused_like_scipy(self, full):
        from scipy.linalg import cho_factor
        full = np.array(full)
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(full[:-1, :-1])
        with pytest.raises(ValidationError) as info:
            reduce_ground(full, len(full))
        assert str(info.value) == SINGULAR_MESSAGE


LC_NETLIST = """\
# parallel LC coupled to a line
C 1 2 1.0
L 1 2 1.0
COUPLE 0.5
GROUND auto
"""


class TestParser:
    def test_lc_netlist(self):
        topo = parse_netlist(LC_NETLIST)
        assert topo.node_count == 1
        assert topo.capacitors == ((1, 2, 1.0),)
        assert topo.inductors == ((1, 2, 1.0),)
        assert topo.coupling_capacitance == 0.5

    def test_reduced_model_from_netlist(self):
        topo = parse_netlist(LC_NETLIST)
        model = derive_reduced_model(topo, 2.0)
        assert model.c_p == pytest.approx(0.5 * 1.0 / 1.5, rel=1e-15)
        report = invariant_report(model)
        assert max(report.values()) <= 1e-12

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(NetlistParseError, match="line 2"):
            parse_netlist("C 1 2 1.0\nL 1 two 1.0\nCOUPLE 1.0\n")

    @pytest.mark.parametrize("line, syntax", [
        ("C 1 2", "C line needs 'i j value'"),
        ("C 1 2 1.0 1.0", "C line needs 'i j value'"),
        ("L 1 2", "L line needs 'i j value'"),
        ("L 1 2 1.0 1.0", "L line needs 'i j value'"),
        ("J 1 2", "J line needs 'i j E_J [phi0]'"),
        ("J 1 2 1.0 1.0 1.0", "J line needs 'i j E_J [phi0]'")],
        ids=["C-short", "C-long", "L-short", "L-long", "J-short", "J-long"])
    def test_wrong_token_count_names_line(self, line, syntax):
        with pytest.raises(NetlistParseError, match=re.escape(f"line 2: {syntax}")):
            parse_netlist(f"C 1 2 1.0\n{line}\nL 1 2 1.0\nCOUPLE 1.0\n")

    @pytest.mark.parametrize("text, line_no", [
        ("C 1 2 inf\nL 1 2 1.0\nCOUPLE 1.0\n", 1),
        ("C 1 2 1.0\nL 1 2 -inf\nCOUPLE 1.0\n", 2),
        ("C 1 2 1.0\nL 1 2 1.0\nCOUPLE nan\n", 3),
    ])
    def test_nonfinite_value_names_line(self, text, line_no):
        with pytest.raises(NetlistParseError, match=f"line {line_no}: .*finite"):
            parse_netlist(text)

    def test_unknown_element(self):
        with pytest.raises(NetlistParseError, match="unknown element"):
            parse_netlist("R 1 2 50\nCOUPLE 1.0\n")

    def test_missing_couple(self):
        with pytest.raises(NetlistParseError, match="COUPLE"):
            parse_netlist("C 1 2 1.0\nL 1 2 1.0\n")

    def test_junction_default_flux_scale(self):
        topo = parse_netlist("C 1 2 1.0\nJ 1 2 3.0\nCOUPLE 1.0\n")
        assert topo.junctions[0][3] == PHI0_JOSEPHSON

    def test_junction_explicit_flux_scale(self):
        topo = parse_netlist("C 1 2 1.0\nJ 1 2 3.0 0.25\nCOUPLE 1.0\n")
        assert topo.junctions[0][3] == 0.25

    def test_explicit_ground_must_be_max(self):
        with pytest.raises(NetlistParseError, match="highest node"):
            parse_netlist("C 1 2 1.0\nL 1 2 1.0\nCOUPLE 1.0\nGROUND 1\n")

    def test_comments_and_blanks_ignored(self):
        text = "\n# comment only\nC 1 2 1.0  # inline\n\nL 1 2 1.0\nCOUPLE 1.0\n"
        assert parse_netlist(text).node_count == 1


class TestValidateActive:
    """The stamped-diagonal check against the per-element loop it replaced."""

    @staticmethod
    def loop_reference(topo):
        """The former check: first failing node, capacitor before inductor."""
        n = topo.node_count
        has_cap = [False] * (n + 1)
        has_ind = [False] * (n + 1)
        for i, j, _ in topo.capacitors:
            for node in (i, j):
                if node <= n:
                    has_cap[node] = True
        for branch in list(topo.inductors) + [jn[:2] for jn in topo.junctions]:
            for node in branch[:2]:
                if node <= n:
                    has_ind[node] = True
        for node in range(1, n + 1):
            if not has_cap[node]:
                return f"inactive node {node}: no incident capacitor"
            if not has_ind[node]:
                return f"inactive node {node}: no incident inductive element"
        return None

    def test_matches_loop_on_random_topologies(self):
        rng = np.random.default_rng(3000)
        messages = set()
        for _ in range(3000):
            n = int(rng.integers(1, 5))

            def branches(max_count, n_values):
                """Up to max_count (i, j, value...) branches on distinct nodes."""
                return tuple((*(rng.choice(n + 1, 2, replace=False) + 1).tolist(),
                              *rng.uniform(0.1, 2.0, n_values).tolist())
                             for _ in range(int(rng.integers(0, max_count + 1))))

            topo = CircuitTopology(node_count=n, capacitors=branches(4, 1),
                                   inductors=branches(3, 1), junctions=branches(2, 2),
                                   coupling_capacitance=1.0)
            expected = self.loop_reference(topo)
            try:
                topo.validate_active()
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == expected, topo
            messages.add(expected and expected.split(": ")[1])
        assert messages == {None, "no incident capacitor", "no incident inductive element"}
