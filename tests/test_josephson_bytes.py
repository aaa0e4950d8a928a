"""Pin the bits of the Josephson path: the RK4 stepper of both reduced forms,
the ladder's potential gradient and its leapfrog substep loop.

Each case runs in-process on one of two junction netlists, and the sha256 of
its result arrays is compared with the digests below, recorded with the
package as it stood before the junction forces were bound once per run and
the RK4 stages moved into held buffers. The sourced ``integrate`` case was
recorded again, with the same package, when its source came to be built by
``math.exp``, whose bits hold on every SIMD path where ``np.exp``'s do not.
Every case runs on this host's path and again on its AVX2 and baseline
paths. The ladder cases run on a 1-D state and on a (dim, B) stack. A flux
difference that overflows is refused, on every path, with one message and
the exit code of a numerical precondition.
"""
import hashlib
import math

import numpy as np
import pytest

from lineport import (LadderSystem, NumericalPreconditionError, ReducedState, Signal,
                      assemble_rhs, derive_reduced_model, integrate, langevin_form,
                      line_params, parse_netlist)

from test_result_bytes import off_host_targets, run_off_host

NETLISTS = {
    # the tests' two-node Josephson circuit: one junction between nodes 1 and 2
    "josephson": "C 1 3 1.0\nJ 1 2 0.5 1.0\nC 2 3 1.0\nL 2 3 1.0\nCOUPLE 0.4\n",
    # three junctions, one of them to ground, beside a linear inductor
    "three-junctions": ("C 1 4 1.0\nC 2 4 0.7\nC 3 4 1.3\nC 1 2 0.2\nL 1 2 0.9\n"
                        "J 2 4 0.6 1.0\nJ 2 3 0.8 0.5\nJ 1 3 0.7 0.8\nCOUPLE 0.4\n"),
}
#: ladder stack width
STACK = 16


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def reduced_case(name, form):
    """(model, topology, source, initial state, grid) of a sourced RK4 run."""
    topo = parse_netlist(NETLISTS[name])
    n = topo.node_count
    t = np.linspace(0.0, 5.0, 401)
    # math.exp: np.exp rounds differently on numpy's AVX-512 and AVX2 paths
    pulse = [math.exp(x) for x in (-((t - 2.0) / 0.4) ** 2).tolist()]
    e0 = Signal.from_samples(t, 0.5 * np.array(pulse))
    rng = np.random.default_rng([len(name), len(form)])
    initial = ReducedState(phi=rng.normal(size=n), q=0.2 * rng.normal(size=n), q0=-0.2)
    return derive_reduced_model(topo, 1.5), topo, e0, initial, t


def run_reduced(name, form, initial=None):
    model, topo, e0, start, t = reduced_case(name, form)
    initial = start if initial is None else initial
    if form == "integrate":
        traj = integrate(assemble_rhs(model, topo, e0=e0), initial, t, method="rk4")
    else:
        traj = langevin_form(model, topo, e0, initial, t, method="rk4")
    return traj.phi, traj.q, traj.q0, traj.v0


def ladder_state(name, stack):
    """A junction ladder and a (q, u) of shape (dim,) or (dim, STACK)."""
    topo = parse_netlist(NETLISTS[name])
    system = LadderSystem(topo, line_params(2.0, 0.5), 120, 10.0)
    shape = (system.dim, STACK) if stack else (system.dim,)
    rng = np.random.default_rng([len(name), stack])
    q, u = rng.normal(size=(2, *shape))
    u *= 1e-3
    return system, q, u


def run_ladder(name, form, stack):
    system, q, u = ladder_state(name, stack)
    if form == "grad_potential":
        return (system.grad_potential(q),)
    acc = np.empty_like(q)
    d = system.drift_kick(q, u, 0.5 * system.cfl_dt(), acc)(50)
    return q, u, acc, d


CASES = {
    **{(name, form): (lambda name=name, form=form: run_reduced(name, form))
       for name in NETLISTS for form in ("integrate", "langevin_form")},
    **{(name, form, shape): (lambda name=name, form=form, stack=shape == "stack":
                             run_ladder(name, form, stack))
       for name in NETLISTS for form in ("grad_potential", "drift_kick")
       for shape in ("1d", "stack")},
}

DIGESTS = {
    ('josephson', 'drift_kick', '1d'):
        '064e082fc61640280bc60413090fad5923ae2cda9ac97bb2f88dff8063322ee6',
    ('josephson', 'drift_kick', 'stack'):
        'fca6172535d794415c5d5bb5bcf872a18ed3bb94062b1691f50edde60edf2690',
    ('josephson', 'grad_potential', '1d'):
        'bc9cccb119bea7cd41496713bd7607f85e85428bf255d25cae662d7450d1e311',
    ('josephson', 'grad_potential', 'stack'):
        '38102dca21657d8f71b418ec56013b567580416eca4658c95af29f9fc24e062c',
    ('josephson', 'integrate'):
        'bc20ada359a77939abbf5c10e04b9f24353b48b9662a9a67c854fd60287f2824',
    ('josephson', 'langevin_form'):
        '2315ffc56489fde891f5ac076bce48ecf8ad6510630b1cd5b9d6597ad392bcbd',
    ('three-junctions', 'drift_kick', '1d'):
        'ce47977aa37d4c50ef2bd3dde39f22e1fded30830e9dc7b2b6d287b34fd98d09',
    ('three-junctions', 'drift_kick', 'stack'):
        '11698d0af7fe10132f1a216640423023800f28e0006fded3f5a0ea69954b9bc3',
    ('three-junctions', 'grad_potential', '1d'):
        'a3af4bca73d6dd8404446a969c001462ff6ac1a2f8638e21440ab87427c74036',
    ('three-junctions', 'grad_potential', 'stack'):
        'b1c0d074476a818f31fb42dc2d44609995bf403071de7d37bfd762d16ab58ea7',
    ('three-junctions', 'integrate'):
        '8f162d40b4a82e957d549cbeecd9805f781b5f70778dd6a2a9d4f769896fd34b',
    ('three-junctions', 'langevin_form'):
        '8cc961d0ee3ef5e8d178ab9c403abc9a65db025eb2051664e355ffe8253528ac',
}


@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_josephson_path_keeps_its_bits(case):
    assert digest(*CASES[case]()) == DIGESTS[case]


@pytest.mark.parametrize("path", ["avx2", "baseline"])
def test_josephson_path_keeps_its_bits_off_the_host_path(path):
    """Every case again, in a fresh interpreter on another SIMD path of this
    host (``off_host_targets``), against the same digests."""
    code = ("import test_josephson_bytes as t\n"
            "value = {'-'.join(case): t.digest(*run()) for case, run in t.CASES.items()}\n")
    _, got = run_off_host(off_host_targets(path), code)
    assert got == {"-".join(case): want for case, want in DIGESTS.items()}


OVERFLOW = ("a junction flux difference overflows at flux size 1e+308; "
            "reduce the initial state or dt")


def overflowing(flux, n):
    """``flux`` with its first two nodes set to +-1e308: a junction between
    them, or from either to ground beside one between them, overflows."""
    flux[:2] = [1e308, -1e308] if n > 1 else [1e308]
    return flux


@pytest.mark.parametrize("name", sorted(NETLISTS))
@pytest.mark.parametrize("form", ["integrate", "langevin_form", "grad_potential-1d",
                                  "grad_potential-stack", "drift_kick-1d", "drift_kick-stack"])
def test_flux_overflow_refused_on_every_path(name, form):
    if form in ("integrate", "langevin_form"):
        topo = parse_netlist(NETLISTS[name])
        n = topo.node_count
        initial = ReducedState(phi=overflowing(np.zeros(n), n), q=np.zeros(n), q0=0.0)
        call = lambda: run_reduced(name, form, initial)  # noqa: E731
    else:
        kind, shape = form.split("-")
        system, q, u = ladder_state(name, shape == "stack")
        n = system.n_circ
        column = q[:n] if shape == "1d" else q[:n, 1]
        column[:] = overflowing(np.zeros(n), n)
        if kind == "grad_potential":
            call = lambda: system.grad_potential(q)  # noqa: E731
        else:
            call = lambda: system.drift_kick(q, u, 0.5 * system.cfl_dt(),  # noqa: E731
                                             np.empty_like(q))(1)
    with np.errstate(over="ignore"), pytest.raises(NumericalPreconditionError) as info:
        call()
    assert str(info.value) == OVERFLOW
    assert info.value.exit_code == 4
