import tracemalloc

import numpy as np
import pytest

from lineport import CircuitTopology, LcExampleParams, derive_reduced_model


def lc_topology(g=0.3, alpha=2.0, omega_r=1.0, c_r=1.0):
    """Parallel LC circuit coupled to the line, in normalized units."""
    params = LcExampleParams.from_dimensionless(g, alpha, omega_r, c_r=c_r)
    topo = CircuitTopology(
        node_count=1,
        capacitors=((1, 2, params.c_r),),
        inductors=((1, 2, params.l_r),),
        coupling_capacitance=params.c_c,
    )
    return topo, params


def lc_model(g=0.3, alpha=2.0, omega_r=1.0, c_r=1.0):
    topo, params = lc_topology(g, alpha, omega_r, c_r)
    return derive_reduced_model(topo, params.z_c), topo, params


def traced_peak(fn):
    """The peak of the memory that ``tracemalloc`` traces while ``fn()`` runs,
    in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_topology(rng, n_max=20):
    """Random valid topology: a capacitive spanning tree rooted at ground
    keeps the grounded capacitance matrix positive definite, and every node
    gets an inductor, so all nodes are active."""
    n = int(rng.integers(1, n_max + 1))
    ground = n + 1
    capacitors = []
    for node in range(1, n + 1):
        # tree edge toward an already-connected node or ground
        target = ground if node == 1 else int(rng.integers(node + 1, ground + 1))
        if target == node:
            target = ground
        capacitors.append((node, target, float(rng.uniform(0.1, 10.0))))
    extra = int(rng.integers(0, n + 1))
    for _ in range(extra):
        i = int(rng.integers(1, ground + 1))
        j = int(rng.integers(1, ground + 1))
        if i != j:
            capacitors.append((i, j, float(rng.uniform(0.1, 10.0))))
    inductors = [(node, ground, float(rng.uniform(0.1, 10.0)))
                 for node in range(1, n + 1)]
    for _ in range(int(rng.integers(0, n))):
        i = int(rng.integers(1, n + 1))
        j = int(rng.integers(1, ground + 1))
        if i != j:
            inductors.append((i, j, float(rng.uniform(0.1, 10.0))))
    return CircuitTopology(
        node_count=n,
        capacitors=tuple(capacitors),
        inductors=tuple(inductors),
        coupling_capacitance=float(rng.uniform(0.1, 10.0)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
