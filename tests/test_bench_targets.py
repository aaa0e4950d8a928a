"""The traced benchmark wraps lineport functions by name; a rename must
fail here rather than as a broken traced run."""
import collections
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import lineport

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, qualname", [
    (module_name, qualname) for module_name, qualname, _ in load_targets()])
def test_span_target_resolves(module_name, qualname):
    module = importlib.import_module(f"lineport.{module_name}")
    if "." in qualname:
        # methods are replaced on the class that defines them
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, qualname))


JOSEPHSON_NETLIST = """\
C 1 3 1.0
J 1 2 0.9 1.0
C 2 3 1.0
L 2 3 1.0
COUPLE 0.42857142857142855
"""


def test_layer_call_counts(monkeypatch):
    """The traced benchmark's per-layer figures count spans: the RK4 time is
    divided by the ``ReducedRhs.__call__`` spans under ``integrate``. So the
    Josephson RK4 makes exactly four right-hand-side calls a step and samples
    its source once, and a ladder run evaluates the circuit energy at most
    twice, whatever the sample count."""
    import lineport.reduced_dynamics as rd
    from lineport.signals import Signal

    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rd.ReducedRhs, "__call__", counted("rhs", rd.ReducedRhs.__call__))
    monkeypatch.setattr(Signal, "__call__", counted("source", Signal.__call__))
    monkeypatch.setattr(rd, "potential_energy", counted("energy", rd.potential_energy))
    topo = lineport.parse_netlist(JOSEPHSON_NETLIST)
    line = lineport.line_params(2.0, 0.5)  # Z_c = 2, v_p = 1
    model = lineport.derive_reduced_model(topo, line.z_c)
    initial = lineport.ReducedState(phi=[1.0, 0.5], q=[0.0, 0.0], q0=0.0)
    for samples in (401, 801):
        t = np.linspace(0.0, 2 * np.pi, samples)
        e0 = Signal.from_samples(t, 0.1 * np.sin(t))
        calls.clear()
        traj = rd.integrate(rd.assemble_rhs(model, topo, e0=e0), initial, t)
        assert traj.meta["integrator"] == "rk4"
        assert calls == {"rhs": 4 * (samples - 1), "source": 1}
        calls.clear()
        rd.ladder_oracle(line, 150, 1.12 * line.v_p * t[-1] / 2, topo, initial, t)
        assert calls["energy"] <= 2
