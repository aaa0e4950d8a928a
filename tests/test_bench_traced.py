"""One traced pass of each benchmark workload at seed 0. The span notes read
call arguments and attributes (``rhs.is_linear``, ``rhs.e0``, ``grad_u``,
``n_samples``, ``n_sections``), so a changed signature must fail here rather
than as a broken traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

import lineport
import lineport.cli  # noqa: F401  (the tracer wraps functions in every loaded module)

BENCH = Path(__file__).resolve().parents[1] / "bench"
NOTED = ("inversion.bromwich_ifft", "reduced_dynamics.ladder_oracle",
         "reduced_dynamics.integrate", "reduced_dynamics.langevin_form")


def load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_of_every_workload(tmp_path, monkeypatch):
    workloads = load(monkeypatch, "workloads").WORKLOADS
    tracer = load(monkeypatch, "spans").Tracer()
    tracer.install()
    try:
        for name, workload in workloads.items():
            (tmp_path / name).mkdir()
            for job in workload(lineport, str(tmp_path / name), 0).jobs:
                job.run()
                assert job.check(), job.name
    finally:
        tracer.uninstall()
    for name in NOTED:
        spans = [i for i, n in enumerate(tracer.names) if n == name]
        assert spans, name
        assert all(i in tracer.notes for i in spans), name
