"""One pass of each benchmark workload at seed 0: every job runs and its own
output check passes, so a change that breaks a workload fails here rather
than as failed ops in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

import lineport
import lineport.cli  # noqa: F401  (the CLI jobs call lineport.cli.main)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["laplace", "ladder", "driven"])
def test_workload_pass_checks(tmp_path, monkeypatch, name):
    workload = load_workloads(monkeypatch)[name](lineport, str(tmp_path), 0)
    assert workload.jobs
    for job in workload.jobs:
        job.run()
        assert job.check(), job.name
