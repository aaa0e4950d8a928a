"""The traced benchmark wraps lineport functions by name; a rename must
fail here rather than as a broken traced run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

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
