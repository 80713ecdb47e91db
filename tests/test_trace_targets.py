"""Every callable that the benchmark's tracer (``perfbench/spans.py``)
wraps still exists in xpv: a rename or deletion fails here instead of
breaking a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = [(module, path) for module, path, _ in _targets()]


@pytest.mark.parametrize("module, path", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_trace_target_resolves(module, path):
    obj = importlib.import_module(f"xpv.{module}")
    for name in path.split("."):
        obj = getattr(obj, name)
    assert callable(obj)
