"""Every function the benchmark's tracer wraps must still exist, so that a
rename or deletion in the package fails here and not only under a traced
benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def load_trace_child():
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_child = load_trace_child()
TARGETS = sorted(
    {
        target
        for group in (trace_child.SUITES, trace_child.KERNELS)
        for targets in group.values()
        for target in targets
    }
)


def test_targets_listed():
    assert "pbw.reduce_u" in TARGETS and len(TARGETS) >= 20


@pytest.mark.parametrize("target", TARGETS)
def test_trace_target_resolves(target):
    owner, attr, function = trace_child._resolve(target)
    assert callable(function)
    assert getattr(owner, attr) is function
