"""Every function the benchmark's tracer wraps must still exist, and its
hooks must still read the arguments they are given, so that a rename, a
deletion or a changed row format in the package fails here and not only
under a traced benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


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


def traced_counts(tmp_path, *args):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(spans), "verify", *args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text(encoding="utf-8"))["counts"]


def oracle_counts(counts):
    return tuple(
        counts[name]
        for name in (
            "invariants.oracle.dense_entries",
            "invariants.oracle.nonzeros",
            "linalg.saturates_mod",
            "linalg.saturates_mod.settled",
        )
    )


def kernel_calls(counts):
    # a kernel never called has no entry; nullspace_int also derives the
    # multigrading once per table
    return tuple(counts.get(name, 0) for name in ("linalg.nullspace_int", "linalg.nullspace_mod"))


def test_oracle_shape_hook_reads_the_solver_rows(tmp_path):
    # the hook counts dense entries and nonzeros from the rows the oracle
    # hands to linalg.saturates_mod; rows of another shape fail here, and
    # the pinned counts keep a row rewrite from changing what they measure
    counts = traced_counts(tmp_path, "--algebra", "g2-nil", "--suites", "oracle")
    dense = counts["invariants.oracle.dense_entries"]
    assert dense > 0
    assert 0 < counts["invariants.oracle.nonzeros"] <= dense
    assert oracle_counts(counts) == (8307, 2310, 315, 306)
    assert kernel_calls(counts) == (10, 0)


def test_oracle_hook_counts_on_a_borel_table(tmp_path):
    counts = traced_counts(tmp_path, "--algebra", "cn-borel", "--n", "3", "--suites", "oracle")
    assert oracle_counts(counts) == (5867, 1365, 136, 133)
    assert kernel_calls(counts) == (4, 0)
