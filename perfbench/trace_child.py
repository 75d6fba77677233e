"""Run one ``liecenter verify`` in this process with spans around the public
functions of the liecenter modules, then write the per-metric totals.

    python3 perfbench/trace_child.py SPANS.json verify --algebra f4-nil --char 3 ...

The arguments after ``SPANS.json`` are passed unchanged to
``liecenter.cli.main``, and the process exits with its return code.  The
program itself is not modified: every name under which a target function is
bound in a ``liecenter.*`` module is rebound to a timing wrapper before the
command starts.  A target that no longer exists aborts the run with
``EXIT_MISSING_TARGET`` instead of reading as 0 s.

Spans nest.  A span's self time is its duration minus the durations of the
spans it directly contains.  Suite spans are the exception: they report
time including their children, and a suite entry function opens a span only
when no other span is open, so the Jacobi check that a table builder runs as
its own validation counts as table construction, not as the jacobi suite.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

EXIT_MISSING_TARGET = 97

# metric prefix -> targets, each "module.attribute" below ``liecenter``
SUITES = {
    "cli.suite.jacobi": ("liealg.jacobi_check",),
    "cli.suite.invariance": ("invariants.invariance_suite",),
    "cli.suite.chains": ("invariants.verify_relation_chain",),
    "cli.suite.triangle": ("invariants.verify_triangle_property",),
    "cli.suite.weights": ("poisson.semicenter_witness_suite",),
    "cli.suite.frobenius": ("charp.frobenius_membership_suite",),
    "cli.suite.jacobians": ("charp.jacobian_identity_suite",),
    "cli.suite.pbw": ("pbw.z_lift_audit", "pbw.p_center_suite"),
    "cli.suite.oracle": ("invariants.oracle_suite",),
    "cli.suite.audit": ("charp.theorem_generator_audit",),
}

KERNELS = {
    "pbw.symmetrize": ("pbw.symmetrize",),
    "pbw.commutator_with_basis": ("pbw.commutator_with_basis",),
    "pbw.reduce_u": ("pbw.reduce_u",),
    "invariants.oracle": ("invariants.brute_force_invariant_space",),
    "invariants.compare_with_generated": ("invariants.compare_with_generated",),
    "linalg.saturates_mod": ("linalg.saturates_mod",),
    "linalg.nullspace_int": ("linalg.nullspace_int",),
    "linalg.nullspace_mod": ("linalg.nullspace_mod",),
    "poisson.ad_apply": ("poisson.ad_apply",),
    "poisson.is_invariant": ("poisson.is_invariant",),
    "liealg.table_build": (
        "liealg.g2_borel",
        "liealg.f4_borel",
        "liealg.cn_borel",
        "liealg.nilradical_table",
    ),
    "liealg.ad_power_identity": ("liealg.ad_power_identity",),
    "invariants.build_family": ("invariants.build_family",),
    "exactalg.parse_polynomial": ("exactalg.parse_polynomial",),
    "charp.central_lift": ("charp.central_lift",),
    "charp.sp_generators": ("charp.sp_generators",),
    "exactalg.frobenius_expand": ("exactalg.frobenius_expand",),
    "exactalg.poly_det": ("exactalg.poly_det",),
    "report.to_json": ("report.VerificationReport.to_json",),
}


class Tracer:
    """Span stack and per-metric totals, kept in memory until the run ends."""

    def __init__(self):
        self.stack: list[list[float]] = []  # one [child seconds] cell per open span
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, fn, metric: str, suite: bool, before=None, after=None):
        stack, seconds, counts = self.stack, self.seconds, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if suite and stack:
                return fn(*args, **kwargs)
            if before is not None:
                t0 = perf_counter()
                before(*args, **kwargs)
                if stack:  # keep the tracer's own counting out of the caller's self time
                    stack[-1][0] += perf_counter() - t0
            cell = [0.0]
            stack.append(cell)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                seconds[metric] += elapsed if suite else elapsed - cell[0]
                counts[metric] += 1
            if after is not None:
                after(result)
            return result

        return traced


def _resolve(target: str):
    """(owner, attribute name, function) for 'module.attr' or 'module.Class.attr'."""
    modname, *path = target.split(".")
    owner = importlib.import_module(f"liecenter.{modname}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


def install(tracer: Tracer) -> None:
    """Rebind every target, in every liecenter module that binds it."""
    importlib.import_module("liecenter.cli")  # imports every module the command uses
    counts = tracer.counts

    def oracle_shape(rows, ncols, p):
        counts["invariants.oracle.dense_entries"] += len(rows) * ncols
        counts["invariants.oracle.nonzeros"] += sum(ncols - row.count(0) for row in rows)

    def settled(result):
        counts["linalg.saturates_mod.settled"] += bool(result)

    def out_terms(result):
        counts["pbw.symmetrize.out_terms"] += len(result.terms)

    hooks = {
        "linalg.saturates_mod": {"before": oracle_shape, "after": settled},
        "pbw.symmetrize": {"after": out_terms},
    }
    modules = [
        m for name, m in list(sys.modules.items())
        if name == "liecenter" or name.startswith("liecenter.")
    ]
    for group, suite in ((SUITES, True), (KERNELS, False)):
        for metric, targets in group.items():
            for target in targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    print(f"trace target {target} not found: {exc}", file=sys.stderr)
                    sys.exit(EXIT_MISSING_TARGET)
                traced = tracer.wrap(original, metric, suite, **hooks.get(metric, {}))
                if isinstance(owner, type):
                    setattr(owner, attr, traced)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, traced)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from liecenter.cli import main as cli_main

    code = cli_main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": tracer.seconds, "counts": tracer.counts}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
