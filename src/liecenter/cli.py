"""Command-line entry point: algebra selection, suite orchestration and
deterministic report emission.

Exit codes: 0 when every claim passes, 1 when any claim fails, 2 for
configuration errors (unknown algebra, inadmissible characteristic, a prime
or rank above its bound, a suite that does not apply, malformed files, an
output path that cannot be written, a standard output whose reader has
closed it), 3 for an internal error, reported as one ``internal error:``
line on stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict
from itertools import count
from typing import Callable, Optional

from . import charp, invariants, liealg, pbw, poisson
from . import report as rep
from .exactalg import field_of_characteristic, is_prime
from .invariants import InvariantFamily, OracleCapExceeded
from .liealg import StructureTable, TableDataError

SUITE_ORDER = (
    "jacobi",
    "invariance",
    "chains",
    "triangle",
    "weights",
    "frobenius",
    "jacobians",
    "pbw",
    "oracle",
    "audit",
)

# The suites that straighten p-th powers letter by letter and apply ad x p
# times run only up to this prime: their cost grows as p^2 to p^4, and at
# p = 101 the costliest catalog run, f4-borel --suites pbw, takes about 30 s.
POWER_SUITES = ("pbw", "audit")
MAX_POWER_PRIME = 101
# The largest cn rank: cn-borel --n 7 runs every suite in about 6-10 s and
# 94 MiB, while --n 8 spends about 64 s and 834 MiB before its oracle
# exceeds the solver cap.
MAX_N = 7


class ConfigError(Exception):
    pass


def _positive_int(text: str) -> int:
    """The type of --max-degree: any other value exits 2 before a suite runs."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecenter",
        description=(
            "Exact verification of Poisson centers, semicenters and "
            "enveloping-algebra centers for the catalog Borel subalgebras "
            "(types G2, F4, Cn) over Q and prime fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--algebra",
            required=True,
            help="g2-borel | g2-nil | f4-borel | f4-nil | cn-borel | cn-nil | path to a table file",
        )
        p.add_argument("--n", type=int, default=None, help=f"rank for cn-* algebras, 1 to {MAX_N}")
        p.add_argument("--char", type=int, default=0, help="0 or an odd prime")
        p.add_argument("--max-degree", type=_positive_int, default=None, dest="max_degree")
        p.add_argument("--corrections", default=None, help="JSON corrections overlay")

    pv = sub.add_parser("verify", help="run verification suites and emit a report")
    add_common(pv)
    pv.add_argument("--suites", default=None, help="comma-separated suite list")
    pv.add_argument("--format", choices=("summary", "json", "markdown"), default="summary")
    pv.add_argument("--out", default=None, help="write the report to this path")

    pi = sub.add_parser("invariants", help="print the invariant family")
    add_common(pi)
    pi.add_argument("--oracle", action="store_true", help="also print oracle dimensions per degree")

    pr = sub.add_parser("report", help="re-render a saved JSON report")
    pr.add_argument("--in", dest="inpath", required=True)
    pr.add_argument("--format", choices=("json", "markdown"), default="markdown")
    pr.add_argument("--out", default=None)
    return parser


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------


def _load_corrections(path: Optional[str]) -> tuple[list, Optional[str]]:
    if path is None:
        return [], None
    import hashlib  # maps OpenSSL's libcrypto, about 3.6 MiB that only an overlay needs

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw.decode("utf-8"))
        entries = data["entries"] if isinstance(data, dict) else data
        if not isinstance(entries, list):
            raise ValueError("field 'entries' must be a list")
        for n, e in enumerate(entries):
            if not (isinstance(e, dict) and all(isinstance(e.get(k), str) for k in ("lhs", "rhs", "value"))):
                raise ValueError(
                    f"field 'entries' item {n} must be an object with string 'lhs', 'rhs' and 'value'"
                )
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read corrections file {path}: {exc}") from exc
    return entries, hashlib.sha256(raw).hexdigest()


def resolve_algebra(args) -> tuple[StructureTable, Optional[str]]:
    selector = args.algebra
    if args.n is not None and selector not in ("cn-borel", "cn-nil"):
        raise ConfigError("--n applies to the cn-borel and cn-nil algebras only")
    corrections, sha = _load_corrections(args.corrections)
    try:
        if selector in ("g2-borel", "g2-nil", "f4-borel", "f4-nil"):
            t = (liealg.g2_borel if selector[:2] == "g2" else liealg.f4_borel)()
            t = liealg.apply_corrections(t, corrections) if corrections else t
            return (t if selector.endswith("borel") else liealg.nilradical_table(t)), sha
        if selector in ("cn-borel", "cn-nil"):
            if corrections:
                raise ConfigError("corrections overlays apply to the g2/f4 tables only")
            if args.n is None or not 1 <= args.n <= MAX_N:
                raise ConfigError(f"cn algebras need 1 <= --n <= {MAX_N}")
            t = liealg.cn_borel(args.n)
            return (t if selector.endswith("borel") else liealg.nilradical_table(t)), sha
        if os.path.exists(selector):
            if corrections:
                raise ConfigError("corrections overlays apply to the g2/f4 tables only")
            return liealg.load_table(selector), sha
    except TableDataError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown algebra selector {selector!r}")


def check_char(t: StructureTable, char: int) -> None:
    try:
        prime = is_prime(char)
    except ValueError as exc:
        raise ConfigError(f"--char must be 0 or an odd prime, and {exc}") from exc
    if char != 0 and (char == 2 or not prime):
        raise ConfigError(f"--char must be 0 or an odd prime, got {char}")
    reason = invariants.inadmissible_reason(t, char)
    if reason:
        raise ConfigError(reason)


def _family(t: StructureTable) -> InvariantFamily:
    try:
        return invariants.build_family(t)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Suite construction
# ---------------------------------------------------------------------------


def jacobi_suite(t: StructureTable) -> list[rep.Claim]:
    """The Jacobi identity over all basis triples, one failed claim per
    failing triple, and the ideal structure of the table."""
    report = liealg.jacobi_check(t)
    claims = [
        rep.check(
            f"{t.name}.jacobi.all-triples",
            f"the Jacobi identity holds for all {report.triples_checked} basis triples",
            report.ok,
        )
    ]
    for failure in report.failures:
        claims.append(
            rep.check(
                f"{t.name}.jacobi.{'-'.join(failure.triple)}",
                f"Jacobi residual at {failure.triple}",
                False,
                residual=failure.residual,
                witness=",".join(failure.triple),
            )
        )
    for problem in liealg.check_nilradical_ideal(t):
        claims.append(rep.check(f"{t.name}.jacobi.ideal", problem, False))
    return claims


def _suite_callables(t: StructureTable, args) -> dict[str, Callable[[], list]]:
    """Map each suite that applies to the table and characteristic to a
    zero-argument callable."""
    char = args.char
    field = field_of_characteristic(char)
    fam = _family(t) if invariants.catalog_entry(t) else None
    suites: dict[str, Callable[[], list]] = {"jacobi": lambda: jacobi_suite(t)}
    if fam is not None:
        suites["invariance"] = lambda: invariants.invariance_suite(t, fam, field)
        suites["chains"] = lambda: invariants.verify_relation_chain(t, fam, field)
        suites["triangle"] = lambda: invariants.verify_triangle_property(t, fam, field)
        if t.cartan:
            suites["weights"] = lambda: poisson.semicenter_witness_suite(t, fam, field)
        if char:
            suites["frobenius"] = lambda: charp.frobenius_membership_suite(t, fam, char)
        # at characteristic 0, the smallest odd prime the table admits
        jac_p = char or next(
            p for p in count(3, 2) if is_prime(p) and not invariants.inadmissible_reason(t, p)
        )
        suites["jacobians"] = lambda: charp.jacobian_identity_suite(t, fam, jac_p)

        def pbw_suite() -> list:
            claims = pbw.z_lift_audit(t, fam, field)
            if char:
                claims.extend(pbw.p_center_suite(t, char))
            return claims

        suites["pbw"] = pbw_suite

        def oracle_suite() -> list:
            gens = charp.invariant_generators(t, fam, field)
            degrees = range(1, invariants.oracle_degree(t, args.max_degree) + 1)
            return invariants.oracle_suite(t, gens, degrees, field)[0]

        suites["oracle"] = oracle_suite
        suites["audit"] = lambda: charp.theorem_generator_audit(
            t, fam, char, max_degree=args.max_degree
        )
    return suites


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    t, sha = resolve_algebra(args)
    check_char(t, args.char)
    available = requested = _suite_callables(t, args)
    if args.suites:
        requested = [s.strip() for s in args.suites.split(",") if s.strip()]
        if not requested:
            raise ConfigError("--suites is empty")
        unknown = [n for n in requested if n not in SUITE_ORDER]
        if unknown:
            raise ConfigError(f"unknown suites: {', '.join(unknown)}")
        inapplicable = [n for n in requested if n not in available]
        if inapplicable:
            raise ConfigError(
                f"suites not applicable to {t.name} at characteristic {args.char}: "
                + ", ".join(inapplicable)
            )
    # run order, each suite once: the report records what ran
    names = [n for n in SUITE_ORDER if n in requested]
    powers = [n for n in names if n in POWER_SUITES]
    if powers and args.char > MAX_POWER_PRIME:
        raise ConfigError(
            f"suites {', '.join(powers)} run at primes up to {MAX_POWER_PRIME} only, "
            f"got --char {args.char}"
        )
    if args.out:
        _check_writable(args.out)
    # the suites that solve oracle systems run first, the oracle then the
    # audit: past the solver cap, no other suite has run
    first = [n for n in ("oracle", "audit") if n in names]
    try:
        claims = {n: available[n]() for n in first + [n for n in names if n not in first]}
    except OracleCapExceeded as exc:
        raise ConfigError(str(exc)) from exc
    config = {
        "algebra": args.algebra,
        "n": args.n,
        "char": args.char,
        "suites": names,
        "max_degree": args.max_degree,
        "corrections": args.corrections,
    }
    report = rep.VerificationReport(
        config=config,
        suites=[rep.SuiteResult(n, claims[n]) for n in names],
        corrections_sha256=sha,
        corrections=[asdict(c) for c in t.corrections],
    )
    _emit(report, args.format, args.out)
    return 0 if report.ok else 1


def _emit(report: rep.VerificationReport, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = report.to_json()
    elif fmt == "markdown":
        text = report.to_markdown()
    else:
        lines = []
        for suite in report.suites:
            counts = suite.counts()
            status = "PASS" if suite.ok else "FAIL"
            lines.append(
                f"[{status}] {suite.name}: {len(suite.claims)} claims"
                f" (verified {counts[rep.VERIFIED]}, noted {counts[rep.DERIVED_WITH_NOTE]},"
                f" asserted {counts[rep.ASSERTED_NOT_VERIFIED]}, failed {counts[rep.FAILED]})"
            )
            for claim in suite.claims:
                if claim.status == rep.FAILED:
                    lines.append(f"    FAILED {claim.claim_id}: {claim.statement}")
                    if claim.residual:
                        lines.append(f"        residual: {claim.residual}")
                    if claim.witness:
                        lines.append(f"        witness: {claim.witness}")
        summary = report.summary()
        lines.append(
            f"total: {summary['suites']} suites, verified {summary[rep.VERIFIED]}, "
            f"noted {summary[rep.DERIVED_WITH_NOTE]}, asserted {summary[rep.ASSERTED_NOT_VERIFIED]}, "
            f"failed {summary[rep.FAILED]}"
        )
        text = "\n".join(lines) + "\n"
    if out:
        _write(out, text)
        if fmt == "summary":
            return
        # also echo the one-line outcome for scripted use
        print(f"failed claims: {report.summary()[rep.FAILED]}")
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Fail with the error ``_write`` would give, before any work is done,
    when the report path is a directory or its directory is missing or not
    writable."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    exc = OSError(code, os.strerror(code), path)
    raise ConfigError(f"cannot write report {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc}") from exc
    print(f"report written to {path}")


def cmd_invariants(args) -> int:
    t, _ = resolve_algebra(args)
    check_char(t, args.char)
    fam = _family(t)
    field = field_of_characteristic(args.char)
    print(f"algebra {t.name} (dim {t.dim}), characteristic {args.char}")
    for note in fam.notes:
        print(f"note: {note}")
    aux = [n for n in sorted(fam.elements(field)) if n not in fam.central]
    for name in [*fam.central, *aux]:
        poly = fam.element(name, field)
        print(f"{name} (degree {poly.total_degree()}) = {poly}")
    if args.oracle:
        gens = charp.invariant_generators(t, fam, field)
        equal = True
        try:
            # one degree at a time, so the degrees already solved are printed
            # even when a later one exceeds the solver cap
            for d in range(1, invariants.oracle_degree(t, args.max_degree) + 1):
                [res] = invariants.oracle_suite(t, gens, [d], field)[1]
                print(
                    f"degree {d}: invariant dimension {res['oracle_dim']}, "
                    f"generated dimension {res['generated_dim']}, "
                    f"{'equal' if res['equal'] else 'DIFFERENT'}"
                )
                equal = equal and res["equal"]
        except OracleCapExceeded as exc:
            raise ConfigError(str(exc)) from exc
        if not equal:
            return 1
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.inpath, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a report file holds one JSON object")
        report = rep.VerificationReport.from_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load report {args.inpath}: {exc}") from exc
    text = report.to_json() if args.format == "json" else report.to_markdown()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            code = cmd_verify(args)
        elif args.command == "invariants":
            code = cmd_invariants(args)
        else:
            code = cmd_report(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # like an unwritable --out; the descriptor then points at the null
        # device, so the interpreter's own flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to standard output: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means a failed claim, so a crash must not end with it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
