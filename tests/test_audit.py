"""The theorem audit as statement records: equal to the hand-written
reference (``conftest.reference_theorem_generator_audit``), the degree-one
U-center claim decided on the span of b, and a kill matrix showing that every
audit claim kind the pinned configurations emit fails under some mutation of
the table or the family, unless it is listed below with the reason it
cannot."""

import dataclasses
import json
import re
from functools import cache
from pathlib import Path

import pytest

import conftest
from liecenter import charp, cli, invariants, liealg, poisson
from liecenter.exactalg import Polynomial, field_of_characteristic

PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text(encoding="utf-8")
)
PRIMES = (3, 5, 7)


def chars(t):
    return [0] + [p for p in PRIMES if invariants.inadmissible_reason(t, p) is None]


def borel(family):
    return {"g2": liealg.g2_borel, "f4": liealg.f4_borel}.get(family) or (
        lambda: liealg.cn_borel(int(family[1:]))
    )


def copy_of(t):
    """The same table with an empty memo, so one run does not warm another."""
    return liealg.StructureTable(
        t.name, t.registry, t.brackets, t.cartan, t.nilradical, t.excluded_primes, t.corrections
    )


def shift_table():
    """A g2-labelled table with [h1, x_k] = [h2, x_k] = x_k and no other
    bracket: Jacobi holds, and h1 - h2 is central."""
    data = conftest.table_to_dict(liealg.g2_borel())
    xs = [x for x in data["basis"] if x not in data["cartan"]]
    data["brackets"] = [{"lhs": h, "rhs": x, "value": [["1", x]]} for h in ("h1", "h2") for x in xs]
    return liealg.table_from_dict(data)


def audit_pair(t, fam, char, max_degree=None):
    return (
        charp.theorem_generator_audit(t, fam, char, max_degree),
        conftest.reference_theorem_generator_audit(t, fam, char, max_degree),
    )


# ---------------------------------------------------------------------------
# The records against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", ["nil", "borel"])
@pytest.mark.parametrize("family", ["g2", "f4", "c2", "c3", "c4", "c5"])
def test_audit_equals_the_reference(family, level):
    # ids, statements, statuses, residuals, witnesses, notes and order; the
    # default degree, and 1 and 2, which reach the Borel degree and the cap
    t = borel(family)()
    if level == "nil":
        t = liealg.nilradical_table(t)
    fam = invariants.build_family(t)
    for char in chars(t):
        for max_degree in (None, 1, 2):
            new, ref = audit_pair(t, fam, char, max_degree)
            assert new and all(c.passed for c in new)
            assert new == ref


def test_pinned_audits_equal_the_reference():
    ran = 0
    for config in PINS:
        args = cli.build_parser().parse_args(["verify", *config.split()])
        if args.suites and "audit" not in args.suites.split(","):
            continue
        t, _ = cli.resolve_algebra(args)
        new, ref = audit_pair(t, invariants.build_family(t), args.char, args.max_degree)
        assert new == ref
        ran += 1
    assert ran >= 10


# ---------------------------------------------------------------------------
# The degree-one center of U(b), decided on the span
# ---------------------------------------------------------------------------


def test_shift_table_fails_the_degree_one_u_center():
    # no basis vector is central, but h1 - h2 is: the claim reads the
    # degree-one invariant space under all of b, as the Poisson one does
    t = shift_table()
    fam = invariants.build_family(t)
    new, ref = audit_pair(t, fam, 0)
    by_id = {c.claim_id: c for c in new}
    u = by_id["g2-borel.audit.u-center.char0.trivial.deg1"]
    poisson_deg1 = by_id["g2-borel.audit.poisson-center.char0.trivial.deg1"]
    assert (u.passed, u.residual) == (False, "dimension 1")
    assert (poisson_deg1.passed, poisson_deg1.residual) == (False, "dimension 1")
    # the reference tests each basis vector, and so misses it
    old = {c.claim_id: c for c in ref}["g2-borel.audit.u-center.char0.trivial.deg1"]
    assert old.passed
    assert [c for c in new if c is not u] == [c for c in ref if c.claim_id != u.claim_id]


# ---------------------------------------------------------------------------
# The kill matrix
# ---------------------------------------------------------------------------


def kind(t, claim_id):
    """The claim id without the table name, with digits as N, a p-th power
    of a basis element as x^p or h^p (h for a Cartan element), and every
    other generator name as *."""

    def shape(m):
        power = re.fullmatch(r"(\w+)\^\d+(-\w+)?", m.group(1))
        if power and power.group(1) in t.registry.names:
            x = "h" if t.registry.index(power.group(1)) in t.cartan else "x"
            return f".gen.{x}^p{'-' + x if power.group(2) else ''}."
        return ".gen.*."

    rest = re.sub(r"\.gen\.([^.]+)\.", shape, claim_id[len(t.name):])
    rest = re.sub(r"\.pairing\..*", ".pairing.*", rest)
    return re.sub(r"\d+", "N", rest)


EXCEPTIONS = {
    **dict.fromkeys(
        (
            ".audit.poisson-center.charN.gen-count",
            ".audit.semicenter.charN.gen-count",
            ".audit.u-center.charN.gen-count",
        ),
        "compares the length of a list with the count the list was built from",
    ),
    **dict.fromkeys(
        (
            ".audit.poisson-center.charN.generation",
            ".audit.semicenter.charN.generation",
            ".audit.u-center.charN.generation",
            ".audit.u-semicenter.charN.generation",
        ),
        "asserted by design: generation in every degree is the source's argument",
    ),
    **dict.fromkeys(
        (
            ".audit.poisson-center.charN.gen.x^p.invariant",
            ".audit.poisson-center.charN.gen.h^p.invariant",
            ".audit.semicenter.charN.gen.x^p.invariant",
            ".audit.semicenter.charN.gen.h^p.invariant",
            ".audit.semicenter.charN.gen.x^p.weight-vector",
            ".audit.semicenter.charN.gen.h^p.weight-vector",
        ),
        "{y, x^p} = p*x^(p-1)*{y, x} = 0 in every Poisson algebra over GF(p)",
    ),
}

# brackets that change the support of the table, for the claims that hold
# on every table with the catalog's support: (table, lhs, rhs, new value)
ADDED_TERMS = (
    # x2 and x3 both have h2-weight -1: ad h2 gets a Jordan block, so
    # (ad h2)^p != ad h2 and h2^p - h2 is not central
    ("g2-borel", "h2", "x2", "-x2 + x3"),
    # ad x1 maps x2 to a multiple of itself plus more, so is not nilpotent
    # and x1^p is not central
    ("g2-borel", "x1", "x2", "2*x3 + x2"),
    # the brackets span a Cartan element as well as the nilradical
    ("g2-borel", "h1", "h2", "h2"),
)


def table_mutations(t):
    """(label, table, whether it runs at every characteristic): each
    structure constant doubled, then zeroed, and the added terms on this
    table, which run at every characteristic."""
    for (i, j), entry in sorted(t.brackets.items()):
        lhs, rhs = t.label(i), t.label(j)
        for k, c in entry:
            for factor in (2, 0):
                changed = dict(entry)
                changed[k] = factor * c
                value = str(liealg.lincomb_to_poly(t, changed))
                yield f"[{lhs},{rhs}] {t.label(k)} x{factor}", conftest.with_bracket(t, lhs, rhs, value), False
    for name, lhs, rhs, value in ADDED_TERMS:
        if name == t.name:
            yield f"[{lhs},{rhs}] = {value}", conftest.with_bracket(t, lhs, rhs, value), True


def family_mutations(t, fam, char):
    """(label, family) over a fresh copy of t: one coefficient of each
    central element changed, and each central element swapped for a
    variable the nilradical does not leave invariant."""
    field = field_of_characteristic(char)
    x = next(i for i in t.nilradical if not poisson.is_invariant(t, Polynomial.variable(t.registry, field, i), t.nilradical)[0])
    for name in fam.central:
        element = fam.element(name, field)
        for label, changed in (
            (f"{name} +1 at its least monomial", element + Polynomial(t.registry, field, {min(element.terms): 1})),
            (f"{name} -> {t.label(x)}", Polynomial.variable(t.registry, field, x)),
        ):
            elements = {**fam.elements(field), name: changed}
            cache_ = {0: elements} if not char else {0: fam.elements(), char: elements}
            fresh = copy_of(t)
            yield label, dataclasses.replace(invariants.build_family(fresh), _cache=cache_)


KILL_INPUTS = ("g2-nil", "g2-borel", "c2-borel", "c3-borel", "c3-nil")


def kill_input(name):
    t = borel(name[:2])()
    return liealg.nilradical_table(t) if name.endswith("-nil") else t


@cache
def kill_matrix():
    """kind -> the mutations that fail it, and the runs made, each with
    its audit and the reference's.  A changed or zeroed constant runs at
    characteristic 0 and at one admissible prime, in turn, which keeps the
    matrix within a few seconds."""
    killed, runs = {}, []
    for name in KILL_INPUTS:
        base = kill_input(name)
        base_fam = invariants.build_family(base)
        primes = chars(base)[1:]
        mutated = [
            (label, t, invariants.build_family(t), every or {0, primes[n % len(primes)]})
            for n, (label, t, every) in enumerate(table_mutations(base))
        ]
        for char in chars(base):
            cases = [(label, t, fam) for label, t, fam, at in mutated if at is True or char in at]
            cases += [(label, fam.table, fam) for label, fam in family_mutations(base, base_fam, char)]
            for label, t, fam in cases:
                new, ref = audit_pair(t, fam, char)
                runs.append((t, new, ref))
                for c in new:
                    if not c.passed:
                        killed.setdefault(kind(t, c.claim_id), []).append(f"{name} char {char}: {label}")
    return killed, runs


@cache
def pinned_kinds():
    kinds = set()
    for config in PINS:
        args = cli.build_parser().parse_args(["verify", *config.split()])
        if args.suites and "audit" not in args.suites.split(","):
            continue
        t, _ = cli.resolve_algebra(args)
        claims = charp.theorem_generator_audit(t, invariants.build_family(t), args.char, args.max_degree)
        kinds |= {kind(t, c.claim_id) for c in claims}
    return kinds


def test_kind_names():
    t = liealg.g2_borel()
    assert kind(t, "g2-borel.audit.semicenter.char5.gen.x1^5.invariant") == ".audit.semicenter.charN.gen.x^p.invariant"
    assert kind(t, "g2-borel.audit.u-center.char5.gen.h2^5-h2.central") == ".audit.u-center.charN.gen.h^p-h.central"
    assert kind(t, "g2-borel.audit.u-semicenter.char0.gen.z2.gr") == ".audit.u-semicenter.charN.gen.*.gr"
    assert kind(t, "g2-borel.audit.semicenter.char7.gen.x6.invariant") == ".audit.semicenter.charN.gen.*.invariant"
    assert kind(t, "g2-borel.audit.semicenter.char0.pairing.c2.h2") == ".audit.semicenter.charN.pairing.*"


def test_every_pinned_claim_kind_can_fail():
    killed, _ = kill_matrix()
    emitted = pinned_kinds()
    assert len(emitted) >= 29
    alive = sorted(k for k in emitted if k not in killed and k not in EXCEPTIONS)
    assert not alive, f"no mutation fails {alive}"


def test_exceptions_are_emitted_and_never_fail():
    killed, _ = kill_matrix()
    assert set(EXCEPTIONS) <= pinned_kinds()
    assert not {k: killed[k] for k in EXCEPTIONS if k in killed}


def test_mutated_audits_equal_the_reference():
    # the one difference: the degree-one U-center claim, which now fails
    # with the dimension wherever the Poisson degree-one claim fails
    _, runs = kill_matrix()
    differing = 0
    for t, new, ref in runs:
        assert [c.claim_id for c in new] == [c.claim_id for c in ref]
        by_id = {c.claim_id: c for c in new}
        for a, b in zip(new, ref):
            if a == b:
                continue
            assert a.claim_id == f"{t.name}.audit.u-center.char0.trivial.deg1"
            assert not a.passed
            assert a.residual == by_id[f"{t.name}.audit.poisson-center.char0.trivial.deg1"].residual
            # the reference found a central basis vector, and gave no residual
            assert not b.passed and b.residual is None
            differing += 1
    assert differing
