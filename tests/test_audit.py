"""The theorem audit as statement records: equal to the hand-written
reference (``conftest.reference_theorem_generator_audit``), the degree-one
U-center claim decided on the span of b, and a kill matrix showing that every
audit claim kind the pinned configurations emit fails under some mutation of
the table or the family, unless it is listed below with the reason it
cannot.  A second kill matrix does the same for the identity suites
(jacobi, invariance, chains, triangle, weights, frobenius, jacobians, the
lifts and the p-center of pbw, and the oracle), with one more operator: a
stated coefficient of a family's records changed."""

import dataclasses
import json
import re
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import conftest
from liecenter import charp, cli, invariants, liealg, pbw, poisson
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
    other generator name as *.  Outside the audit's generator and pairing
    parts, a basis label reads x or h and its p-th power x^p or h^p, also
    within a part of labels joined by '-'."""

    def shape(m):
        power = re.fullmatch(r"(\w+)\^\d+(-\w+)?", m.group(1))
        if power and power.group(1) in t.registry.names:
            x = "h" if t.registry.index(power.group(1)) in t.cartan else "x"
            return f".gen.{x}^p{'-' + x if power.group(2) else ''}."
        return ".gen.*."

    def labels(part):
        words = [re.fullmatch(r"(\w+?)(\^\d+)?", w) for w in part.split("-")]
        if not all(w and w.group(1) in t.registry.names for w in words):
            return part
        return "-".join(
            ("h" if t.registry.index(w.group(1)) in t.cartan else "x") + ("^p" if w.group(2) else "")
            for w in words
        )

    rest = re.sub(r"\.gen\.([^.]+)\.", shape, claim_id[len(t.name):])
    rest = re.sub(r"\.pairing\..*", ".pairing.*", rest)
    return re.sub(r"\d+", "N", ".".join(map(labels, rest.split("."))))


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


def table_mutations(t, added=ADDED_TERMS):
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
    for name, lhs, rhs, value in added:
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
    assert kind(t, "g2-borel.pcenter.p5.h2^5-h2.x1") == ".pcenter.pN.h^p-h.x"
    assert kind(t, "g2-borel.invariance.c2.x3.char5") == ".invariance.cN.x.charN"
    assert kind(t, "g2-borel.weights.c2.h2.nonzero") == ".weights.cN.h.nonzero"
    f4 = liealg.f4_borel()
    assert kind(f4, "f4-borel.jacobians.det.x16-x9-x2.f3") == ".jacobians.det.x-x-x.fN"
    assert kind(f4, "f4-borel.frobenius.p3.c3p-layered") == ".frobenius.pN.cNp-layered"
    cn = liealg.cn_borel(3)
    assert kind(cn, "c3-borel.pcenter.p5.a1_2^5.c1_3") == ".pcenter.pN.x^p.x"


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


def test_containment_on_the_kill_inputs_matches_the_per_product_reference():
    # the oracle's generators-first containment verdict on every mutated
    # table and family the audit's kill matrix runs, under the nilradical
    # and under every basis element
    verdicts = set()

    def compare(t, fam, char):
        field = field_of_characteristic(char)
        generators = charp.invariant_generators(t, fam, field)
        for gens in {tuple(t.nilradical), tuple(range(t.dim))}:
            for d in range(1, invariants.oracle_degree(t) + 1):
                got = invariants.compare_with_generated(t, 0, generators, d, field, gens)["contained"]
                assert got == conftest.reference_contained(t, generators, d, gens), (t.name, char, d)
                verdicts.add(got)

    for name in KILL_INPUTS:
        base = kill_input(name)
        base_fam = invariants.build_family(base)
        primes = chars(base)[1:]
        for n, (_, t, every) in enumerate(table_mutations(base)):
            for char in chars(base) if every else (0, primes[n % len(primes)]):
                compare(t, invariants.build_family(t), char)
        for char in (0, primes[0]):
            for _, fam in family_mutations(base, base_fam, char):
                compare(fam.table, fam, char)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# The kill matrix of the identity suites
# ---------------------------------------------------------------------------


def _field_suite(suite):
    return lambda t, fam, char: suite(t, fam, field_of_characteristic(char))


def _oracle_suite(t, fam, char):
    # as ``verify --max-degree 3`` runs it: the degrees above 3, up to g2's
    # default 6, would triple the matrix's time
    field = field_of_characteristic(char)
    degrees = range(1, invariants.oracle_degree(t, 3) + 1)
    return invariants.oracle_suite(t, charp.invariant_generators(t, fam, field), degrees, field)[0]


# each identity suite as ``cli`` runs it, by its --suites name: the weights
# on a Borel table, the others that take a prime at one, and the pbw
# suite's lifts at every characteristic, its p-center at a prime
IDENTITY_SUITES = {
    "jacobi": lambda t, fam, char: cli.jacobi_suite(t),
    "invariance": _field_suite(invariants.invariance_suite),
    "chains": _field_suite(invariants.verify_relation_chain),
    "triangle": _field_suite(invariants.verify_triangle_property),
    "weights": lambda t, fam, char: poisson.semicenter_witness_suite(t, fam, field_of_characteristic(char)) if t.cartan else [],
    "frobenius": lambda t, fam, char: charp.frobenius_membership_suite(t, fam, char) if char else [],
    "jacobians": lambda t, fam, char: charp.jacobian_identity_suite(t, fam, char) if char else [],
    "pbw": lambda t, fam, char: pbw.z_lift_audit(t, fam, field_of_characteristic(char))
    + (pbw.p_center_suite(t, char) if char else []),
    "oracle": _oracle_suite,
}

IDENTITY_EXCEPTIONS = {
    **dict.fromkeys(
        (
            ".frobenius.pN.cN.power-member",
            ".frobenius.pN.uNp-pattern",
            ".frobenius.pN.vNp-pattern",
            ".frobenius.pN.wNp-pattern",
        ),
        "a Frobenius expansion has p-divisible exponents by construction",
    ),
    ".zlift.cN.charN.gr": "the top layer of a symmetrized monomial is the monomial itself",
    ".zlift.cN.charN.naive-low": (
        "a symmetrized monomial and its ordered word differ by straightening"
        " corrections, each of lower filtration degree"
    ),
    ".zlift.cN.charN.naive": "verified without a condition: it records the naive lift's verdict in its note",
}


def identity_claims(t, fam, char, suites=IDENTITY_SUITES):
    return [c for name in suites for c in IDENTITY_SUITES[name](t, fam, char)]


def coefficient_changed(coef):
    return str(Fraction(coef) + 1)


def record_mutations(fam):
    """(label, family, the suites that read the record): each stated
    coefficient of the family's jacobians, layers, chain and chain weights
    changed in turn, and each central element but c1 swapped for c1, which
    lies in the p-power pattern."""
    jac = fam.jacobians
    for n, (vars_, coef, factors) in enumerate(jac.identities if jac else ()):
        identities = jac.identities[:n] + ((vars_, coefficient_changed(coef), factors),) + jac.identities[n + 1:]
        yield f"jacobian {n} restated", dataclasses.replace(fam, jacobians=dataclasses.replace(jac, identities=identities)), ("jacobians",)
    for n, (name, statement, terms) in enumerate(fam.layers):
        for k, (coef, factors) in enumerate(terms):
            changed = terms[:k] + ((coefficient_changed(coef), factors),) + terms[k + 1:]
            layers = fam.layers[:n] + ((name, statement, changed),) + fam.layers[n + 1:]
            yield f"{name} layer term {k} restated", dataclasses.replace(fam, layers=layers), ("frobenius",)
    for elem, entries in fam.chain.items():
        for label, (coef, *rest) in entries.items():
            chain = {**fam.chain, elem: {**entries, label: (coefficient_changed(coef), *rest)}}
            yield f"chain {elem}.{label} restated", dataclasses.replace(fam, chain=chain), ("chains",)
    for n, (elem, h, scalar) in enumerate(fam.chain_weights):
        weights = fam.chain_weights[:n] + ((elem, h, coefficient_changed(scalar)),) + fam.chain_weights[n + 1:]
        yield f"chain weight {elem}.{h} restated", dataclasses.replace(fam, chain_weights=weights), ("chains",)
    c1 = fam.element("c1")
    for name in fam.central[1:]:
        elements = {**fam.elements(), name: c1}
        yield f"{name} -> c1", dataclasses.replace(fam, _cache={0: elements}), ("frobenius",)


# the f4 records are checked by family and record mutations only: its 128
# structure constants would each cost a run
IDENTITY_KILL_INPUTS = KILL_INPUTS + ("f4-borel",)
# ad x1 maps h1 to -h1, so [h1, x1^p] = -(ad x1)^p(h1) = h1 is not zero
IDENTITY_ADDED_TERMS = ADDED_TERMS + (("g2-borel", "h1", "x1", "h1"),)


@cache
def identity_kill_matrix():
    """kind -> the mutations that fail it, for the identity suites: on the
    audit's inputs, the audit's table and family mutations, at
    characteristic 0 and at one admissible prime in turn, and the record
    mutations, at the smallest admissible prime."""
    killed = {}

    def run(name, label, t, fam, char, suites=IDENTITY_SUITES):
        for c in identity_claims(t, fam, char, suites):
            if not c.passed:
                killed.setdefault(kind(t, c.claim_id), []).append(f"{name} char {char}: {label}")

    for name in IDENTITY_KILL_INPUTS:
        base = kill_input(name)
        base_fam = invariants.build_family(base)
        primes = chars(base)[1:]
        if not name.startswith("f4"):
            for n, (label, t, every) in enumerate(table_mutations(base, IDENTITY_ADDED_TERMS)):
                fam = invariants.build_family(t)
                for char in chars(base) if every else (0, primes[n % len(primes)]):
                    run(name, label, t, fam, char)
        for char in (0, primes[0]):
            for label, fam in family_mutations(base, base_fam, char):
                run(name, label, fam.table, fam, char)
        for label, fam, suites in record_mutations(base_fam):
            run(name, label, base, fam, primes[0], suites)
    return killed


@cache
def pinned_identity_kinds():
    """The kinds the pinned configurations emit from the identity suites;
    at characteristic 0 the jacobians run at the smallest admissible
    prime, as ``cli`` runs them."""
    kinds = set()
    for config in PINS:
        args = cli.build_parser().parse_args(["verify", *config.split()])
        t, _ = cli.resolve_algebra(args)
        fam = invariants.build_family(t)
        for name in args.suites.split(",") if args.suites else IDENTITY_SUITES:
            if name in IDENTITY_SUITES:
                char = args.char or (chars(t)[1] if name == "jacobians" else 0)
                kinds |= {kind(t, c.claim_id) for c in identity_claims(t, fam, char, (name,))}
    return kinds


def test_every_pinned_identity_kind_can_fail():
    killed = identity_kill_matrix()
    emitted = pinned_identity_kinds()
    assert {k.split(".")[1] for k in emitted} >= {
        "jacobi", "invariance", "chain", "triangle", "weights", "frobenius", "jacobians", "pcenter", "zlift", "oracle"
    }
    alive = sorted(k for k in emitted if k not in killed and k not in IDENTITY_EXCEPTIONS)
    assert not alive, f"no mutation fails {alive}"


def test_identity_exceptions_are_emitted_and_never_fail():
    killed = identity_kill_matrix()
    assert set(IDENTITY_EXCEPTIONS) <= pinned_identity_kinds()
    assert not {k: killed[k] for k in IDENTITY_EXCEPTIONS if k in killed}
