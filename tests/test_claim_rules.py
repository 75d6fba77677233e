"""The claim rules stated once: ``report.check`` decides verified,
derived-with-note and failed; ``report.identity`` checks an exact identity
from its residual; ``poisson.eigenvalue_claim`` makes every Cartan-eigenvalue
claim.  The identity suites built on them give the same claims as the
references in ``conftest``, which write each rule out, on every catalog
table at Q and at each admissible prime up to 7, and on mutated tables and
families, where claims fail or carry notes."""

import dataclasses

import pytest

import conftest
from liecenter import charp, invariants, liealg, pbw, poisson
from liecenter import report as rep
from liecenter.exactalg import GF, QQ, Polynomial, field_of_characteristic
from test_audit import borel, chars, copy_of


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------


def test_check_decides_three_verdicts():
    assert rep.check("a", "s", True) == rep.Claim("a", "s", rep.VERIFIED)
    assert rep.check("a", "s", True, residual="r", witness="w", note="n") == rep.Claim(
        "a", "s", rep.DERIVED_WITH_NOTE, note="n"
    )
    assert rep.check("a", "s", False, residual="r", witness="w", note="n") == rep.Claim(
        "a", "s", rep.FAILED, residual="r", witness="w", note="n"
    )


def test_identity_reads_the_residual():
    t = liealg.g2_borel()
    x1 = Polynomial.variable(t.registry, QQ, "x1")
    zero = x1 - x1
    assert rep.identity("a", "s", zero) == rep.Claim("a", "s", rep.VERIFIED)
    assert rep.identity("a", "s", zero, note="n") == rep.Claim("a", "s", rep.DERIVED_WITH_NOTE, note="n")
    assert rep.identity("a", "s", x1.scale(2), note="n") == rep.Claim(
        "a", "s", rep.FAILED, residual="2*x1", note="n"
    )
    # an element of the enveloping algebra is a residual too
    e = pbw.PBWElement.variable(t.registry, GF(5), "x1")
    assert rep.identity("a", "s", e - e).status == rep.VERIFIED
    assert rep.identity("a", "s", e) == rep.Claim("a", "s", rep.FAILED, residual=str(e))


def test_nonzero_pairings_name_their_claims():
    t = liealg.g2_borel()
    fam = invariants.build_family(t)
    claims = poisson.nonzero_pairings(t, fam, QQ, lambda elem, h: f"{elem}/{h}")
    assert [(c.claim_id, c.status) for c in claims] == [("c1/h1", rep.VERIFIED), ("c2/h2", rep.VERIFIED)]
    # {h1, c2} = 0: a zero pairing fails with its eigenvalue
    zero = dataclasses.replace(fam, nonzero_pairings=(("c2", "h1"),))
    [claim] = poisson.nonzero_pairings(t, zero, QQ, lambda elem, h: "p")
    assert (claim.status, claim.residual) == (rep.FAILED, "eigenvalue 0")


def test_a_failing_weight_expectation_keeps_its_note():
    t = liealg.g2_borel()
    fam = invariants.build_family(t)
    elem, h_label, _, note = fam.weight_expectations[3]
    # the noted c2 weight stated as the source prints it
    restated = dataclasses.replace(fam, weight_expectations=((elem, h_label, "-1", note),))
    for field in (QQ, GF(5)):
        claims = {c.claim_id: c for c in poisson.semicenter_witness_suite(t, restated, field)}
        assert claims[f"{t.name}.weights.c2.h2"] == rep.Claim(
            f"{t.name}.weights.c2.h2", "{h2, c2} = -1*c2", rep.FAILED, residual=f"eigenvalue {field.coerce(-2)}", note=note
        )


def plus(label):
    """f plus the variable ``label``: a weight vector plus a variable of
    another weight is no eigenvector."""
    return lambda f: f + Polynomial.variable(f.registry, f.field, label)


def f4_non_eigenvectors(fam):
    """c2 + x2 and u9 + x2: x2's weight differs from theirs, also mod 3,
    under every Cartan label an eigenvalue claim pairs them with."""
    return replaced_elements(fam, {"c2": plus("x2"), "u9": plus("x2")})


@pytest.mark.parametrize("char", [0, 3])
def test_a_non_eigenvector_is_the_witness_of_each_eigenvalue_claim(char):
    fam = f4_non_eigenvectors(invariants.build_family(liealg.f4_borel()))
    t, field = fam.table, field_of_characteristic(char)
    claims = poisson.semicenter_witness_suite(t, fam, field) + invariants.verify_relation_chain(t, fam, field)
    kinds = {
        "expectation": [c for c in claims if c.claim_id in {f"{t.name}.weights.c2.h{k}" for k in (2, 3, 4)}],
        "pairing": [c for c in claims if c.claim_id == f"{t.name}.weights.c2.h4.nonzero"],
        "chain weight": [c for c in claims if c.claim_id.startswith(f"{t.name}.chain.weight.u9.")],
    }
    for kind, of_kind in kinds.items():
        assert of_kind, kind
        for c in of_kind:
            assert (c.status, c.residual, c.witness) == (rep.FAILED, None, "not an eigenvector"), (kind, c)


# ---------------------------------------------------------------------------
# The suites against the references
# ---------------------------------------------------------------------------


def suite_pairs(t, fam, char):
    """(name, suite's claims, reference's claims) for every identity suite
    that applies at this characteristic."""
    field = field_of_characteristic(char)
    pairs = [
        ("invariance", invariants.invariance_suite, conftest.reference_invariance_suite),
        ("chains", invariants.verify_relation_chain, conftest.reference_relation_chain),
        ("triangle", invariants.verify_triangle_property, conftest.reference_triangle_property),
    ]
    if t.cartan:
        pairs.append(("weights", poisson.semicenter_witness_suite, conftest.reference_semicenter_witness_suite))
    for name, new, ref in pairs:
        yield name, new(t, fam, field), ref(t, fam, field)
    if char:
        yield "frobenius", charp.frobenius_membership_suite(t, fam, char), conftest.reference_frobenius_membership_suite(t, fam, char)
        yield "jacobians", charp.jacobian_identity_suite(t, fam, char), conftest.reference_jacobian_records_suite(t, fam, char)
        yield "pbw", pbw.p_center_suite(t, char), conftest.reference_p_center_suite(t, char)


@pytest.mark.parametrize("level", ["nil", "borel"])
@pytest.mark.parametrize("family", ["g2", "f4", "c3", "c4", "c5"])
def test_suites_equal_the_references(family, level):
    t = borel(family)()
    if level == "nil":
        t = liealg.nilradical_table(t)
    fam = invariants.build_family(t)
    for char in chars(t):
        for name, new, ref in suite_pairs(t, fam, char):
            assert all(c.passed for c in new), (name, char)
            assert new == ref, (name, char)


def doubled_bracket(t, n):
    """t with the n-th stored bracket doubled."""
    (i, j), entry = sorted(t.brackets.items())[n]
    value = str(liealg.lincomb_to_poly(t, {k: 2 * c for k, c in entry}))
    return conftest.with_bracket(t, t.label(i), t.label(j), value)


def replaced_elements(fam, changes, char=0):
    """fam over a fresh table with the named elements changed at
    characteristic char: a change at 0 reaches every prime by reduction, a
    change at a prime leaves the elements over Q alone."""
    t = copy_of(fam.table)
    field = field_of_characteristic(char)
    changed = {name: change(fam.element(name, field)) for name, change in changes.items()}
    cache = {char: {**fam.elements(field), **changed}}
    if char:
        cache[0] = fam.elements()
    return dataclasses.replace(invariants.build_family(t), _cache=cache)


def bumped(f):
    """f with 1 added to the coefficient of its least monomial."""
    return f + Polynomial(f.registry, f.field, {min(f.terms): 1})


def g2_mutations(fam):
    t = fam.table
    yield "c2 bumped", replaced_elements(fam, {"c2": bumped})
    yield "c2 bumped at 5", replaced_elements(fam, {"c2": bumped}, 5)
    yield "v3 and c1 swapped", replaced_elements(fam, {"v3": lambda f: fam.element("c1"), "c1": lambda f: fam.element("v3")})
    expectations = list(fam.weight_expectations)
    # the noted c2 weight stated as the source prints it, and a note on a
    # passing expectation
    expectations[3] = expectations[3][:2] + ("-1",) + expectations[3][3:]
    expectations[0] = expectations[0][:3] + ("a note",)
    yield "weights restated", dataclasses.replace(fam, weight_expectations=tuple(expectations))
    yield "a zero pairing", dataclasses.replace(fam, nonzero_pairings=(("c2", "h1"), ("c1", "h1")))
    jac = fam.jacobians
    for coef in ("3", "3/2"):
        identities = ((jac.identities[0][0], coef, jac.identities[0][2]),) + jac.identities[1:]
        yield f"partial stated as {coef}", dataclasses.replace(
            fam, jacobians=dataclasses.replace(jac, identities=identities)
        )
    for n in (0, len(t.brackets) // 2, len(t.brackets) - 1):
        yield f"bracket {n} doubled", invariants.build_family(doubled_bracket(t, n))
    # ad x1 no longer nilpotent, ad h2 with a Jordan block: the p-center fails
    for lhs, rhs, value in (("x1", "x2", "2*x3 + x2"), ("h2", "x2", "-x2 + x3")):
        if lhs in t.registry:
            yield f"[{lhs}, {rhs}] = {value}", invariants.build_family(conftest.with_bracket(t, lhs, rhs, value))


def f4_mutations(fam):
    t = fam.table
    yield "c3 bumped", replaced_elements(fam, {"c3": bumped})
    yield "c4 bumped at 3", replaced_elements(fam, {"c4": bumped}, 3)
    yield "u6 bumped", replaced_elements(fam, {"u6": bumped})
    chain = {elem: dict(entries) for elem, entries in fam.chain.items()}
    # the noted u6 entry with its sign flipped keeps its note; a passing entry
    # gains one; a stated zero becomes a stated multiple
    chain["u6"]["x3"] = ("-1", "u9", chain["u6"]["x3"][2])
    chain["v4"]["x4"] = chain["v4"]["x4"] + ("a note",)
    chain["u9"]["x1"] = ("2", "c1")
    yield "chain restated", dataclasses.replace(fam, chain=chain)
    weights = fam.chain_weights[:-1] + (("w3", "h2", "3"),)
    yield "chain weight restated", dataclasses.replace(fam, chain_weights=weights)
    yield "c2 and u9 plus x2", f4_non_eigenvectors(fam)
    jac = fam.jacobians
    vars_, _, factors = jac.identities[1]
    for coef in ("2", "5"):
        identities = jac.identities[:1] + ((vars_, coef, factors),) + jac.identities[2:]
        yield f"determinant stated as {coef}", dataclasses.replace(
            fam, jacobians=dataclasses.replace(jac, identities=identities)
        )
    (c3, statement, terms), c4 = fam.layers
    layers = ((c3, statement, (terms[0], ("1/4", terms[1][1]))), c4)
    yield "c3 layer restated", dataclasses.replace(fam, layers=layers)
    c4_terms = c4[2][:2] + (("1/4", ("v7", "v3")),)
    yield "c4 layer restated", dataclasses.replace(fam, layers=(fam.layers[0], c4[:2] + (c4_terms,)))
    for n in (0, len(t.brackets) - 1):
        yield f"bracket {n} doubled", invariants.build_family(doubled_bracket(t, n))


@pytest.mark.parametrize(
    "build, mutations, primes",
    [
        pytest.param(liealg.g2_borel, g2_mutations, (5,), id="g2-borel"),
        pytest.param(lambda: liealg.nilradical_table(liealg.g2_borel()), g2_mutations, (7,), id="g2-nil"),
        pytest.param(liealg.f4_borel, f4_mutations, (3,), id="f4-borel"),
        pytest.param(lambda: liealg.nilradical_table(liealg.f4_borel()), f4_mutations, (3,), id="f4-nil"),
    ],
)
def test_mutated_suites_equal_the_references(build, mutations, primes):
    t = build()
    seen = {rep.FAILED: 0, rep.DERIVED_WITH_NOTE: 0}
    for label, fam in mutations(invariants.build_family(t)):
        for char in (0, *primes):
            for name, new, ref in suite_pairs(fam.table, fam, char):
                assert new == ref, (label, name, char)
                for c in new:
                    seen[c.status] = seen.get(c.status, 0) + 1
    # the mutations reach the failing and noted branches
    assert seen[rep.FAILED] and seen[rep.DERIVED_WITH_NOTE]
