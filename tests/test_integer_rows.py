"""The kernels that read the integer rows D*[x_i, -] against the field rows
they replace.

``poisson.ad_apply``, ``liealg.lie_generators`` and
``liealg.ad_power_identity`` once read the bracket rows reduced into each
field.  The references below keep that arithmetic, on
``conftest.reference_bracket_row``, and the integer-row kernels must return
the same polynomials, generating sets and verdicts, on tables with D = 1
(G2, Cn), D = 2 (F4 and a Jordan-block table) and D = 6 (``thirds``).
"""

import os
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from liecenter import invariants, liealg, linalg  # noqa: E402
from liecenter.exactalg import GF, QQ, Polynomial, add_into, mono_from_pairs  # noqa: E402
from liecenter.liealg import AdPowerResult, ad_power_identity, lie_generators  # noqa: E402
from liecenter.poisson import ad_apply  # noqa: E402

from conftest import reference_ad_apply, reference_bracket_row  # noqa: E402

THIRDS_TABLE = os.path.join(os.path.dirname(__file__), "data", "thirds.json")


def reference_ad(t, i, vec, field):
    """[basis_i, vec] over the field, from the field rows."""
    row = reference_bracket_row(t, i, field.characteristic)
    out = {}
    for k, c in vec.items():
        add_into(out, row.get(k, ()), field, c)
    return out


def reference_lie_generators(t, gens, char):
    """The generating subset chosen and closure-checked on the field rows."""
    field = GF(char) if char else QQ
    one = field.one
    rest = sorted({i for i in gens if i not in t.cartan})
    chosen = {i for i in gens if i in t.cartan}
    span = linalg.echelon((reference_ad(t, i, {j: one}, field) for i, j in combinations(rest, 2)), field)
    for i in rest:
        grown = linalg.echelon([*span.values(), {i: one}], field)
        if len(grown) > len(span):
            chosen.add(i)
            span = grown
    if len(chosen) == len(set(gens)):
        return tuple(gens)
    span = linalg.echelon(({i: one} for i in chosen), field)
    new = list(span.values())
    while new:
        brackets = (reference_ad(t, i, v, field) for i in chosen for v in new)
        grown = linalg.echelon([*span.values(), *brackets], field)
        new = [row for pc, row in grown.items() if pc not in span]
        span = grown
    closed = len(linalg.echelon([*span.values(), *({i: one} for i in gens)], field)) == len(span)
    if not (closed and liealg.jacobi_check(t).ok):
        return tuple(gens)
    return tuple(i for i in gens if i in chosen)


def reference_ad_power_identity(t, i, p):
    """(ad x)^p = 0 or (ad h)^p = ad h, applying the field row p times."""
    i = t.registry.resolve(i)
    fp = GF(p)
    kind = "cartan" if i in t.cartan else "nilpotent"
    ok = True
    for j in range(t.dim):
        vec = {j: 1}
        for _ in range(p):
            vec = reference_ad(t, i, vec, fp)
        ok = ok and vec == (reference_ad(t, i, {j: 1}, fp) if kind == "cartan" else {})
    return AdPowerResult(t.name, t.label(i), kind, p, ok)


def jordan_half():
    """[h, x] = x and [h, y] = x/2 + y: ad h is a Jordan block on (x, y), so
    (ad h)^p = ad h fails in every odd characteristic, with D = 2."""
    return liealg.table_from_dict(
        {
            "name": "jordan-half",
            "basis": ["h", "x", "y"],
            "cartan": ["h"],
            "brackets": [
                {"lhs": "h", "rhs": "x", "value": [[1, "x"]]},
                {"lhs": "h", "rhs": "y", "value": [["1/2", "x"], [1, "y"]]},
            ],
        }
    )


def fresh(builder):
    """A new table, so no generating set is memoized yet."""
    t = builder()
    return liealg.StructureTable(
        t.name, t.registry, t.brackets, t.cartan, t.nilradical, t.excluded_primes
    )


# name -> (table builder, primes compared)
GENERATOR_TABLES = {
    "f4": (liealg.f4_borel, (3, 5, 7)),
    "thirds": (lambda: liealg.load_table(THIRDS_TABLE), (5, 7)),
    "jordan": (jordan_half, (3, 5, 7)),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_TABLES))
def test_lie_generators_match_the_field_rows(name):
    builder, primes = GENERATOR_TABLES[name]
    for char in (0, *primes):
        for level in ("borel", "nil"):
            t = fresh(builder)
            gens = tuple(range(t.dim)) if level == "borel" else t.nilradical
            assert lie_generators(t, gens, char) == reference_lie_generators(t, gens, char), (
                level, char
            )


@pytest.mark.parametrize("name", sorted(GENERATOR_TABLES))
def test_ad_power_identity_matches_the_field_rows(name):
    builder, primes = GENERATOR_TABLES[name]
    t = builder()
    assert t.scale > 1
    for p in primes:
        for i in range(t.dim):
            assert ad_power_identity(t, i, p) == reference_ad_power_identity(t, i, p), (i, p)


def test_jordan_block_fails_the_cartan_identity():
    t = jordan_half()
    for p in (3, 5, 7):
        assert not ad_power_identity(t, "h", p).ok
        assert ad_power_identity(t, "x", p).ok and ad_power_identity(t, "y", p).ok


# -- ad_apply on every family element and every generator ----------------------

FAMILY_TABLES = {
    "g2": liealg.g2_borel,
    "f4": liealg.f4_borel,
    **{f"c{n}": (lambda n=n: liealg.cn_borel(n)) for n in (3, 4, 5)},
}


@pytest.mark.parametrize("level", ["borel", "nil"])
@pytest.mark.parametrize("name", sorted(FAMILY_TABLES))
def test_ad_apply_on_family_elements_matches_the_field_rows(name, level):
    t = FAMILY_TABLES[name]()
    if level == "nil":
        t = liealg.nilradical_table(t)
    fam = invariants.build_family(t)
    primes = [p for p in (3, 5, 7) if not invariants.inadmissible_reason(t, p)]
    assert primes
    for field in (QQ, *map(GF, primes)):
        for f in fam.elements(field).values():
            for i in range(t.dim):
                assert ad_apply(t, i, f) == reference_ad_apply(t, i, f), (field, t.label(i))


# -- ad_apply on random polynomials ---------------------------------------------

RANDOM_TABLES = {
    "f4-nil": lambda: liealg.nilradical_table(liealg.f4_borel()),
    "thirds": lambda: liealg.load_table(THIRDS_TABLE),
    "jordan": jordan_half,
}


@cache
def random_table(name):
    return RANDOM_TABLES[name]()


def random_polynomials(t, field):
    # denominators prime to 5 and 7, so each draw is defined over GF(5), GF(7)
    letters = st.integers(0, t.dim - 1)
    monomials = st.lists(st.tuples(letters, st.integers(1, 6)), max_size=4).map(mono_from_pairs)
    scalars = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6]))
    terms = st.lists(st.tuples(monomials, scalars), max_size=6)
    return terms.map(lambda items: Polynomial.from_terms(t.registry, field, items))


@pytest.mark.parametrize("name", sorted(RANDOM_TABLES))
@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ad_apply_on_random_polynomials_matches_the_field_rows(name, field, data):
    t = random_table(name)
    f = data.draw(random_polynomials(t, field))
    for i in range(t.dim):
        assert ad_apply(t, i, f) == reference_ad_apply(t, i, f), t.label(i)
