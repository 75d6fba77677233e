"""The Lie generating subset of ``liealg.lie_generators`` against the full
generator lists it replaces.

The oracle, ``is_invariant`` and ``is_central_u`` decide over the subset;
the references below take every element of the list, as the solver and
the verdict loops did before, and must give the same verdicts and
witnesses, the oracle's dimension and the basis of
``conftest.reference_oracle_basis``.
"""

import json

import pytest

from liecenter import invariants, linalg, liealg
from liecenter.exactalg import GF, QQ, Polynomial
from liecenter.invariants import brute_force_invariant_space
from liecenter.liealg import lie_generators
from liecenter.pbw import PBWElement, commutator_with_basis, is_central_u, naive_lift, symmetrize
from liecenter.poisson import ad_apply, is_invariant

from conftest import (
    homogeneous_monomials,
    mono_grade,
    reference_oracle_basis,
    table_to_dict,
    with_bracket,
)


def reference_invariant_space(t, degree, gens, field):
    """The oracle basis with one constraint row per (generator, image
    monomial) for every element of ``gens``, read off ``ad_apply`` block by
    block and eliminated without the modular filter."""
    char = field.characteristic
    gradings = invariants.derive_multigrading(t)
    blocks = {}
    for mono in homogeneous_monomials(t.dim, degree):
        blocks.setdefault(mono_grade(mono, gradings), []).append(mono)
    basis = []
    for grade in sorted(blocks):
        cols = blocks[grade]
        rows = {}
        for i in gens:
            for c, mono in enumerate(cols):
                image = ad_apply(t, i, Polynomial(t.registry, field, {mono: field.one}))
                for target, x in image.terms.items():
                    rows.setdefault((i, target), {})[c] = x
        dense = [[row.get(c, 0) for c in range(len(cols))] for row in rows.values()]
        if char:
            null = linalg.nullspace_mod(dense, len(cols), char)
        else:
            null = linalg.nullspace_int(dense, len(cols))
        for vec in null:
            basis.append(Polynomial.from_terms(t.registry, field, zip(cols, vec)))
    return basis


def reference_is_invariant(t, f, gens):
    for i in gens:
        if not ad_apply(t, i, f).is_zero:
            return False, i
    return True, None


def reference_is_central_u(t, e, gens):
    for i in gens:
        if not commutator_with_basis(t, i, e).is_zero:
            return False, i
    return True, None


def _fresh(builder):
    """A new table for each case, so no memo is shared with other tests."""
    t = builder()
    return liealg.StructureTable(
        t.name, t.registry, t.brackets, t.cartan, t.nilradical, t.excluded_primes
    )


# name -> (Borel builder, admissible primes in {3, 5, 7}, highest degree
# checked at the nilradical level, and at the Borel level)
TABLES = {
    "g2": (liealg.g2_borel, (5, 7), 4, 3),
    "f4": (liealg.f4_borel, (3, 5, 7), 3, 2),
    **{f"c{n}": (lambda n=n: liealg.cn_borel(n), (3, 5, 7), 3 if n <= 3 else 2, 2)
       for n in range(1, 6)},
}


def _oracle_cases():
    for name, (_, primes, nil_top, borel_top) in TABLES.items():
        for char in (0, *primes):
            yield pytest.param(name, char, id=f"{name}-char{char}")


@pytest.mark.parametrize("name, char", _oracle_cases())
def test_oracle_basis_matches_full_list(name, char):
    build, _, nil_top, borel_top = TABLES[name]
    field = GF(char) if char else QQ
    borel = _fresh(build)
    nil = liealg.nilradical_table(borel)
    cases = [(nil, nil.nilradical, nil_top), (borel, borel.nilradical, borel_top)]
    cases.append((borel, range(borel.dim), borel_top))
    for t, gens, top in cases:
        for d in range(1, top + 1):
            want = reference_invariant_space(t, d, gens, field)
            assert brute_force_invariant_space(t, d, gens, field) == len(want), (t.name, d)
            assert reference_oracle_basis(t, d, gens, field) == want, (t.name, d)


def _verdict_cases():
    for name in ("g2", "f4", "c3", "c4"):
        build, primes, _, _ = TABLES[name]
        for char in (0, primes[0]):
            for level in ("nil", "borel"):
                yield pytest.param(name, char, level, id=f"{name}-{level}-char{char}")


@pytest.mark.parametrize("name, char, level", _verdict_cases())
def test_verdicts_and_witnesses_match_full_list(name, char, level):
    field = GF(char) if char else QQ
    t = _fresh(TABLES[name][0])
    t = liealg.nilradical_table(t) if level == "nil" else t
    fam = invariants.build_family(t)
    elements = dict(fam.elements(field))
    # not invariant: the bracket of two generators that do not commute
    i, j = next(key for key in sorted(t.brackets) if set(key) <= set(t.nilradical))
    elements["product"] = Polynomial(t.registry, field, {((i, 1), (j, 1)): field.one})
    failing = set()
    for gens in (t.nilradical, tuple(range(t.dim))):
        for elt, f in sorted(elements.items()):
            got = is_invariant(t, f, gens)
            assert got == reference_is_invariant(t, f, gens), elt
            lift = naive_lift(f)
            got_u = is_central_u(t, lift, gens)
            assert got_u == reference_is_central_u(t, lift, gens), elt
            failing.update(i for ok, i in (got, got_u) if not ok)
    assert failing
    if name != "f4":  # the f4 lifts are checked by the acceptance criteria
        for elt in fam.central:
            f = fam.element(elt, field)
            if char and f.total_degree() >= char:
                continue
            z = symmetrize(t, f)
            assert is_central_u(t, z, t.nilradical) == (True, None)
            assert reference_is_central_u(t, z, t.nilradical) == (True, None)


def _lift_cases():
    for name in ("g2", "f4", "c3", "c4", "c5"):
        for char in (0, *TABLES[name][1]):
            yield pytest.param(name, char, id=f"{name}-char{char}")


@pytest.mark.parametrize("name, char", _lift_cases())
def test_memoized_centrality_matches_full_list(name, char):
    """``is_central_u`` serves its verdict from the table's memo on a second
    call, and both equal the unmemoized full-list reference: on one lift of
    every family element of the nilradical, symmetrized where the
    characteristic allows and naive otherwise, and on a central lift with
    one changed degree-1 term, which must fail."""
    field = GF(char) if char else QQ
    t = liealg.nilradical_table(_fresh(TABLES[name][0]))
    gens = t.nilradical
    lifts = []
    for f in invariants.build_family(t).elements(field).values():
        lifts.append(symmetrize(t, f) if not char or f.total_degree() < char else naive_lift(f))
    central = next(z for z in lifts if is_central_u(t, z, gens)[0])
    _, j = next(key for key in sorted(t.brackets) if set(key) <= set(gens))
    lifts.append(central + PBWElement.monomial(t.registry, field, ((j, 1),)))
    for lift in lifts:
        first = is_central_u(t, lift, gens)
        assert is_central_u(t, lift, gens) is first
        assert first == reference_is_central_u(t, lift, gens)
    assert not first[0]


@pytest.mark.parametrize(
    "name, level, kept, total",
    [
        ("g2", "nil", 2, 6), ("g2", "borel", 4, 8),
        ("f4", "nil", 4, 24), ("f4", "borel", 8, 28),
        ("c5", "nil", 5, 25), ("c5", "borel", 10, 30),
    ],
)
def test_catalog_generating_set_sizes(name, level, kept, total):
    borel = _fresh(TABLES[name][0])
    t, gens = (borel, tuple(range(borel.dim))) if level == "borel" else (borel, borel.nilradical)
    got = lie_generators(t, gens, 0)
    assert (len(got), len(gens)) == (kept, total)
    assert set(got) <= set(gens) and list(got) == sorted(got, key=list(gens).index)
    assert lie_generators(t, gens, 0) is got  # memoized


def test_subset_is_chosen_in_the_run_characteristic(g2b):
    # [x1, x3] = 3*x5 and [x2, x3] = 3*x6 vanish mod 3, so [n, n] shrinks
    # and x5 must be kept: 3 of 6 over GF(3) against 2 of 6 over QQ
    data = table_to_dict(g2b)
    data["excluded_primes"] = [2]
    nil = liealg.nilradical_table(liealg.table_from_dict(data))
    over_q = lie_generators(nil, nil.nilradical, 0)
    over_3 = lie_generators(nil, nil.nilradical, 3)
    assert [nil.label(i) for i in over_q] == ["x1", "x4"]
    assert [nil.label(i) for i in over_3] == ["x1", "x4", "x5"]
    for d in (1, 2, 3):
        want = reference_invariant_space(nil, d, nil.nilradical, GF(3))
        assert brute_force_invariant_space(nil, d, nil.nilradical, GF(3)) == len(want)
        assert reference_oracle_basis(nil, d, nil.nilradical, GF(3)) == want


def test_non_coordinate_bracket_fails_the_closure_check(tmp_path):
    # [y1, y2] = y1 + y2: y1 spans a complement of [n, n] but generates
    # nothing more, so the full list is kept, and y1 is not invariant
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "name": "affine-line",
        "basis": ["y1", "y2"],
        "cartan": [],
        "brackets": [{"lhs": "y1", "rhs": "y2", "value": [["1", "y1"], ["1", "y2"]]}],
    }))
    t = liealg.load_table(str(path))
    assert lie_generators(t, t.nilradical, 0) == t.nilradical
    y1 = Polynomial.variable(t.registry, QQ, "y1")
    assert is_invariant(t, y1, t.nilradical) == (False, 1)
    assert brute_force_invariant_space(t, 1, t.nilradical, QQ) == 0
    assert reference_oracle_basis(t, 1, t.nilradical, QQ) == []


def test_jacobi_breaking_table_keeps_the_full_list(g2b):
    # ad is a Lie homomorphism only when the Jacobi identity holds
    bad = with_bracket(g2b, "x1", "x3", "-3*x5")
    assert not liealg.jacobi_check(bad).ok
    assert lie_generators(bad, bad.nilradical, 0) == bad.nilradical
    assert lie_generators(g2b, g2b.nilradical, 0) != g2b.nilradical
