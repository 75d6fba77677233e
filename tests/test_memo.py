"""The per-table memo (``StructureTable.memo``) against fresh computation.

Oracle dimensions, symmetrized lifts, Poisson-invariance verdicts, Cartan
eigenvalues, the derived multigrading and the Jacobi report are computed
once per table (``liealg.per_table``); a result served from a warm memo
must equal the one a newly built table computes.
Each builder in ``CASES`` returns a new table, with an empty memo, on every
call: ``nilradical_table`` and ``cn_borel`` build one each time, unlike the
cached ``g2_borel`` and ``f4_borel``.
"""

import pytest

from liecenter import charp, invariants, liealg, poisson
from liecenter.exactalg import GF, QQ, Polynomial
from liecenter.invariants import brute_force_invariant_space
from liecenter.pbw import CharacteristicObstruction, symmetrize, z_lift_audit

from conftest import reference_oracle_basis, save_table, with_bracket

# algebra -> (new-table builder, admissible prime, highest oracle degree)
CASES = {
    "g2-nil": (lambda: liealg.nilradical_table(liealg.g2_borel()), 5, 3),
    "f4-nil": (lambda: liealg.nilradical_table(liealg.f4_borel()), 3, 3),
    "c3-borel": (lambda: liealg.cn_borel(3), 5, 2),
}


# Each test keeps one warm table across both fields, so that a memo key
# missing the field, the degree or the polynomial would serve a wrong entry;
# every reference is computed on a table of its own.
@pytest.mark.parametrize("name", CASES)
def test_oracle_space_memo_matches_fresh_table(name):
    build, p, top = CASES[name]
    warm = build()
    for field in (QQ, GF(p)):
        for d in range(1, top + 1):
            first = brute_force_invariant_space(warm, d, warm.nilradical, field)
            again = brute_force_invariant_space(warm, d, warm.nilradical, field)
            assert again == first and type(first) is int
            assert warm.memo[("oracle", field.characteristic, d, tuple(warm.nilradical))] == first
            fresh = build()
            assert again == brute_force_invariant_space(fresh, d, fresh.nilradical, field)
            assert again == len(reference_oracle_basis(build(), d, fresh.nilradical, field))


@pytest.mark.parametrize("name", CASES)
def test_symmetrize_memo_matches_fresh_table(name):
    build, p, _ = CASES[name]
    warm = build()
    warm_fam = invariants.build_family(warm)
    lifted = 0
    for field in (QQ, GF(p)):
        for elt in sorted(warm_fam.elements(field)):
            f = warm_fam.element(elt, field)
            try:
                first = symmetrize(warm, f)
            except CharacteristicObstruction:
                continue
            assert symmetrize(warm, f) is first
            fresh = build()
            assert first == symmetrize(fresh, invariants.build_family(fresh).element(elt, field))
            lifted += 1
    assert lifted >= 4


@pytest.mark.parametrize("name", CASES)
def test_invariance_verdict_memo_matches_fresh_table(name, monkeypatch):
    build, p, _ = CASES[name]
    warm, fresh = build(), build()
    warm_fam, fresh_fam = invariants.build_family(warm), invariants.build_family(fresh)
    calls = []
    ad_apply = poisson.ad_apply
    monkeypatch.setattr(poisson, "ad_apply", lambda *args: calls.append(args) or ad_apply(*args))
    verdicts = set()
    for field in (QQ, GF(p)):
        for elt in sorted(warm_fam.elements(field)):
            f = warm_fam.element(elt, field)
            for gens in (warm.nilradical, range(warm.dim)):
                first = poisson.is_invariant(warm, f, gens)
                calls.clear()
                assert poisson.is_invariant(warm, f, gens) is first
                assert not calls  # served from the memo
                assert warm.memo[("invariant", f, tuple(gens))] is first
                assert first == poisson.is_invariant(fresh, fresh_fam.element(elt, field), gens)
                verdicts.add(first[0])
    assert verdicts == {True, False}


def new_g2_borel():
    t = liealg.g2_borel()
    return liealg.StructureTable(t.name, t.registry, t.brackets, t.cartan, t.nilradical, t.excluded_primes)


# Borel tables for the Cartan eigenvalues: (new-table builder, admissible prime)
BORELS = {"g2-borel": (new_g2_borel, 5), "c3-borel": (lambda: liealg.cn_borel(3), 5)}


@pytest.mark.parametrize("name", BORELS)
def test_cartan_eigenvalue_memo_matches_fresh_table(name, monkeypatch):
    # the family's elements are weight vectors; the sum of the first two
    # nilradical generators, of different weights, is no eigenvector
    build, p = BORELS[name]
    warm, fresh = build(), build()
    warm_fam, fresh_fam = invariants.build_family(warm), invariants.build_family(fresh)
    calls = []
    ad_apply = poisson.ad_apply
    monkeypatch.setattr(poisson, "ad_apply", lambda *args: calls.append(args) or ad_apply(*args))
    a, b = warm.nilradical[:2]
    lambdas = set()
    for field in (QQ, GF(p)):
        mixed = Polynomial.variable(warm.registry, field, a) + Polynomial.variable(warm.registry, field, b)
        cases = [(warm_fam.element(elt, field), fresh_fam.element(elt, field)) for elt in sorted(warm_fam.elements(field))]
        for f, g in cases + [(mixed, mixed)]:
            for k in warm.cartan:
                first = poisson.cartan_eigenvalue(warm, k, f)
                calls.clear()
                # a warm call, by index or by label, is one memo entry
                assert poisson.cartan_eigenvalue(warm, k, f) is first
                assert poisson.cartan_eigenvalue(warm, warm.label(k), f) is first
                assert not calls
                assert warm.memo[("eigenvalue", k, f)] is first
                assert first == poisson.cartan_eigenvalue(fresh, fresh.label(k), g)
                lambdas.add(first is None)
    assert lambdas == {True, False}


@pytest.mark.parametrize("name,char", [("g2-nil", 0), ("g2-nil", 5), ("c3-borel", 0), ("c3-borel", 5)])
def test_audit_after_oracle_and_lifts_matches_fresh_table(name, char):
    build, _, _ = CASES[name]
    warm, fresh = build(), build()
    field = GF(char) if char else QQ
    warm_fam = invariants.build_family(warm)
    degrees = range(1, invariants.oracle_degree(warm) + 1)
    invariants.oracle_suite(warm, charp.invariant_generators(warm, warm_fam, field), degrees, field)
    z_lift_audit(warm, warm_fam, field)
    claims = charp.theorem_generator_audit(warm, warm_fam, char)
    assert claims == charp.theorem_generator_audit(fresh, invariants.build_family(fresh), char)
    assert all(c.passed for c in claims)


def test_jacobi_report_is_computed_once_per_table(tmp_path):
    nil = CASES["f4-nil"][0]()
    report = liealg.jacobi_check(nil)
    assert report.ok and report.triples_checked == 2024
    assert liealg.jacobi_check(nil) is report
    # the oracle's generating set reads the memoized report
    assert liealg.lie_generators(nil, nil.nilradical, 0) != nil.nilradical
    assert liealg.jacobi_check(nil) is report
    # a table file or a corrections overlay is a new table, checked afresh
    g2b = liealg.g2_borel()
    path = tmp_path / "table.json"
    save_table(with_bracket(g2b, "x1", "x3", "-3*x5"), path)
    loaded = liealg.load_table(str(path))
    assert not liealg.jacobi_check(loaded).ok
    assert liealg.jacobi_check(g2b).ok
    same = liealg.apply_corrections(g2b, [{"lhs": "x1", "rhs": "x3", "value": "3*x5"}])
    assert liealg.jacobi_check(same) is not liealg.jacobi_check(g2b)
    assert liealg.jacobi_check(same) == liealg.jacobi_check(g2b)


def test_multigrading_is_derived_once_per_table():
    t = CASES["c3-borel"][0]()
    first = invariants.derive_multigrading(t)
    assert invariants.derive_multigrading(t) == first
    assert type(first) is tuple  # no caller can alter the memo
    assert invariants.derive_multigrading(t) == invariants.derive_multigrading(CASES["c3-borel"][0]())
    assert len(invariants.derive_multigrading(t)) == 3
