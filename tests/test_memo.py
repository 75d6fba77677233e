"""The per-table memo (``StructureTable.memo``) against fresh computation.

Oracle spaces and symmetrized lifts are computed once per table; a result
served from a warm memo must equal the one a newly built table computes.
Each builder in ``CASES`` returns a new table, with an empty memo, on every
call: ``nilradical_table`` and ``cn_borel`` build one each time, unlike the
cached ``g2_borel`` and ``f4_borel``.
"""

import pytest

from liecenter import charp, invariants, liealg
from liecenter.exactalg import GF, QQ
from liecenter.invariants import OracleCapExceeded, brute_force_invariant_space
from liecenter.pbw import CharacteristicObstruction, symmetrize, z_lift_audit

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
            assert len(again) == len(first) and all(a is b for a, b in zip(again, first))
            fresh = build()
            assert again == brute_force_invariant_space(fresh, d, fresh.nilradical, field)


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


def test_smaller_cap_still_raises_after_default_solve():
    t = CASES["g2-nil"][0]()
    assert brute_force_invariant_space(t, 3, t.nilradical, QQ)
    with pytest.raises(OracleCapExceeded):
        brute_force_invariant_space(t, 3, t.nilradical, QQ, max_entries=100)


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
