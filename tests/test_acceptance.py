"""Acceptance suite: every release criterion, each printing one line.

All comparisons are exact (canonical-form equality over Q or F_p); the only
numeric bounds are the wall-clock budgets stated per criterion.
"""

import random
import time

from liecenter import charp, invariants, liealg, pbw, poisson
from liecenter.exactalg import GF, MONO_ONE, QQ, parse_polynomial
from liecenter.invariants import brute_force_invariant_space, compare_with_generated

from conftest import nonzero_bracket_items, with_bracket

G2_PRIMES = (5, 7)
F4_PRIMES = (3, 5)
CN_PRIMES = (3, 5)


def report_line(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_jacobi_suites(g2b, f4b):
    start = time.monotonic()
    g2_rep = liealg.jacobi_check(g2b)
    f4_rep = liealg.jacobi_check(f4b)
    ok = (
        g2_rep.ok
        and g2_rep.triples_checked == 56
        and f4_rep.ok
        and f4_rep.triples_checked == 3276
        and not g2b.corrections
        and not f4b.corrections
    )
    for n in (2, 3, 4):
        t = liealg.cn_borel(n)
        rep = liealg.jacobi_check(t)
        ok = ok and rep.ok and not t.corrections
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report_line(
        1,
        ok,
        f"Jacobi: G2 56 and F4 3276 triples pass with zero corrections, "
        f"Cn (n=2,3,4) derived tables pass ({elapsed:.1f}s < 60s)",
    )


def test_criterion_02_invariance(g2n, g2n_fam, f4n, f4n_fam):
    total = 0
    ok = True
    jobs = [(g2n, g2n_fam, 12, (0,) + G2_PRIMES), (f4n, f4n_fam, 96, (0,) + F4_PRIMES)]
    for n in (2, 3, 4):
        t = liealg.cn_borel(n)
        jobs.append((t, invariants.cn_invariants(t), n**3, (0,) + CN_PRIMES))
    for table, fam, expected, chars in jobs:
        for char in chars:
            field = QQ if char == 0 else GF(char)
            claims = invariants.invariance_suite(table, fam, field)
            ok = ok and len(claims) == expected and all(c.passed for c in claims)
            total += len(claims)
    report_line(2, ok, f"invariance: {total} exact checks over Q and the test primes, zero failures")


def test_criterion_03_chains_and_triangle(g2n, g2n_fam, f4b, f4b_fam, f4n, f4n_fam):
    chain_b = invariants.verify_relation_chain(f4b, f4b_fam)
    tri_f4 = invariants.verify_triangle_property(f4n, f4n_fam)
    tri_g2 = invariants.verify_triangle_property(g2n, g2n_fam)
    ok = (
        len(chain_b) == 225
        and all(c.passed for c in chain_b)
        and len(tri_f4) == 210
        and all(c.passed for c in tri_f4)
        and len(tri_g2) == 10
        and all(c.passed for c in tri_g2)
    )
    noted = [c.claim_id for c in chain_b if c.status == "derived-with-note"]
    ok = ok and noted == ["f4-borel.chain.u6.x3"]
    report_line(
        3,
        ok,
        "relation chains (incl. all zero complements) and the triangle "
        "property: 225 + 210 + 10 exact identities",
    )


def test_criterion_04_weight_audit(g2b, g2b_fam, f4b, f4b_fam):
    g2_claims = poisson.semicenter_witness_suite(g2b, g2b_fam, QQ)
    f4_claims = poisson.semicenter_witness_suite(f4b, f4b_fam, QQ)
    g2_noted = [c for c in g2_claims if c.status == "derived-with-note"]
    ok = (
        all(c.passed for c in g2_claims)
        and all(c.passed for c in f4_claims)
        and [c.claim_id for c in g2_noted] == ["g2-borel.weights.c2.h2"]
        and all(c.status == "verified" for c in f4_claims)
    )
    # the F4 pairings with the stated eigenvalues
    for name, h, lam in (("c2", "h4", 2), ("c3", "h3", 2), ("c4", "h2", 2)):
        got = poisson.cartan_eigenvalue(f4b, h, f4b_fam.element(name))
        ok = ok and got == lam
    report_line(
        4,
        ok,
        "weight audit: all stated equations hold; the single discrepancy "
        "(eigenvalue of c2 under h2 for G2: derived -2 vs printed -1) is noted",
    )


def test_criterion_05_frobenius_p_center(g2b, g2n, g2n_fam, f4b, f4n, f4n_fam):
    start = time.monotonic()
    ok = True
    jobs = [(g2n, g2n_fam, G2_PRIMES), (f4n, f4n_fam, F4_PRIMES)]
    for n in (2, 3):
        t = liealg.cn_borel(n)
        nil = liealg.nilradical_table(t)
        jobs.append((nil, invariants.cn_invariants(nil), CN_PRIMES))
    for table, fam, primes in jobs:
        for p in primes:
            claims = charp.frobenius_membership_suite(table, fam, p)
            ok = ok and all(c.passed for c in claims)
            names = {c.claim_id.rsplit(".", 1)[-1] for c in claims}
            ok = ok and "non-member" in {c.claim_id.rsplit(".", 1)[-1] for c in claims}
            witnesses = [
                c for c in claims if c.claim_id.endswith("non-member")
            ]
            ok = ok and all(c.witness for c in witnesses)
            ok = ok and len(witnesses) == len(fam.central) - 1
    # matrix split identities for every generator of every Borel at its primes
    for borel, primes in ((g2b, G2_PRIMES), (f4b, F4_PRIMES)):
        for p in primes:
            for i in range(borel.dim):
                ok = ok and liealg.ad_power_identity(borel, i, p).ok
    for n in (2, 3):
        t = liealg.cn_borel(n)
        for p in CN_PRIMES:
            for i in range(t.dim):
                ok = ok and liealg.ad_power_identity(t, i, p).ok
    # full enveloping-algebra p-center for G2 at p = 5
    claims = pbw.p_center_suite(g2b, 5)
    ok = ok and len(claims) == 72 and all(c.passed for c in claims)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    report_line(
        5,
        ok,
        f"Frobenius membership with witnesses, ad-power identities, and the "
        f"full U(B) p-center for G2 at p=5 ({elapsed:.1f}s < 300s)",
    )


def test_criterion_06_jacobian_identities(g2n, g2n_fam, f4n, f4n_fam):
    f4_claims = charp.jacobian_identity_suite(f4n, f4n_fam, 3)
    g2_claims = charp.jacobian_identity_suite(g2n, g2n_fam, 5)
    det_claims = [c for c in f4_claims if ".det." in c.claim_id and not c.claim_id.endswith(".f3")]
    ok = (
        len(det_claims) == 4
        and all(c.passed for c in f4_claims)
        and all(c.note and c.note.startswith("sign") for c in det_claims)
        and all(c.passed for c in g2_claims)
    )
    partials = {c.claim_id.rsplit(".", 1)[-1]: c for c in g2_claims if ".partial." in c.claim_id and not c.claim_id.endswith(".f5")}
    ok = ok and partials["x1"].status == "verified" and partials["x2"].status == "derived-with-note"
    report_line(
        6,
        ok,
        "the four determinant identities hold with one recorded sign each "
        "(shadow and F_3), and the two partial-derivative patterns hold up to sign",
    )


def test_criterion_07_oracle_equivalence(g2n, g2n_fam, f4n, f4n_fam):
    start = time.monotonic()
    ok = True
    dims = {}

    def profile(table, fam_gens, degrees, field):
        out = []
        for d in degrees:
            basis = brute_force_invariant_space(table, d, table.nilradical, field)
            res = compare_with_generated(table, basis, fam_gens, d, field)
            out.append(res["oracle_dim"])
            if not res["equal"]:
                raise AssertionError(f"span mismatch at degree {d}: {res}")
        return out

    g2_gens = [(n, g2n_fam.element(n)) for n in g2n_fam.central]
    dims["g2"] = profile(g2n, g2_gens, range(1, 7), QQ)
    ok = ok and dims["g2"] == [1, 2, 2, 3, 3, 4]

    f4_gens = [(n, f4n_fam.element(n)) for n in f4n_fam.central]
    dims["f4"] = profile(f4n, f4_gens, range(1, 5), QQ)
    ok = ok and dims["f4"] == [1, 2, 2, 4]

    c2t = liealg.cn_borel(2)
    c2n = liealg.nilradical_table(c2t)
    c2fam = invariants.cn_invariants(c2n)
    c2_gens = [(n, c2fam.element(n)) for n in c2fam.central]
    dims["c2"] = profile(c2n, c2_gens, range(1, 3), QQ)
    ok = ok and dims["c2"] == [1, 2]

    field = GF(5)
    pgens = charp.sp_generators(g2n, 5) + [("c2", g2n_fam.element("c2", field))]
    dims["g2f5"] = profile(g2n, pgens, (5, 6), field)
    ok = ok and dims["g2f5"] == [8, 9]  # the five x^5 powers enter at degree 5

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600
    report_line(
        7,
        ok,
        f"oracle spans equal generated spans: G2 {dims['g2']}, F4 {dims['f4']}, "
        f"C2 {dims['c2']}, G2/F5 deg 5-6 {dims['g2f5']} ({elapsed:.1f}s < 600s)",
    )


def test_criterion_08_pbw(g2n, g2n_fam, f4n, f4n_fam):
    ok = True
    # G2: z2 central in characteristic zero
    z2 = pbw.symmetrize(g2n, g2n_fam.element("c2"))
    central, _ = pbw.is_central_u(g2n, z2, g2n.nilradical)
    ok = ok and central and pbw.gr_leading(z2) == g2n_fam.element("c2")

    # F4: symmetrized lifts; centrality required for c1, c2 and the computed
    # verdicts recorded for c3, c4 (they are central; the naive lifts are not)
    verdicts = {}
    for name in ("c1", "c2", "c3", "c4"):
        c = f4n_fam.element(name)
        z = pbw.symmetrize(f4n, c)
        is_c, _ = pbw.is_central_u(f4n, z, f4n.nilradical)
        naive_c, _ = pbw.is_central_u(f4n, pbw.naive_lift(c), f4n.nilradical)
        verdicts[name] = (is_c, naive_c)
        ok = ok and pbw.gr_leading(z) == c
    ok = ok and verdicts["c1"][0] and verdicts["c2"][0]
    ok = ok and verdicts["c3"] == (True, False) and verdicts["c4"] == (True, False)

    audit = pbw.z_lift_audit(f4n, f4n_fam, QQ)
    ok = ok and all(c.passed for c in audit)
    recorded = [c for c in audit if c.claim_id.endswith(".naive")]
    ok = ok and len(recorded) == 4 and all(c.note for c in recorded)

    # confluence: 100 randomized rewriting orders agree with the fast path
    rng = random.Random(2024)
    for _ in range(100):
        k = rng.randint(2, 4)
        word = tuple(rng.randrange(g2n.dim) for _ in range(k))
        randomized = pbw.straighten_word(g2n, QQ, word, rng=rng)
        fast = pbw.PBWElement.monomial(g2n.registry, QQ, MONO_ONE)
        for letter in word:
            fast = pbw.pbw_mul(g2n, fast, pbw.PBWElement.variable(g2n.registry, QQ, letter))
        ok = ok and randomized == fast.terms
    report_line(
        8,
        ok,
        "PBW: z2 central (G2, char 0); all four F4 symmetrized lifts central "
        "with gr(z_i) = c_i, naive-lift verdicts recorded (c3, c4 not central); "
        "confluence over 100 randomized products",
    )


AUDIT_MATRIX = (
    ("g2", (0,) + G2_PRIMES),
    ("f4", (0,) + F4_PRIMES),
    ("c2", (0,) + CN_PRIMES),
    ("c3", (0,) + CN_PRIMES),
)


def test_criterion_09_theorem_audits(g2b, g2n, f4b, f4n):
    tables = {
        "g2": (g2n, g2b),
        "f4": (f4n, f4b),
        "c2": None,
        "c3": None,
    }
    for n in (2, 3):
        t = liealg.cn_borel(n)
        tables[f"c{n}"] = (liealg.nilradical_table(t), t)
    ok = True
    audits = 0
    for key, chars in AUDIT_MATRIX:
        nil, borel = tables[key]
        nil_fam = invariants.build_family(nil)
        borel_fam = invariants.build_family(borel)
        for char in chars:
            for table, fam, expected_asserted in (
                (nil, nil_fam, 2),
                (borel, borel_fam, 4),
            ):
                claims = charp.theorem_generator_audit(table, fam, char)
                audits += 1
                ok = ok and all(c.passed for c in claims)
                asserted = sorted(
                    c.claim_id for c in claims if c.status == "asserted-not-verified"
                )
                expected_ids = sorted(
                    f"{table.name}.audit.{ring}.char{char}.generation"
                    for ring in (
                        ("poisson-center", "u-center")
                        if not table.cartan
                        else ("poisson-center", "semicenter", "u-center", "u-semicenter")
                    )
                )
                ok = ok and asserted == expected_ids and len(asserted) == expected_asserted
    report_line(
        9,
        ok,
        f"theorem audits: {audits} audits across the test matrix; every "
        "generator verifies its defining property; the asserted-not-verified "
        "set is exactly the generation-in-all-degrees claims",
    )


def test_criterion_10_mutations(g2b):
    ok = True
    caught = 0
    items = nonzero_bracket_items(g2b)
    for lhs, rhs, value in items:
        negated = str(-parse_polynomial(g2b.registry, QQ, value))
        mutated = with_bracket(g2b, lhs, rhs, negated)
        witnesses = []
        jac = liealg.jacobi_check(mutated)
        if not jac.ok:
            witnesses.append(f"jacobi:{jac.failures[0].triple}")
        fam = invariants.g2_invariants(mutated)
        for claim in invariants.invariance_suite(mutated, fam, QQ):
            if not claim.passed:
                witnesses.append(f"invariance:{claim.claim_id}:{claim.residual}")
                break
        for claim in invariants.verify_triangle_property(mutated, fam, QQ):
            if not claim.passed:
                witnesses.append(f"triangle:{claim.claim_id}:{claim.residual}")
                break
        ok = ok and bool(witnesses)
        caught += bool(witnesses)
    report_line(
        10,
        ok and caught == len(items),
        f"mutations: flipping each of the {len(items)} structure constants is "
        "caught by Jacobi, invariance or the triangle property with a witness",
    )
