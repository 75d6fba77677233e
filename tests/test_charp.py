import dataclasses

import pytest

import conftest
from liecenter import invariants, liealg
from liecenter.charp import (
    c1_label,
    central_lift,
    frobenius_membership_suite,
    jacobian_identity_suite,
    sp_generators,
    theorem_generator_audit,
)
from liecenter.exactalg import GF, QQ, Polynomial, frobenius_expand, parse_polynomial
from liecenter.invariants import catalog_entry
from liecenter.pbw import gr_leading, is_central_u

from conftest import (
    reference_f4_layered_claims,
    reference_f4_layers,
    reference_jacobian_identity_suite,
    reference_partial_wrt_ppower,
    reference_stretch_exponents,
)

PRIMES = (3, 5, 7)


def nil_family(request, family):
    """The nilradical table and invariant family of g2, f4 or c<n>."""
    if family.startswith("c"):
        t = liealg.nilradical_table(liealg.cn_borel(int(family[1:])))
        return t, invariants.cn_invariants(t)
    return request.getfixturevalue(f"{family}n"), request.getfixturevalue(f"{family}n_fam")


def admissible(t):
    primes = [p for p in PRIMES if invariants.inadmissible_reason(t, p) is None]
    assert primes
    return primes


def outcome(partial, f, v, p):
    try:
        return partial(f, v, p)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestGeneratorSets:
    def test_counts(self, g2b, g2n, f4b, f4n):
        assert len(sp_generators(g2n, 5)) == 6
        assert len(sp_generators(g2b, 5)) == 8
        assert len(sp_generators(f4n, 3)) == 24
        assert len(sp_generators(f4b, 3)) == 28

    @pytest.mark.parametrize("n", [2, 3])
    def test_cn_counts(self, n):
        t = liealg.cn_borel(n)
        assert len(sp_generators(t, 3)) == n * n + n

    def test_g2_entries(self, g2n):
        gs = sp_generators(g2n, 5)
        names = [name for name, _ in gs]
        assert names == ["x1^5", "x2^5", "x3^5", "x4^5", "x5^5", "x6"]
        polys = dict(gs)
        x1, x6 = (Polynomial.variable(g2n.registry, GF(5), v) for v in ("x1", "x6"))
        assert polys["x6"] == x6
        assert polys["x1^5"] == x1**5

    def test_inadmissible_primes(self, g2n, f4n):
        with pytest.raises(ValueError):
            sp_generators(f4n, 2)
        with pytest.raises(ValueError):
            sp_generators(g2n, 3)

    def test_payload_polynomials(self, g2n):
        polys = dict(sp_generators(g2n, 5))
        assert polys["x1^5"] == parse_polynomial(g2n.registry, GF(5), "x1^5")
        assert polys["x6"] == parse_polynomial(g2n.registry, GF(5), "x6")

    def test_c1_labels(self, g2b, f4b, c2b, c3b):
        for borel, label in ((g2b, "x6"), (f4b, "x24"), (c2b, "b1"), (c3b, "b1")):
            nil = liealg.nilradical_table(borel)
            assert catalog_entry(nil) is catalog_entry(borel) is not None
            assert c1_label(borel) == c1_label(nil) == label


class TestFrobeniusMembership:
    def test_g2_p5(self, g2n, g2n_fam):
        claims = frobenius_membership_suite(g2n, g2n_fam, 5)
        assert all(c.passed for c in claims)
        by_id = {c.claim_id: c for c in claims}
        assert by_id["g2-nil.frobenius.p5.c2.non-member"].witness == "x1*x6"

    def test_f4_p3_witness(self, f4n, f4n_fam):
        claims = frobenius_membership_suite(f4n, f4n_fam, 3)
        assert all(c.passed for c in claims)
        by_id = {c.claim_id: c for c in claims}
        assert by_id["f4-nil.frobenius.p3.c2.non-member"].witness == "x16*x24"
        assert "f4-nil.frobenius.p3.c3p-layered" in by_id
        assert "f4-nil.frobenius.p3.c4p-layered" in by_id

    @pytest.mark.parametrize("p", [3, 5])
    def test_f4_layered(self, f4n, f4n_fam, p):
        claims = frobenius_membership_suite(f4n, f4n_fam, p)
        assert all(c.passed for c in claims)

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3)])
    def test_cn(self, n, p):
        t = liealg.cn_borel(n)
        nil = liealg.nilradical_table(t)
        fam = invariants.cn_invariants(nil)
        claims = frobenius_membership_suite(nil, fam, p)
        assert all(c.passed for c in claims)


class TestPPowerCalculus:
    def test_partial_wrt_ppower(self, g2n):
        field = GF(5)
        f = parse_polynomial(g2n.registry, field, "2*x1^10*x2^5 + x3^5")
        got = f.partial("x1", 5)
        assert got == parse_polynomial(g2n.registry, field, "4*x1^5*x2^5")
        assert got == reference_partial_wrt_ppower(f, "x1", 5)

    def test_partial_requires_divisible_exponent(self, g2n):
        f = parse_polynomial(g2n.registry, QQ, "x1^3")
        with pytest.raises(ValueError, match="exponent 3 of x1 is not divisible by 5"):
            f.partial("x1", 5)

    @pytest.mark.parametrize("family", ["g2", "f4", "c3", "c4", "c5"])
    def test_partial_matches_the_reference(self, request, family):
        # on the Frobenius expansion every exponent is p-divisible; on the
        # element itself some are not, and both must raise there
        t, fam = nil_family(request, family)
        raised = 0
        for p in admissible(t):
            field = GF(p)
            for f in fam.elements(field).values():
                fp = frobenius_expand(f, p)
                for v in range(t.dim):
                    assert fp.partial(v, p) == reference_partial_wrt_ppower(fp, v, p)
                    got = outcome(Polynomial.partial, f, v, p)
                    assert got == outcome(reference_partial_wrt_ppower, f, v, p)
                    raised += isinstance(got, str)
        assert raised

    def test_frobenius_of_the_reduction_is_the_stretch(self, f4n, f4n_fam):
        # c^p = c in GF(p), so expanding the reduced Q-polynomial stretches it
        for p in admissible(f4n):
            field = GF(p)
            for name, f in f4n_fam.elements().items():
                reduced = f4n_fam.element(name, field)
                assert frobenius_expand(reduced, p) == reference_stretch_exponents(f, p, field)


class TestJacobianIdentities:
    def test_f4_all_four_with_printed_signs(self, f4n, f4n_fam):
        claims = jacobian_identity_suite(f4n, f4n_fam, 3)
        assert len(claims) == 8  # four identities, each with an F_3 instantiation
        assert all(c.passed for c in claims)
        det_claims = [c for c in claims if not c.claim_id.endswith(".f3")]
        assert all(c.note == "sign +1" for c in det_claims)

    def test_g2_partials(self, g2n, g2n_fam):
        claims = jacobian_identity_suite(g2n, g2n_fam, 5)
        by_id = {c.claim_id: c for c in claims}
        assert by_id["g2-nil.jacobians.partial.x1"].status == "verified"
        assert by_id["g2-nil.jacobians.partial.x2"].status == "derived-with-note"
        assert all(c.passed for c in claims)

    def test_raw_g2_partial_values(self, g2n, g2n_fam):
        c2 = g2n_fam.element("c2")
        assert c2.partial("x1") == parse_polynomial(g2n.registry, QQ, "3*x6")
        assert c2.partial("x2") == parse_polynomial(g2n.registry, QQ, "-3*x5")


class TestJacobiansAgainstTheReference:
    """One loop over the family's record against one branch per family."""

    @pytest.mark.parametrize("level", ["n", "b"])
    @pytest.mark.parametrize("family", ["g2", "f4"])
    def test_claims_equal_the_reference(self, request, family, level):
        t = request.getfixturevalue(f"{family}{level}")
        fam = request.getfixturevalue(f"{family}{level}_fam")
        for p in admissible(t):
            claims = jacobian_identity_suite(t, fam, p)
            assert claims and all(c.passed for c in claims)
            assert claims == reference_jacobian_identity_suite(t, fam, p)

    @staticmethod
    def compare_failures(t, fam, p, family, side):
        """Both suites fail the same claims; G2's residuals differ only as
        recorded: the Q-side one is negated, and the GF(p) one exists."""
        claims = jacobian_identity_suite(t, fam, p)
        ref = reference_jacobian_identity_suite(t, fam, p)
        failed = [c.claim_id for c in claims if not c.passed]
        assert failed and failed == [c.claim_id for c in ref if not c.passed]
        assert all(c.claim_id.endswith(f".f{p}") == (side == "gf") for c in claims if not c.passed)
        for new, old in zip(claims, ref):
            if family == "g2" and not new.passed:
                if side == "q":
                    negated = -parse_polynomial(t.registry, QQ, old.residual)
                    assert new.residual != old.residual
                    assert parse_polynomial(t.registry, QQ, new.residual) == negated
                else:
                    assert old.residual is None and new.residual
                new = dataclasses.replace(new, residual=old.residual)
            assert new == old

    @pytest.mark.parametrize("family,p", [("g2", 5), ("f4", 3)])
    def test_a_changed_stated_coefficient(self, request, monkeypatch, family, p):
        t, fam = nil_family(request, family)
        (vars_, _, factors), *rest = fam.jacobians.identities
        fam = dataclasses.replace(
            fam,
            jacobians=dataclasses.replace(fam.jacobians, identities=((vars_, "7", factors), *rest)),
        )
        if family == "f4":
            _, *ref_rest = conftest.REFERENCE_F4_JACOBIANS
            monkeypatch.setattr(conftest, "REFERENCE_F4_JACOBIANS", ((vars_, "7", factors), *ref_rest))
        else:
            _, *ref_rest = conftest.REFERENCE_G2_PARTIALS
            monkeypatch.setattr(conftest, "REFERENCE_G2_PARTIALS", (("x1", "7*x6"), *ref_rest))
        self.compare_failures(t, fam, p, family, "q")

    @pytest.mark.parametrize("family,p", [("g2", 5), ("f4", 3)])
    def test_a_changed_coefficient_over_gf_p(self, request, family, p):
        # c2 over GF(p) with one coefficient changed, the Q elements kept
        t, fam = nil_family(request, family)
        field = GF(p)
        elements = dict(fam.elements(field))
        mono = min(elements["c2"].terms)
        elements["c2"] = elements["c2"] + Polynomial(t.registry, field, {mono: 1})
        mutated = dataclasses.replace(fam, _cache={0: fam.elements(), p: elements})
        self.compare_failures(t, mutated, p, family, "gf")


class TestLayersAgainstTheReference:
    """The layer records, composed and checked generically, against c3 and
    c4 written out by hand."""

    @staticmethod
    def claims_and_reference(t, fam, p):
        central = frobenius_membership_suite(t, dataclasses.replace(fam, layers=()), p)
        F = lambda name: frobenius_expand(fam.element(name, GF(p)), p)
        return frobenius_membership_suite(t, fam, p), central + reference_f4_layered_claims(t, F, p)

    @pytest.mark.parametrize("level", ["n", "b"])
    def test_claims_equal_the_reference(self, request, level):
        t = request.getfixturevalue(f"f4{level}")
        fam = request.getfixturevalue(f"f4{level}_fam")
        for p in admissible(t):
            claims, expected = self.claims_and_reference(t, fam, p)
            assert all(c.passed for c in claims)
            assert claims == expected

    def test_composed_elements_equal_the_written_out_ones(self, f4n_fam):
        assert reference_f4_layers(f4n_fam.elements()) == (
            f4n_fam.element("c3"),
            f4n_fam.element("c4"),
        )

    @pytest.mark.parametrize("p", PRIMES)
    def test_a_changed_coefficient_over_gf_p(self, f4n, f4n_fam, p):
        # c3 over GF(p) with one coefficient changed, the Q elements kept
        field = GF(p)
        elements = dict(f4n_fam.elements(field))
        mono = min(elements["c3"].terms)
        elements["c3"] = elements["c3"] + Polynomial(f4n.registry, field, {mono: 1})
        mutated = dataclasses.replace(f4n_fam, _cache={0: f4n_fam.elements(), p: elements})
        claims, expected = self.claims_and_reference(f4n, mutated, p)
        by_id = {c.claim_id: c for c in claims}
        layered = by_id[f"f4-nil.frobenius.p{p}.c3p-layered"]
        assert not layered.passed and layered.residual
        assert claims == expected


class TestCentralLift:
    @pytest.mark.parametrize("p", [3, 5])
    def test_f4_c3_c4_reduced_lifts(self, f4n, f4n_fam, p):
        field = GF(p)
        for name in ("c3", "c4"):
            lifted, how = central_lift(f4n, f4n_fam, name, field)
            assert lifted is not None
            if field.characteristic <= f4n_fam.element(name).total_degree():
                assert "reduced mod" in how
            ok, _ = is_central_u(f4n, lifted, f4n.nilradical)
            assert ok
            assert gr_leading(lifted) == f4n_fam.element(name, field)

    def test_g2_symmetrized_directly(self, g2n, g2n_fam):
        lifted, how = central_lift(g2n, g2n_fam, "c2", GF(5))
        assert how == "symmetrized"
        ok, _ = is_central_u(g2n, lifted, g2n.nilradical)
        assert ok


class TestTheoremAudit:
    def test_g2_nil_char5(self, g2n, g2n_fam):
        claims = theorem_generator_audit(g2n, g2n_fam, 5)
        assert all(c.passed for c in claims)
        asserted = sorted(c.claim_id for c in claims if c.status == "asserted-not-verified")
        assert asserted == [
            "g2-nil.audit.poisson-center.char5.generation",
            "g2-nil.audit.u-center.char5.generation",
        ]

    def test_g2_borel_char5_asserted_set(self, g2b, g2b_fam):
        claims = theorem_generator_audit(g2b, g2b_fam, 5)
        assert all(c.passed for c in claims)
        asserted = sorted(c.claim_id for c in claims if c.status == "asserted-not-verified")
        assert asserted == [
            "g2-borel.audit.poisson-center.char5.generation",
            "g2-borel.audit.semicenter.char5.generation",
            "g2-borel.audit.u-center.char5.generation",
            "g2-borel.audit.u-semicenter.char5.generation",
        ]

    def test_g2_borel_char0(self, g2b, g2b_fam):
        claims = theorem_generator_audit(g2b, g2b_fam, 0)
        assert all(c.passed for c in claims)
        trivial = [c for c in claims if ".trivial." in c.claim_id]
        assert trivial and all(c.status == "verified" for c in trivial)

    def test_bracket_free_borel_reports_the_dimension(self, g2b):
        # with no brackets every polynomial is invariant: each triviality
        # claim fails with the dimension of the degree-d space, C(7 + d, d)
        data = conftest.table_to_dict(g2b)
        data["brackets"] = []
        t = liealg.table_from_dict(data)
        claims = theorem_generator_audit(t, invariants.build_family(t), 0)
        trivial = [c for c in claims if ".poisson-center.char0.trivial." in c.claim_id]
        assert [(c.passed, c.residual) for c in trivial] == [
            (False, "dimension 8"), (False, "dimension 36"), (False, "dimension 120")
        ]

    def test_excluded_characteristic(self, g2n, g2n_fam):
        with pytest.raises(ValueError):
            theorem_generator_audit(g2n, g2n_fam, 3)

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5)])
    def test_cn_borel(self, n, p):
        t = liealg.cn_borel(n)
        fam = invariants.cn_invariants(t)
        claims = theorem_generator_audit(t, fam, p)
        assert all(c.passed for c in claims)
        gen_count = [c for c in claims if c.claim_id.endswith("u-center.char%d.gen-count" % p)]
        assert len(gen_count) == 1 and gen_count[0].status == "verified"
