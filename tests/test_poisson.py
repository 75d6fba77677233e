import random

import pytest

from liecenter import poisson
from liecenter.exactalg import GF, QQ, Polynomial, mono_from_pairs, parse_polynomial
from liecenter.poisson import (
    ad_apply,
    cartan_eigenvalue,
    is_invariant,
    poisson_bracket,
    weight_of,
)

from conftest import reference_bracket_row
from test_exactalg import rand_poly


def monomial_weight(t, mono, field=QQ):
    """Weight of a single monomial, when every Cartan generator acts
    diagonally on the variables (true for all catalog tables): the reference
    for ``weight_of``."""
    weights = []
    for k in t.cartan:
        row = reference_bracket_row(t, k, field.characteristic)
        acc = field.zero
        for v, e in mono:
            targets = row.get(v, ())
            for w, c in targets:
                if w != v:
                    return None
                acc = field.add(
                    acc,
                    field.mul(field.coerce(e), c if field.characteristic else field.coerce(c)),
                )
        weights.append(acc)
    return tuple(weights)


def P(t, text, field=QQ):
    return parse_polynomial(t.registry, field, text)


class TestBracket:
    def test_generators_match_table(self, g2b):
        for i in range(g2b.dim):
            for j in range(g2b.dim):
                fi = Polynomial.variable(g2b.registry, QQ, i)
                fj = Polynomial.variable(g2b.registry, QQ, j)
                assert poisson_bracket(g2b, fi, fj) == g2b.bracket(i, j)

    def test_table_example(self, g2n):
        x1 = Polynomial.variable(g2n.registry, QQ, "x1")
        x2 = Polynomial.variable(g2n.registry, QQ, "x2")
        assert poisson_bracket(g2n, x1, x2) == P(g2n, "2*x3")

    def test_leibniz_example(self, g2n):
        x3 = Polynomial.variable(g2n.registry, QQ, "x3")
        assert poisson_bracket(g2n, x3, P(g2n, "x1*x2")) == P(g2n, "-3*x2*x5 - 3*x1*x6")

    def test_antisymmetry_random(self, g2b):
        rng = random.Random(5)
        for _ in range(40):
            f = rand_poly(rng, g2b.registry, QQ, max_degree=3)
            assert poisson_bracket(g2b, f, f).is_zero

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_leibniz_random(self, g2b, field):
        rng = random.Random(6)
        x = Polynomial.variable(g2b.registry, field, "x1")
        for _ in range(40):
            f = rand_poly(rng, g2b.registry, field, max_degree=3)
            g = rand_poly(rng, g2b.registry, field, max_degree=3)
            lhs = poisson_bracket(g2b, x, f * g)
            rhs = poisson_bracket(g2b, x, f) * g + f * poisson_bracket(g2b, x, g)
            assert lhs == rhs

    def test_jacobi_random(self, g2b):
        rng = random.Random(8)
        for _ in range(100):
            f = rand_poly(rng, g2b.registry, QQ, max_degree=3, max_terms=3)
            g = rand_poly(rng, g2b.registry, QQ, max_degree=3, max_terms=3)
            h = rand_poly(rng, g2b.registry, QQ, max_degree=3, max_terms=3)
            total = (
                poisson_bracket(g2b, f, poisson_bracket(g2b, g, h))
                + poisson_bracket(g2b, g, poisson_bracket(g2b, h, f))
                + poisson_bracket(g2b, h, poisson_bracket(g2b, f, g))
            )
            assert total.is_zero

    def test_ad_apply_matches_bracket(self, f4n):
        rng = random.Random(9)
        for _ in range(20):
            f = rand_poly(rng, f4n.registry, QQ, max_degree=2)
            i = rng.randrange(f4n.dim)
            xi = Polynomial.variable(f4n.registry, QQ, i)
            assert ad_apply(f4n, i, f) == poisson_bracket(f4n, xi, f)


class TestAdApply:
    def test_kills_invariant(self, g2n, g2n_fam):
        assert ad_apply(g2n, "x1", g2n_fam.element("c2")).is_zero

    def test_delta_relation(self, g2n, g2n_fam):
        x2 = Polynomial.variable(g2n.registry, QQ, "x2")
        v2 = g2n_fam.element("v2")
        assert poisson_bracket(g2n, v2, x2) == g2n_fam.element("c1")

    def test_kills_constants(self, g2n):
        one = Polynomial.constant(g2n.registry, QQ, 1)
        assert ad_apply(g2n, "x3", one).is_zero

    def test_registry_guard(self, g2n, f4n):
        with pytest.raises(ValueError):
            ad_apply(g2n, 0, Polynomial.variable(f4n.registry, QQ, 0))


class TestInvariance:
    def test_f4_c2_full(self, f4n, f4n_fam):
        ok, bad = is_invariant(f4n, f4n_fam.element("c2"), f4n.nilradical)
        assert ok and bad is None

    def test_x5_fails_at_x4(self, g2n):
        x5 = Polynomial.variable(g2n.registry, QQ, "x5")
        ok, bad = is_invariant(g2n, x5, g2n.nilradical)
        assert not ok
        assert g2n.label(bad) == "x4"

    def test_constant_invariant(self, g2n):
        ok, _ = is_invariant(g2n, Polynomial.constant(g2n.registry, QQ, 7), g2n.nilradical)
        assert ok


class TestWeights:
    def test_c1_weight(self, g2b, g2b_fam):
        weights, bad = weight_of(g2b, g2b_fam.element("c1"))
        assert bad is None and weights == (1, -2)

    def test_c2_weight(self, g2b, g2b_fam):
        weights, _ = weight_of(g2b, g2b_fam.element("c2"))
        assert weights == (0, -2)

    def test_f4_c2_weight(self, f4b, f4b_fam):
        weights, _ = weight_of(f4b, f4b_fam.element("c2"))
        assert weights == (0, 0, 0, 2)

    def test_not_semi_invariant(self, g2b, g2b_fam):
        f = g2b_fam.element("c1") + Polynomial.variable(g2b.registry, QQ, "x1")
        weights, bad = weight_of(g2b, f)
        assert weights is None and g2b.label(bad) == "h1"

    def test_zero_rejected(self, g2b):
        with pytest.raises(ValueError):
            weight_of(g2b, Polynomial.zero(g2b.registry, QQ))

    def test_monomial_weight_additivity(self, g2b):
        rng = random.Random(4)
        for _ in range(40):
            pairs = [(rng.randrange(g2b.dim), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            mono = mono_from_pairs(pairs)
            f = Polynomial.from_terms(g2b.registry, QQ, [(mono, 1)])
            w, bad = weight_of(g2b, f)
            assert bad is None
            assert w == monomial_weight(g2b, mono)

    def test_paper_pairing_directions(self, g2b, g2b_fam):
        # {c1, h1} = -c1 and {c2, h2} = 2*c2 as stated; equivalently the
        # h-side eigenvalues are +1 and -2
        c1, c2 = g2b_fam.element("c1"), g2b_fam.element("c2")
        h1 = Polynomial.variable(g2b.registry, QQ, "h1")
        h2 = Polynomial.variable(g2b.registry, QQ, "h2")
        assert poisson_bracket(g2b, c1, h1) == -c1
        assert poisson_bracket(g2b, c2, h2) == c2.scale(2)
        assert cartan_eigenvalue(g2b, "h2", c2) == -2


class TestSemicenterSuite:
    def test_g2(self, g2b, g2b_fam):
        claims = poisson.semicenter_witness_suite(g2b, g2b_fam, QQ)
        assert all(c.passed for c in claims)
        noted = [c for c in claims if c.status == "derived-with-note"]
        assert [c.claim_id for c in noted] == ["g2-borel.weights.c2.h2"]

    def test_f4(self, f4b, f4b_fam):
        claims = poisson.semicenter_witness_suite(f4b, f4b_fam, QQ)
        assert all(c.passed for c in claims)
        assert not [c for c in claims if c.status == "derived-with-note"]

    @pytest.mark.parametrize("p", [5, 7])
    def test_g2_mod_p(self, g2b, g2b_fam, p):
        claims = poisson.semicenter_witness_suite(g2b, g2b_fam, GF(p))
        assert all(c.passed for c in claims)
