import random
from fractions import Fraction
from math import isqrt

import pytest

from liecenter.exactalg import (
    GF,
    QQ,
    CharacteristicMismatch,
    Polynomial,
    RegistryMismatch,
    VarRegistry,
    eigenvalue,
    format_polynomial,
    MR_BOUND,
    frobenius_expand,
    is_prime,
    mono_from_pairs,
    parse_polynomial,
    poly_det,
    ppattern_membership,
)

from liecenter.linalg import FILTER_PRIME
from liecenter.pbw import PBWElement

from conftest import is_homogeneous, leading_monomial

REG6 = VarRegistry(["x1", "x2", "x3", "x4", "x5", "x6"])


def rand_poly(rng, registry, field, max_degree=5, max_terms=5):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        pairs = []
        for _ in range(rng.randint(0, max_degree)):
            pairs.append((rng.randrange(len(registry)), 1))
        coeff = rng.randint(-6, 6)
        items.append((mono_from_pairs(pairs), coeff))
    return Polynomial.from_terms(registry, field, items)


def P(text, field=QQ, registry=REG6):
    return parse_polynomial(registry, field, text)


class TestRingAxioms:
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_axioms_random(self, field):
        rng = random.Random(7)
        for _ in range(200):
            a = rand_poly(rng, REG6, field)
            b = rand_poly(rng, REG6, field)
            c = rand_poly(rng, REG6, field)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == Polynomial.zero(REG6, field)

    def test_cancellation(self):
        x1, x2 = P("x1"), P("x2")
        assert (x1 + x2) + (-x2) == x1

    def test_c2_assembles_from_terms(self):
        total = P("3*x1*x6") + P("x3^2") + P("-3*x2*x5")
        assert total == P("3*x1*x6 - 3*x2*x5 + x3^2")

    def test_gf5_addition(self):
        f = P("3*x1", GF(5))
        assert f + f == P("x1", GF(5))

    def test_products(self):
        assert P("x3") * P("x3") == P("x3^2")
        assert (P("x1") + P("x2")) * (P("x1") - P("x2")) == P("x1^2 - x2^2")

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(CharacteristicMismatch):
            P("x1") + P("x1", GF(5))
        other = VarRegistry(["y1"])
        with pytest.raises(RegistryMismatch):
            P("x1") + Polynomial.variable(other, QQ, "y1")

    def test_powers(self):
        f = P("x1 + x2")
        assert f**0 == Polynomial.constant(REG6, QQ, 1)
        assert f**3 == f * f * f


class TestFields:
    def test_gf_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            GF(2)
        with pytest.raises(ValueError):
            GF(9)

    def test_fraction_coercion(self):
        assert GF(5).coerce("1/2") == 3  # 2*3 = 6 = 1 mod 5
        with pytest.raises(ZeroDivisionError):
            GF(5).coerce("1/5")

    def test_residues_reduced(self):
        f = P("7*x1", GF(5))
        assert list(f.terms.values()) == [2]

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_div_is_the_fermat_inverse_for_every_residue(self, p):
        for a in range(p):
            for b in range(1, p):
                assert GF(p).div(a, b) == a * pow(b, p - 2, p) % p
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            GF(p).div(1, p)

    def test_div_is_the_fermat_inverse_at_the_filter_prime(self):
        rng, p = random.Random(12), FILTER_PRIME
        for _ in range(1000):
            a, b = rng.randrange(p), rng.randrange(1, p)
            assert GF(p).div(a, b) == a * pow(b, p - 2, p) % p
            assert GF(p).coerce(Fraction(a, b)) == a * pow(b, p - 2, p) % p


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class TestIsPrime:
    def test_equals_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if is_prime(n)] == [
            n for n in range(10**5) if trial_division_is_prime(n)
        ]

    @pytest.mark.parametrize("n", [561, 41041, 3215031751, 3825123056546413051])
    def test_carmichael_numbers_and_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 19, 10**12 + 39, 10**18 + 3, 2**61 - 1])
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_undecided_at_the_bound(self):
        assert not is_prime(MR_BOUND - 1)  # even
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(MR_BOUND)
        with pytest.raises(ValueError):
            is_prime(MR_BOUND + 2)


class TestPartials:
    def test_simple(self):
        assert P("x3^2").partial("x3") == P("2*x3")

    def test_c2_partials(self):
        c2 = P("3*x1*x6 - 3*x2*x5 + x3^2")
        assert c2.partial("x1") == P("3*x6")
        assert c2.partial("x2") == P("-3*x5")

    def test_missing_variable(self):
        assert P("x6").partial("x5").is_zero

    def test_step(self):
        # d/d(x3^3): x3^6 -> 2*x3^3 keeps the variable, x3^3 -> 1 drops it
        assert P("x1*x3^6 + x3^3 + x2").partial("x3", 3) == P("2*x1*x3^3 + 1")
        with pytest.raises(ValueError, match="exponent 4 of x3 is not divisible by 3"):
            P("x3^4").partial("x3", 3)


def jacobian(fs, vs):
    """``poly_det`` of the matrix of partials d(fs)/d(vs)."""
    return poly_det([[f.partial(v) for v in vs] for f in fs])


class TestJacobian:
    def test_identity(self):
        assert jacobian([P("x1"), P("x2")], ["x1", "x2"]) == P("1")

    def test_single(self):
        assert jacobian([P("x1*x2")], ["x2"]) == P("x1")

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            jacobian([P("x1")], ["x1", "x2"])
        with pytest.raises(ValueError):
            poly_det([])

    def test_alternating_and_multilinear(self):
        rng = random.Random(3)
        for _ in range(25):
            f = rand_poly(rng, REG6, QQ, max_degree=3)
            g = rand_poly(rng, REG6, QQ, max_degree=3)
            h = rand_poly(rng, REG6, QQ, max_degree=3)
            vs = ["x1", "x2"]
            assert jacobian([f, g], vs) == -jacobian([g, f], vs)
            assert jacobian([f + g, h], vs) == jacobian([f, h], vs) + jacobian([g, h], vs)


class TestFrobenius:
    def test_freshmans_dream(self):
        f = P("x1 + x2", GF(5))
        assert frobenius_expand(f, 5) == P("x1^5 + x2^5", GF(5))

    def test_c2_fifth_power(self):
        c2 = P("3*x1*x6 - 3*x2*x5 + x3^2", GF(5))
        expected = P("3*x1^5*x6^5 - 3*x2^5*x5^5 + x3^10", GF(5))
        assert frobenius_expand(c2, 5) == expected

    def test_constant(self):
        two = Polynomial.constant(REG6, GF(3), 2)
        assert frobenius_expand(two, 3) == two

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_repeated_multiplication(self, p):
        rng = random.Random(p)
        field = GF(p)
        for _ in range(30):
            f = rand_poly(rng, REG6, field, max_degree=3, max_terms=4)
            assert frobenius_expand(f, p) == f**p

    def test_rejects_characteristic_zero(self):
        with pytest.raises(CharacteristicMismatch):
            frobenius_expand(P("x1"), 5)
        with pytest.raises(CharacteristicMismatch):
            frobenius_expand(P("x1", GF(5)), 3)


class TestPPattern:
    def test_power_is_member(self):
        c2 = P("3*x1*x6 - 3*x2*x5 + x3^2", GF(5))
        ok, witness = ppattern_membership(frobenius_expand(c2, 5), 5, ["x6"])
        assert ok and witness is None

    def test_non_member_witness(self):
        c2 = P("3*x1*x6 - 3*x2*x5 + x3^2", GF(5))
        ok, witness = ppattern_membership(c2, 5, ["x6"])
        assert not ok
        assert witness == mono_from_pairs([(0, 1), (5, 1)])  # x1*x6

    def test_exempt_variable_unconstrained(self):
        ok, witness = ppattern_membership(P("x6^3", GF(5)), 5, ["x6"])
        assert ok

    def test_requires_odd_p(self):
        with pytest.raises(ValueError):
            ppattern_membership(P("x1"), 2)


class TestTextFormat:
    def test_deterministic_order(self):
        c2 = P("x3^2 - 3*x2*x5 + 3*x1*x6")
        assert format_polynomial(c2) == "3*x1*x6 - 3*x2*x5 + x3^2"

    def test_zero(self):
        assert format_polynomial(Polynomial.zero(REG6, QQ)) == "0"
        assert parse_polynomial(REG6, QQ, "0").is_zero

    def test_fractions(self):
        f = P("-1/2*x1*x3 + 5")
        assert format_polynomial(f) == "-1/2*x1*x3 + 5"

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    def test_round_trip_random(self, field):
        rng = random.Random(11)
        for _ in range(100):
            f = rand_poly(rng, REG6, field)
            assert parse_polynomial(REG6, field, format_polynomial(f)) == f

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            P("z9")


class TestPolynomialBasics:
    def test_leading_monomial_grlex(self):
        c2 = P("3*x1*x6 - 3*x2*x5 + x3^2")
        assert leading_monomial(c2) == mono_from_pairs([(0, 1), (5, 1)])

    def test_degree_and_homogeneity(self):
        assert is_homogeneous(P("3*x1*x6 - 3*x2*x5 + x3^2"))
        assert not is_homogeneous(P("x1 + x1*x2"))
        assert Polynomial.zero(REG6, QQ).total_degree() == -1

    def test_registry_validation(self):
        with pytest.raises(ValueError):
            VarRegistry(["x1", "x1"])
        with pytest.raises(ValueError):
            VarRegistry(["1bad"])


class TestEigenvalue:
    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_polynomial(self, field):
        f = P("3*x1*x6 - x3^2", field)
        assert eigenvalue(f, f.scale("-2/3")) == field.coerce("-2/3")
        assert eigenvalue(f, Polynomial.zero(REG6, field)) == field.zero
        assert eigenvalue(f, f + P("x3^2", field)) is None  # shares a term only
        assert eigenvalue(f, P("x2", field)) is None  # shares no term

    def test_pbw_element(self):
        x1, x2 = (PBWElement.variable(REG6, QQ, v) for v in ("x1", "x2"))
        e = x1 + x2.scale(2)
        assert eigenvalue(e, e.scale(3)) == 3
        assert eigenvalue(e, x1) is None
