import itertools
import os
import random
import weakref
from fractions import Fraction
from math import factorial, prod

import pytest

from liecenter import invariants, liealg, pbw
from liecenter.exactalg import (
    GF,
    MONO_ONE,
    Polynomial,
    QQ,
    add_into,
    mono_degree,
    mono_div_var,
    mono_mul_var,
    parse_polynomial,
)
from liecenter.pbw import (
    CharacteristicObstruction,
    PBWElement,
    commutator_u,
    commutator_with_basis,
    gr_leading,
    is_central_u,
    naive_lift,
    pbw_mul,
    p_center_suite,
    reduce_u,
    straighten_word,
    symmetrize,
    word_of,
    z_lift_audit,
)

from conftest import reference_bracket_row


# -- the field letter kernel: the reference for the integer kernels ------------
#
# The enveloping-algebra kernels once ran over the coefficient field itself,
# Fraction arithmetic at characteristic 0 and residues at characteristic p,
# in the basis x, on terms keyed by exponent monomials.  That kernel lives
# on here, with a memo of its own, as the reference the word-keyed integer
# kernels in the scaled basis y = D*x must agree with in every
# characteristic.

_FIELD_MEMO = weakref.WeakKeyDictionary()  # table -> {char: letter products}
_ROW_MEMO = weakref.WeakKeyDictionary()  # table -> {(char, i): field row}


def field_row(t, i, char):
    """The field row of basis_i, built once per table by the reference."""
    rows = _ROW_MEMO.setdefault(t, {})
    if (char, i) not in rows:
        rows[(char, i)] = reference_bracket_row(t, i, char)
    return rows[(char, i)]


def field_mul_mono_letter(t, field, mono, v):
    """Normal form of (normal monomial) * x_v over ``field`` in the basis x,
    by the recursion of ``pbw._mul_mono_letter``."""
    char = field.characteristic
    cache = _FIELD_MEMO.setdefault(t, {}).setdefault(char, {})
    key = (mono, v)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not mono or mono[-1][0] <= v:
        result = ((mono_mul_var(mono, v), field.one),)
        cache[key] = result
        return result
    u = mono[-1][0]
    mprime = mono[:-1] + ((u, mono[-1][1] - 1),) if mono[-1][1] > 1 else mono[:-1]
    acc = {}
    zero = field.zero
    for m1, c1 in field_mul_mono_letter(t, field, mprime, v):
        for m2, c2 in field_mul_mono_letter(t, field, m1, u):
            c = field.mul(c1, c2)
            prev = acc.get(m2)
            c = c if prev is None else field.add(prev, c)
            if c == zero:
                acc.pop(m2, None)
            else:
                acc[m2] = c
    for k, ck in field_row(t, u, char).get(v, ()):
        for m2, c2 in field_mul_mono_letter(t, field, mprime, k):
            c = field.mul(ck, c2)
            prev = acc.get(m2)
            c = c if prev is None else field.add(prev, c)
            if c == zero:
                acc.pop(m2, None)
            else:
                acc[m2] = c
    result = tuple(acc.items())
    cache[key] = result
    return result


def field_mul_word(t, field, current, letters):
    """Normal form of ``current`` * x_l1 * ... * x_lk over ``field``."""
    zero = field.zero
    for letter in letters:
        nxt = {}
        for m, c in current.items():
            for m2, c2 in field_mul_mono_letter(t, field, m, letter):
                cc = field.mul(c, c2)
                prev = nxt.get(m2)
                cc = cc if prev is None else field.add(prev, cc)
                if cc == zero:
                    nxt.pop(m2, None)
                else:
                    nxt[m2] = cc
        current = nxt
    return current


def field_pbw_mul(t, a, b):
    terms = {}
    for mb, cb in b.terms.items():
        add_into(terms, field_mul_word(t, a.field, a.terms, word_of(mb)).items(), a.field, cb)
    return PBWElement(a.registry, a.field, terms)


def field_commutator_with_basis(t, g, e):
    field = e.field
    row = field_row(t, g, field.characteristic)
    total = {}
    for mono, coeff in e.terms.items():
        word = word_of(mono)
        for pos in range(len(word)):
            prefix = pbw.mono_of_word(word[:pos])
            current = {}
            for k, ck in row.get(word[pos], ()):
                add_into(current, field_mul_mono_letter(t, field, prefix, k), field, field.mul(coeff, ck))
            add_into(total, field_mul_word(t, field, current, word[pos + 1 :]).items(), field)
    return PBWElement(e.registry, field, total)


def field_symmetrize(t, f):
    """sym(M) = sum_a (mult_a(M)/k) sym(M - a) x_a over the field, one
    division per step, over all sub-multisets of f's monomials."""
    field = f.field
    top = max(f.total_degree(), 0)
    levels = [set() for _ in range(top + 1)]
    for mono in f.terms:
        levels[mono_degree(mono)].add(mono)
    for k in range(top, 0, -1):
        for mono in levels[k]:
            levels[k - 1].update(mono_div_var(mono, a) for a, _ in mono)
    total = {}
    averages = {MONO_ONE: {MONO_ONE: field.one}}
    for k in range(top + 1):
        if k:
            prev, averages = averages, {}
            for mono in levels[k]:
                acc = averages[mono] = {}
                for a, e in mono:
                    step = field_mul_word(t, field, prev[mono_div_var(mono, a)], (a,))
                    add_into(acc, step.items(), field, field.coerce(Fraction(e, k)))
        for mono, coeff in f.terms.items():
            if mono_degree(mono) == k:
                add_into(total, averages[mono].items(), field, coeff)
    return PBWElement(f.registry, field, total)


def V(t, name, field=QQ):
    return PBWElement.variable(t.registry, field, name)


def lift(t, text, field=QQ):
    return naive_lift(parse_polynomial(t.registry, field, text))


def rand_element(rng, t, field, max_len=4, max_terms=3):
    items = []
    for _ in range(rng.randint(1, max_terms)):
        word = sorted(rng.randrange(t.dim) for _ in range(rng.randint(0, max_len)))
        items.append((pbw.mono_of_word(word), rng.randint(-4, 4)))
    return PBWElement.from_terms(t.registry, field, items)


class TestStraightening:
    def test_basic_swap(self, g2n):
        prod = pbw_mul(g2n, V(g2n, "x2"), V(g2n, "x1"))
        assert prod == lift(g2n, "x1*x2 - 2*x3")

    def test_unit(self, g2n):
        e = lift(g2n, "x1*x2 + 3*x5")
        unit = PBWElement.monomial(g2n.registry, QQ, MONO_ONE)
        assert pbw_mul(g2n, unit, e) == e
        assert pbw_mul(g2n, e, unit) == e

    def test_associativity_spot(self, g2n):
        a, b, c = V(g2n, "x2"), V(g2n, "x1"), V(g2n, "x4")
        assert pbw_mul(g2n, pbw_mul(g2n, a, b), c) == pbw_mul(g2n, a, pbw_mul(g2n, b, c))

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
    def test_associativity_random(self, g2b, field):
        rng = random.Random(13)
        for _ in range(30):
            a = rand_element(rng, g2b, field, max_len=2)
            b = rand_element(rng, g2b, field, max_len=2)
            c = rand_element(rng, g2b, field, max_len=2)
            assert pbw_mul(g2b, pbw_mul(g2b, a, b), c) == pbw_mul(g2b, a, pbw_mul(g2b, b, c))

    def test_confluence_randomized_choices(self, g2n, f4n):
        rng = random.Random(42)
        for table, cases in ((g2n, 100), (f4n, 25)):
            for _ in range(cases):
                k = rng.randint(2, 4)
                word = tuple(rng.randrange(table.dim) for _ in range(k))
                randomized = straighten_word(table, QQ, word, rng=rng)
                deterministic = straighten_word(table, QQ, word)
                fast = PBWElement.monomial(table.registry, QQ, MONO_ONE)
                for letter in word:
                    fast = pbw_mul(table, fast, PBWElement.variable(table.registry, QQ, letter))
                assert randomized == deterministic == fast.terms

    def test_filtration_multiplicativity(self, g2b):
        # gr U is the (domain) polynomial algebra, so top symbols multiply
        rng = random.Random(14)
        for _ in range(30):
            a = rand_element(rng, g2b, QQ, max_len=3)
            b = rand_element(rng, g2b, QQ, max_len=3)
            if a.is_zero or b.is_zero:
                continue
            assert gr_leading(pbw_mul(g2b, a, b)) == gr_leading(a) * gr_leading(b)


class TestCommutators:
    def test_z2_commutes_with_x1(self, g2n, g2n_fam):
        z2 = naive_lift(g2n_fam.element("c2"))
        assert commutator_u(g2n, V(g2n, "x1"), z2).is_zero

    def test_self_commutator(self, g2b):
        rng = random.Random(15)
        for _ in range(10):
            a = rand_element(rng, g2b, QQ)
            assert commutator_u(g2b, a, a).is_zero

    def test_h1_x4(self, g2b):
        assert commutator_u(g2b, V(g2b, "h1"), V(g2b, "x4")) == V(g2b, "x4").scale(2)

    def test_fast_commutator_agrees(self, g2b):
        rng = random.Random(16)
        for _ in range(25):
            g = rng.randrange(g2b.dim)
            e = rand_element(rng, g2b, QQ)
            fast = commutator_with_basis(g2b, g, e)
            slow = commutator_u(g2b, V(g2b, g2b.label(g)), e)
            assert fast == slow


class TestSymmetrize:
    def test_single_variable_power(self, g2n):
        f = parse_polynomial(g2n.registry, QQ, "x3^2")
        assert symmetrize(g2n, f) == naive_lift(f)

    def test_commuting_pair(self, g2n):
        f = parse_polynomial(g2n.registry, QQ, "x1*x6")
        assert symmetrize(g2n, f) == naive_lift(f)

    def test_noncommuting_pair(self, g2n):
        # x1*x2: (x1x2 + x2x1)/2 = x1x2 - x3
        f = parse_polynomial(g2n.registry, QQ, "x1*x2")
        assert symmetrize(g2n, f) == lift(g2n, "x1*x2 - x3")

    def test_gr_of_symmetrized(self, g2n, g2n_fam):
        c2 = g2n_fam.element("c2")
        assert gr_leading(symmetrize(g2n, c2)) == c2

    def test_characteristic_obstruction(self, f4n, f4n_fam):
        with pytest.raises(CharacteristicObstruction):
            symmetrize(f4n, f4n_fam.element("c3", GF(3)))

    def test_equivariance_for_invariants(self, g2n, g2n_fam, f4n, f4n_fam):
        # the symmetrization of a Poisson invariant is central, so every
        # commutator is not merely of lower filtration but exactly zero
        for table, fam in ((g2n, g2n_fam), (f4n, f4n_fam)):
            for name in fam.central:
                f = fam.element(name)
                if f.total_degree() > 2:
                    continue
                z = symmetrize(table, f)
                for g in table.nilradical:
                    com = commutator_with_basis(table, g, z)
                    assert com.is_zero or com.filtration_degree() < f.total_degree()
                    assert com.is_zero


def reference_symmetrize(t, f):
    """The average over all k! letter orderings of each monomial, repeats
    included, each ordering straightened by the rewriting reference."""
    field = f.field
    items = []
    for mono, coeff in f.terms.items():
        orderings = list(itertools.permutations(word_of(mono)))
        weight = field.mul(coeff, field.coerce(Fraction(1, len(orderings))))
        for word in orderings:
            straightened = straighten_word(t, field, word)
            items.extend((m, field.mul(weight, c)) for m, c in straightened.items())
    return PBWElement.from_terms(t.registry, field, items)


class TestSymmetrizeReference:
    """The letter-by-letter word walk behind symmetrize agrees with the
    rewriting reference on catalog invariants."""

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    @pytest.mark.parametrize(
        "table_fixture, names",
        [
            ("g2b", ("c2",)),
            ("f4b", ("c2", "c3")),
            ("c3b", ("c1", "c2", "c3")),
        ],
        ids=["g2", "f4", "c3"],
    )
    def test_matches_reference(self, request, table_fixture, names, field):
        t = request.getfixturevalue(table_fixture)
        fam = invariants.build_family(t)
        for name in names:
            f = fam.element(name, field)
            assert symmetrize(t, f) == reference_symmetrize(t, f), name

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    def test_merging_walks_match_reference(self, g2b, f4n, field):
        # degree 4-5 words whose straightened terms merge mid-walk, which the
        # invariants above do not exercise
        for t, text in ((g2b, "x1*x2*x4*x5 + h1*x1^2*x4"), (f4n, "x1*x2*x3*x4*x5")):
            f = parse_polynomial(t.registry, field, text)
            assert symmetrize(t, f) == reference_symmetrize(t, f), text


def orderings_symmetrize(t, f):
    """Each distinct letter ordering of each monomial walked once through the
    letter kernel, weighted by prod(e_i!)/k!: the k!/prod(e_i!) walks that
    the sub-multiset recursion of ``symmetrize`` replaces."""
    field = f.field
    total = {}
    for mono, coeff in f.terms.items():
        word = word_of(mono)
        stab = prod(factorial(e) for _, e in mono)
        factor = field.mul(coeff, field.coerce(Fraction(stab, factorial(len(word)))))
        for perm in set(itertools.permutations(word)):
            add_into(total, field_mul_word(t, field, {MONO_ONE: factor}, perm).items(), field)
    return PBWElement(f.registry, field, total)


FAMILY_TABLES = {
    "g2-borel": liealg.g2_borel,
    "f4-borel": liealg.f4_borel,
    **{f"c{n}-borel": (lambda n=n: liealg.cn_borel(n)) for n in (3, 4, 5)},
}


class TestSymmetrizeOrderings:
    """The sub-multiset recursion equals the distinct-orderings walk on every
    catalog family element, over QQ and each admissible prime in {5, 7}
    above the element's degree."""

    @pytest.mark.parametrize("name", FAMILY_TABLES)
    def test_family_elements(self, name):
        t = FAMILY_TABLES[name]()
        fam = invariants.build_family(t)
        primes = [p for p in (5, 7) if invariants.inadmissible_reason(t, p) is None]
        checked = 0
        for field in [QQ] + [GF(p) for p in primes]:
            for elt in sorted(fam.elements(field)):
                f = fam.element(elt, field)
                if field.characteristic and f.total_degree() >= field.characteristic:
                    continue
                assert symmetrize(t, f) == orderings_symmetrize(t, f), (elt, field)
                checked += 1
        assert checked > len(fam.central)


INTEGER_KERNEL_TABLES = {
    "g2": liealg.g2_borel,
    "f4": liealg.f4_borel,
    **{f"c{n}": (lambda n=n: liealg.cn_borel(n)) for n in (3, 4, 5)},
}
THIRDS_TABLE = os.path.join(os.path.dirname(__file__), "data", "thirds.json")


def rational_element(rng, t, max_len=4, max_terms=4):
    """A random element with coefficients of denominator up to 6."""
    items = []
    for _ in range(rng.randint(1, max_terms)):
        word = sorted(rng.randrange(t.dim) for _ in range(rng.randint(0, max_len)))
        items.append((pbw.mono_of_word(word), Fraction(rng.randint(-5, 5), rng.randint(1, 6))))
    return PBWElement.from_terms(t.registry, QQ, items)


class TestIntegerKernels:
    """The characteristic-0 kernels, on ints in the basis y = D*x, against the
    Fraction letter kernel in the basis x."""

    def test_bracket_scale(self, g2b, f4b, c3b):
        assert (g2b.scale, f4b.scale, c3b.scale) == (1, 2, 1)
        assert liealg.load_table(THIRDS_TABLE).scale == 6

    @pytest.mark.parametrize("level", ["nil", "borel"])
    @pytest.mark.parametrize("name", INTEGER_KERNEL_TABLES)
    def test_symmetrize_family_elements(self, name, level):
        t = INTEGER_KERNEL_TABLES[name]()
        if level == "nil":
            t = liealg.nilradical_table(t)
        fam = invariants.build_family(t)
        elements = sorted(fam.elements(QQ))
        for elt in elements:
            f = fam.element(elt, QQ)
            assert symmetrize(t, f) == field_symmetrize(t, f), elt
        assert len(elements) >= len(fam.central)

    @pytest.mark.parametrize("source", ["f4-borel", "thirds"])
    def test_products_and_commutators(self, source, f4b):
        t = f4b if source == "f4-borel" else liealg.load_table(THIRDS_TABLE)
        rng = random.Random(31)
        for _ in range(40):
            a = rational_element(rng, t)
            b = rational_element(rng, t, max_len=3)
            assert pbw_mul(t, a, b) == field_pbw_mul(t, a, b)
            g = rng.randrange(t.dim)
            assert commutator_with_basis(t, g, a) == field_commutator_with_basis(t, g, a)

    def test_thirds_symmetrize(self):
        t = liealg.load_table(THIRDS_TABLE)
        for text in ("a*b", "1/5*a^2*b*c - 2/3*h*a*b + b^2", "h*a*b*c + 7/2*a^3*b^2"):
            f = parse_polynomial(t.registry, QQ, text)
            assert symmetrize(t, f) == field_symmetrize(t, f) == reference_symmetrize(t, f), text


def repeated_letter_monomials(t):
    """Monomials whose words repeat letters: x_j^e for e = 1..6 and
    x_i^a x_j^b with a, b >= 2 and a + b <= 6, for the last letter j and a
    few letters i before it."""
    j = t.dim - 1
    monos = [((j, e),) for e in range(1, 7)]
    for i in sorted({0, 1, j // 2}):
        monos += [((i, a), (j, b)) for a in range(2, 5) for b in range(2, 7 - a)]
    return monos


WORD_KERNEL_TABLES = {
    "g2-borel": liealg.g2_borel,
    "f4-nil": lambda: liealg.nilradical_table(liealg.f4_borel()),
    "thirds": lambda: liealg.load_table(THIRDS_TABLE),
}


class TestWordKernel:
    """The kernel keyed by sorted letter words against the field kernel
    keyed by exponent monomials, where repeated letters, the D = 6 scale
    and long p-th powers stress the word bookkeeping."""

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    @pytest.mark.parametrize("name", WORD_KERNEL_TABLES)
    def test_repeated_letters(self, name, field):
        t = WORD_KERNEL_TABLES[name]()
        for mono in repeated_letter_monomials(t):
            e = PBWElement.monomial(t.registry, field, mono, Fraction(5, 2))
            for v in range(t.dim):
                x = PBWElement.variable(t.registry, field, v)
                assert pbw_mul(t, e, x) == field_pbw_mul(t, e, x), (mono, v)
                assert pbw_mul(t, x, e) == field_pbw_mul(t, x, e), (mono, v)
                assert commutator_with_basis(t, v, e) == field_commutator_with_basis(t, v, e), (mono, v)
            f = Polynomial(t.registry, field, dict(e.terms))
            assert symmetrize(t, f) == field_symmetrize(t, f), mono

    def test_thirds_mixed_words(self):
        t = liealg.load_table(THIRDS_TABLE)
        for text in ("a^3*b^2*c - 1/4*h^2*a^2*b^2", "h^2*a^2*b*c^2 + 2/3*b^3*c^3", "a^6 + b^5*c"):
            f = parse_polynomial(t.registry, QQ, text)
            assert symmetrize(t, f) == field_symmetrize(t, f), text
            e = naive_lift(f)
            for g in range(t.dim):
                assert commutator_with_basis(t, g, e) == field_commutator_with_basis(t, g, e), (text, g)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_p_center_elements(self, f4b, p):
        field = GF(p)
        for name, elt in pbw.p_center_elements(f4b, field):
            for g in range(f4b.dim):
                com = commutator_with_basis(f4b, g, elt)
                assert com == field_commutator_with_basis(f4b, g, elt), (name, g)
                assert com.is_zero


MOD_P_TABLES = {"f4-borel": liealg.f4_borel, "thirds": lambda: liealg.load_table(THIRDS_TABLE)}
MOD_P_CASES = [("f4-borel", 3), ("f4-borel", 5), ("f4-borel", 7), ("thirds", 5), ("thirds", 7)]


def residue_element(rng, t, field, max_len=4, max_terms=4):
    """A random element with random nonzero residues as coefficients."""
    items = []
    for _ in range(rng.randint(1, max_terms)):
        word = sorted(rng.randrange(t.dim) for _ in range(rng.randint(0, max_len)))
        items.append((pbw.mono_of_word(word), rng.randrange(1, field.characteristic)))
    return PBWElement.from_terms(t.registry, field, items)


class TestIntegerKernelsModP:
    """The integer kernel in the basis y = D*x, reduced mod p on the way out,
    against the field letter kernel over GF(p) in the basis x, on F4 (D = 2)
    and the thirds table (D = 6)."""

    @pytest.mark.parametrize("source,p", MOD_P_CASES)
    def test_random_residue_elements(self, source, p):
        t, field = MOD_P_TABLES[source](), GF(p)
        rng = random.Random(100 + p)
        for _ in range(30):
            a = residue_element(rng, t, field)
            b = residue_element(rng, t, field, max_len=3)
            assert pbw_mul(t, a, b) == field_pbw_mul(t, a, b)
            g = rng.randrange(t.dim)
            assert commutator_with_basis(t, g, a) == field_commutator_with_basis(t, g, a)
            f = Polynomial(t.registry, field, dict(residue_element(rng, t, field, max_len=p - 1).terms))
            assert symmetrize(t, f) == field_symmetrize(t, f)

    @pytest.mark.parametrize("p", [5, 7])
    def test_thirds_p_center_elements(self, p):
        # F4's are compared in TestWordKernel.test_p_center_elements
        t, field = MOD_P_TABLES["thirds"](), GF(p)
        for name, elt in pbw.p_center_elements(t, field):
            for g in range(t.dim):
                com = commutator_with_basis(t, g, elt)
                assert com == field_commutator_with_basis(t, g, elt), (name, g)
                assert com.is_zero, (name, g)

    @pytest.mark.parametrize("p", [5, 7])
    def test_f4_family_elements(self, f4b, f4b_fam, p):
        field = GF(p)
        lifted = 0
        for elt in sorted(f4b_fam.elements(field)):
            f = f4b_fam.element(elt, field)
            if f.total_degree() < p:
                assert symmetrize(f4b, f) == field_symmetrize(f4b, f), elt
                lifted += 1
        assert lifted >= 3

    def test_one_memo_for_every_characteristic(self):
        t = liealg.nilradical_table(liealg.f4_borel())
        symmetrize(t, invariants.build_family(t).element("c2"))
        assert [k for k in t.memo if k[0] == "pbw"] == [("pbw",)]
        size = len(t.memo[("pbw",)])
        x1 = PBWElement.monomial(t.registry, GF(3), ((0, 3),))
        for g in range(t.dim):
            commutator_with_basis(t, g, x1)
        assert [k for k in t.memo if k[0] == "pbw"] == [("pbw",)]
        assert len(t.memo[("pbw",)]) > size
        # the kernel reads the integer rows only, never rows reduced mod 3
        assert not [k for k in t.memo if k[:2] == ("row", 3)]

    def test_prime_dividing_the_scale_raises(self):
        t = liealg.table_from_dict(
            {
                "name": "heisenberg-third",
                "basis": ["x", "y", "z"],
                "cartan": [],
                "brackets": [{"lhs": "x", "rhs": "y", "value": [["1/3", "z"]]}],
            }
        )
        field = GF(3)
        x, y, z = (PBWElement.variable(t.registry, field, v) for v in "xyz")
        with pytest.raises(ZeroDivisionError, match="divisible by 3"):
            commutator_with_basis(t, "x", y)
        with pytest.raises(ZeroDivisionError, match="divisible by 3"):
            commutator_with_basis(t, "z", x)
        with pytest.raises(ZeroDivisionError, match="divisible by 3"):
            pbw_mul(t, y, x)
        with pytest.raises(ZeroDivisionError, match="divisible by 3"):
            symmetrize(t, parse_polynomial(t.registry, field, "x*y"))
        # at p = 5 the same table reduces: [x, y] = 1/3 z = 2 z
        assert commutator_with_basis(t, "x", V(t, "y", GF(5))) == V(t, "z", GF(5)).scale(2)


class TestGrLeading:
    def test_h_power(self, g2b):
        h1p = PBWElement.monomial(g2b.registry, QQ, ((0, 5),))
        e = h1p - V(g2b, "h1")
        assert str(gr_leading(e)) == "h1^5"

    def test_mixed(self, g2n):
        e = lift(g2n, "x1*x2 - 2*x3")
        assert str(gr_leading(e)) == "x1*x2"

    def test_z1(self, g2n, g2n_fam):
        assert gr_leading(naive_lift(g2n_fam.element("c1"))) == g2n_fam.element("c1")

    def test_zero_rejected(self, g2n):
        with pytest.raises(ValueError):
            gr_leading(PBWElement.zero(g2n.registry, QQ))


class TestCentrality:
    def test_z2_central_char0(self, g2n, g2n_fam):
        z2 = symmetrize(g2n, g2n_fam.element("c2"))
        ok, _ = is_central_u(g2n, z2, g2n.nilradical)
        assert ok

    def test_x5_not_central(self, g2n):
        ok, witness = is_central_u(g2n, V(g2n, "x5"), g2n.nilradical)
        assert not ok and g2n.label(witness) == "x4"

    def test_unit_central(self, g2n):
        ok, _ = is_central_u(g2n, PBWElement.monomial(g2n.registry, QQ, MONO_ONE), g2n.nilradical)
        assert ok

    def test_f4_naive_lift_verdicts(self, f4n, f4n_fam):
        # computed once, frozen: the naive lifts of c3 and c4 are not central
        for name, expect_central in (("c1", True), ("c2", True), ("c3", False), ("c4", False)):
            naive = naive_lift(f4n_fam.element(name))
            ok, witness = is_central_u(f4n, naive, f4n.nilradical)
            assert ok is expect_central, name
            if not ok:
                assert f4n.label(witness) == "x1"


class TestPCenterSuite:
    def test_g2_p5_spot(self, g2b):
        field = GF(5)
        h1p = PBWElement.monomial(g2b.registry, field, ((0, 5),))
        e = h1p - PBWElement.variable(g2b.registry, field, "h1")
        assert commutator_with_basis(g2b, "x4", e).is_zero
        x2p = PBWElement.monomial(g2b.registry, field, ((g2b.registry.index("x2"), 5),))
        assert commutator_with_basis(g2b, "x1", x2p).is_zero

    def test_abelian_trivial(self):
        from conftest import abelian_table

        claims = p_center_suite(abelian_table(), 5)
        assert all(c.passed for c in claims)

    @pytest.mark.parametrize("p", [5, 7])
    def test_g2_full(self, g2b, p):
        claims = p_center_suite(g2b, p)
        assert all(c.passed for c in claims)
        # (6 powers + 2 cartan) x 8 generators + 8 ad-power cross-checks
        assert len(claims) == 72

    @pytest.mark.parametrize("p", [3, 5])
    def test_f4_full(self, f4b, p):
        claims = p_center_suite(f4b, p)
        assert len(claims) == 28 * 28 + 28
        assert all(c.passed for c in claims)

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3), (3, 5)])
    def test_cn_full(self, n, p):
        from liecenter import liealg

        t = liealg.cn_borel(n)
        claims = p_center_suite(t, p)
        assert all(c.passed for c in claims)


class TestReduceAndLifts:
    def test_reduce_u(self, g2n):
        e = lift(g2n, "1/2*x1*x2")
        r = reduce_u(e, GF(5))
        assert r is not None and list(r.terms.values()) == [3]

    def test_reduce_u_blocked(self, g2n):
        e = lift(g2n, "1/5*x1")
        assert reduce_u(e, GF(5)) is None

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize(
        "text",
        [
            "1/2*x1*x2 + 3*x3",
            "1/3*x1 + x2",
            "1/5*x1^2 - 1/4*x6",
            "1/15*x1*x2",
            "5/3*x4 + 3/5*x5",
            "7/4*x1*x3^2 - 9*x2",
        ],
    )
    def test_reduce_u_none_exactly_when_p_divides_a_denominator(self, g2n, p, text):
        e = lift(g2n, text)
        r = reduce_u(e, GF(p))
        if any(c.denominator % p == 0 for c in e.terms.values()):
            assert r is None
            return
        expected = {}
        for m, c in e.terms.items():
            residue = c.numerator * pow(c.denominator, -1, p) % p
            if residue:
                expected[m] = residue
        assert r is not None and r.field == GF(p) and r.terms == expected

    def test_z_lift_audit_g2(self, g2n, g2n_fam):
        claims = z_lift_audit(g2n, g2n_fam, QQ)
        assert all(c.passed for c in claims)
        notes = {c.claim_id: c.note for c in claims if c.note}
        assert "central; coincides with the symmetrized lift" in notes["g2-nil.zlift.c2.char0.naive"]

    def test_text_round_trip(self, g2n):
        e = lift(g2n, "x1*x2^2 - 2*x3 + 1/2*x5")
        again = naive_lift(parse_polynomial(g2n.registry, QQ, str(e)))
        assert again == e

    def test_word_expansion(self):
        assert word_of(((0, 2), (3, 1))) == (0, 0, 3)
        assert pbw.mono_of_word((0, 0, 3)) == ((0, 2), (3, 1))
