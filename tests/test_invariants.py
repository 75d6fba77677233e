from itertools import combinations_with_replacement, groupby

import pytest

from liecenter import charp, invariants, liealg
from liecenter.exactalg import GF, QQ, Polynomial, parse_polynomial, poly_det
from liecenter.invariants import (
    OracleCapExceeded,
    anti_index,
    brute_force_invariant_space,
    compare_with_generated,
    degree_d_products,
    derive_multigrading,
)
from liecenter.poisson import ad_apply, is_invariant, poisson_bracket

from conftest import (
    homogeneous_monomials,
    is_homogeneous,
    leading_monomial,
    reference_compare_with_generated,
    reference_contained,
    reference_oracle_basis,
    table_to_dict,
    with_bracket,
)


class TestG2Family:
    def test_shapes(self, g2n_fam):
        c2 = g2n_fam.element("c2")
        assert len(c2.terms) == 3 and c2.total_degree() == 2
        assert g2n_fam.element("c1") == parse_polynomial(
            g2n_fam.table.registry, QQ, "x6"
        )

    def test_triangle(self, g2n, g2n_fam):
        claims = invariants.verify_triangle_property(g2n, g2n_fam)
        assert len(claims) == 10
        assert all(c.passed for c in claims)

    def test_v3_pairing(self, g2n, g2n_fam):
        x3 = Polynomial.variable(g2n.registry, QQ, "x3")
        assert poisson_bracket(g2n, g2n_fam.element("v3"), x3) == g2n_fam.element("c1")

    @pytest.mark.parametrize("char", [0, 5, 7])
    def test_invariance(self, g2n, g2n_fam, char):
        field = QQ if char == 0 else GF(char)
        claims = invariants.invariance_suite(g2n, g2n_fam, field)
        assert len(claims) == 12
        assert all(c.passed for c in claims)


class TestF4Family:
    def test_degrees(self, f4n_fam):
        assert [f4n_fam.element(f"c{i}").total_degree() for i in (1, 2, 3, 4)] == [1, 2, 4, 6]

    def test_all_elements_homogeneous(self, f4n_fam, g2n_fam):
        for fam in (f4n_fam, g2n_fam):
            for name, f in fam.elements().items():
                assert is_homogeneous(f), name

    def test_chain_examples(self, f4n, f4n_fam):
        v4 = f4n_fam.element("v4")
        u9 = f4n_fam.element("u9")
        assert ad_apply(f4n, "x4", v4) == -f4n_fam.element("c2")
        assert ad_apply(f4n, "x4", u9) == v4
        assert ad_apply(f4n, "x7", f4n_fam.element("v7")) == -f4n_fam.element("c2")
        assert ad_apply(f4n, "x5", f4n_fam.element("u6")).is_zero

    def test_c3_composition(self, f4n_fam):
        c3 = f4n_fam.element("c2") * f4n_fam.element("u9") + (
            f4n_fam.element("v4") * f4n_fam.element("v4")
        ).scale("1/2")
        assert c3 == f4n_fam.element("c3")

    def test_chain_full(self, f4n, f4n_fam, f4b, f4b_fam):
        claims = invariants.verify_relation_chain(f4n, f4n_fam)
        assert len(claims) == 216  # 9 elements x 24 generators
        assert all(c.passed for c in claims)
        noted = [c.claim_id for c in claims if c.status == "derived-with-note"]
        assert noted == ["f4-nil.chain.u6.x3"]
        # the Borel table adds the nine Cartan weight facts
        claims_b = invariants.verify_relation_chain(f4b, f4b_fam)
        assert len(claims_b) == 225
        assert all(c.passed for c in claims_b)

    def test_triangle_full(self, f4n, f4n_fam):
        claims = invariants.verify_triangle_property(f4n, f4n_fam)
        assert len(claims) == 210
        assert all(c.passed for c in claims)

    @pytest.mark.parametrize("char", [0, 3, 5])
    def test_invariance(self, f4n, f4n_fam, char):
        field = QQ if char == 0 else GF(char)
        claims = invariants.invariance_suite(f4n, f4n_fam, field)
        assert len(claims) == 96
        assert all(c.passed for c in claims)

    def test_v8_correction_is_recorded(self, f4n_fam):
        assert any("v8" in note for note in f4n_fam.notes)
        assert f4n_fam.element("v8") == parse_polynomial(
            f4n_fam.table.registry, QQ, "-x21"
        )


# The G2 and F4 formulas parsed and multiplied out over each field in turn,
# kept as the reference that the reductions of the QQ elements are checked
# against.


def reference_g2_defs(registry, field):
    def P(text):
        return parse_polynomial(registry, field, text)

    return {
        "c1": P("x6"),
        "c2": P("3*x1*x6 - 3*x2*x5 + x3^2"),
        "v2": P("-1/3*x3"),
        "v3": P("1/3*x2"),
        "v4": P("x5"),
        "v5": P("-x4"),
    }


def reference_f4_defs(registry, field):
    def P(text):
        return parse_polynomial(registry, field, text)

    e = {}
    e["c1"] = P("x24")
    e["c2"] = P("2*x16*x24 - 2*x18*x23 - x20*x22 + x21^2")
    e["v4"] = P("-2*x13*x24 + 2*x15*x23 + x17*x22 - x19*x21")
    e["u9"] = P("x9*x24 - x11*x23 + x14*x22 - 1/2*x19^2")
    e["c3"] = e["c2"] * e["u9"] + (e["v4"] * e["v4"]).scale("1/2")
    e["v7"] = P("2*x10*x24 - 2*x12*x23 + x19*x20 - x17*x21")
    e["u6"] = P("x6*x24 - x8*x23 + x14*x21 - 1/2*x17*x19")
    e["v3"] = -(e["c2"] * e["u6"]) + (e["v4"] * e["v7"]).scale("1/2")
    e["u2"] = P("x2*x24 - x5*x23 - 1/2*x14*x20 + 1/4*x17^2")
    e["w3"] = e["u9"] * e["v7"] + e["u6"] * e["v4"]
    e["c4"] = (
        -(e["u2"] * e["c3"])
        + (e["u6"] * e["v3"]).scale("1/2")
        + (e["v7"] * e["w3"]).scale("1/4")
    )
    e["v23"] = P("x1")
    e["v22"] = P("x5")
    e["v21"] = P("x8")
    e["v20"] = P("-1/2*x11")
    e["v19"] = P("x12")
    e["v18"] = P("-x14")
    e["v17"] = P("-x15")
    e["v15"] = P("x17")
    e["v14"] = P("x18")
    e["v12"] = P("-x19")
    e["v11"] = P("1/2*x20")
    e["v8"] = P("-x21")
    e["v5"] = P("-x22")
    e["v1"] = P("-x23")
    e["v13"] = P("2*x4*x24 - 2*x17*x18 + 2*x15*x20 - 2*x12*x21")
    e["v10"] = P("-2*x7*x24 + 2*x18*x19 + 2*x12*x22 - 2*x15*x21")
    e["u3"] = P("-x3*x24 - x11*x21 + x8*x22 - x15*x19")
    e["v6"] = -(e["c2"] * e["u3"]) + (e["v4"] * e["v10"]).scale("1/2")
    return e


class TestReducedFamilies:
    """Over GF(p) a family is the reduction of its QQ elements; it must equal
    the family built over GF(p) from the start."""

    @pytest.mark.parametrize("level", ["borel", "nil"])
    @pytest.mark.parametrize("name", ["g2", "f4"])
    def test_matches_per_field_reference(self, name, level):
        t = {"g2": liealg.g2_borel, "f4": liealg.f4_borel}[name]()
        if level == "nil":
            t = liealg.nilradical_table(t)
        reference = {"g2": reference_g2_defs, "f4": reference_f4_defs}[name]
        fam = invariants.build_family(t)
        primes = [p for p in (3, 5, 7) if not invariants.inadmissible_reason(t, p)]
        assert primes == ([5, 7] if name == "g2" else [3, 5, 7])
        for field in [GF(p) for p in primes] + [QQ]:
            assert fam.elements(field) == reference(t.registry, field)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cn_unchanged(self, n):
        t = liealg.cn_borel(n)
        grid = reference_m_matrix(t, n, "halve-shared")
        fam = invariants.cn_invariants(t)
        for p in (3, 5, 7):
            field = GF(p)
            expected = {
                f"c{i}": Polynomial.from_terms(
                    t.registry, field, poly_det(reference_block(grid, i)).terms.items()
                )
                for i in range(1, n + 1)
            }
            assert fam.elements(field) == expected


# The three entry scalings of the Cn arrangement, kept as the reference that
# the fixed arrangement of invariants._build_m_matrix is checked against:
# the literal labels, the shared c-entries halved, or the b-diagonal doubled.
CN_CONVENTIONS = ("literal", "halve-shared", "double-diagonal")


def reference_m_matrix(t, n, convention):
    size = 2 * n
    reg = t.registry
    zero = Polynomial.zero(reg, QQ)
    grid = [[zero for _ in range(size)] for _ in range(size)]

    def var(label):
        return Polynomial.variable(reg, QQ, label)

    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i != j:
                a = var(f"a{i}_{j}")
                grid[i - 1][j - 1] = a
                grid[anti_index(size, j) - 1][anti_index(size, i) - 1] = a
            if i == j:
                b = var(f"b{i}")
                if convention == "double-diagonal":
                    b = b.scale(2)
                grid[i - 1][anti_index(size, i) - 1] = b
            else:
                c = var(f"c{i}_{j}")
                if convention == "halve-shared":
                    c = c.scale("1/2")
                grid[i - 1][anti_index(size, j) - 1] = c
                grid[j - 1][anti_index(size, i) - 1] = c
    return grid


def reference_block(grid, i):
    """The i-th right-upper block (rows 1..i, last i columns), 1-based."""
    size = len(grid)
    return [[grid[r][c] for c in range(size - i, size)] for r in range(i)]


def reference_selection(t):
    """Each convention's verdict (all block determinants nonzero and
    nilradical-invariant) and the determinants of the first one that passes,
    in the order of CN_CONVENTIONS."""
    n = invariants._cn_rank(t)
    verdicts, chosen = {}, None
    for convention in CN_CONVENTIONS:
        grid = reference_m_matrix(t, n, convention)
        cs = {f"c{i}": poly_det(reference_block(grid, i)) for i in range(1, n + 1)}
        verdicts[convention] = all(
            is_invariant(t, f, t.nilradical)[0] and not f.is_zero for f in cs.values()
        )
        if verdicts[convention] and chosen is None:
            chosen = cs
    return verdicts, chosen


class TestCnFamily:
    def test_anti_index(self):
        assert anti_index(6, 2) == 5

    def test_family_is_built_lazily(self, monkeypatch):
        calls = []

        def counting_det(matrix):
            calls.append(len(matrix))
            return poly_det(matrix)

        monkeypatch.setattr(invariants, "poly_det", counting_det)
        t = liealg.cn_borel(4)
        fam = invariants.build_family(t)
        assert calls == []
        grid = reference_m_matrix(t, 4, "halve-shared")
        expected = {f"c{i}": poly_det(reference_block(grid, i)) for i in range(1, 5)}
        assert fam.elements() == expected
        assert calls == [1, 2, 3, 4]

    def test_c1_is_corner_variable(self, c2b):
        t = c2b
        fam = invariants.cn_invariants(t)
        assert fam.element("c1") == Polynomial.variable(t.registry, QQ, "b1")

    def test_convention_selection(self, c2b):
        verdicts, chosen = reference_selection(c2b)
        assert verdicts["literal"] is False
        assert verdicts["halve-shared"] is True
        assert verdicts["double-diagonal"] is True
        fam = invariants.cn_invariants(c2b)
        assert {name: fam.element(name) for name in fam.central} == chosen

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matrix_matches_reference(self, n):
        t = liealg.cn_borel(n)
        assert invariants._build_m_matrix(t, n) == reference_m_matrix(t, n, "halve-shared")

    @pytest.mark.parametrize("level", ["borel", "nil"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_elements_match_reference_selection(self, n, level):
        t = liealg.cn_borel(n)
        if level == "nil":
            t = liealg.nilradical_table(t)
        _, chosen = reference_selection(t)
        fam = invariants.cn_invariants(t)
        assert fam.central == tuple(chosen)
        for field in (QQ, GF(5)):
            for name, poly in chosen.items():
                assert fam.element(name, field) == Polynomial.from_terms(
                    t.registry, field, poly.terms.items()
                )

    def test_n2_c2_value(self, c2b):
        t = c2b
        fam = invariants.cn_invariants(t)
        # a scalar multiple of 4*b1*b2 - c1_2^2
        target = parse_polynomial(t.registry, QQ, "4*b1*b2 - c1_2^2")
        c2 = fam.element("c2")
        lead = c2.terms[leading_monomial(target)]
        assert c2 == target.scale(lead / 4)

    def test_literal_determinant_not_invariant(self, c2b):
        t = c2b
        m = reference_m_matrix(t, 2, "literal")
        det = poly_det(reference_block(m, 2))
        ok, bad = is_invariant(t, det, t.nilradical)
        assert not ok
        assert t.label(bad) == "a1_2"

    @pytest.mark.parametrize("n", [2, 3])
    def test_scaling_independence(self, n):
        t = liealg.cn_borel(n)
        for i in range(1, n + 1):
            d1 = poly_det(reference_block(reference_m_matrix(t, n, "halve-shared"), i))
            d2 = poly_det(reference_block(reference_m_matrix(t, n, "double-diagonal"), i))
            lead = leading_monomial(d1)
            ratio = d2.terms[lead] / d1.terms[lead]
            assert ratio != 0
            assert d2 == d1.scale(ratio)
            ok1, _ = is_invariant(t, d1, t.nilradical)
            ok2, _ = is_invariant(t, d2, t.nilradical)
            assert ok1 and ok2

    @pytest.mark.parametrize("n", [2, 3])
    def test_degrees_and_weights(self, n):
        t = liealg.cn_borel(n)
        fam = invariants.cn_invariants(t)
        from liecenter.poisson import weight_of

        for i in range(1, n + 1):
            ci = fam.element(f"c{i}")
            assert ci.total_degree() == i
            weights, bad = weight_of(t, ci)
            assert bad is None
            assert weights == tuple(2 if k <= i else 0 for k in range(1, n + 1))

    def test_matrix_antidiagonal_symmetry(self, c3b):
        m = invariants._build_m_matrix(c3b, 3)
        size = len(m)
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                assert (
                    m[i - 1][j - 1]
                    == m[anti_index(size, j) - 1][anti_index(size, i) - 1]
                )

    @pytest.mark.parametrize("char", [0, 3, 5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_invariance(self, n, char):
        t = liealg.cn_borel(n)
        fam = invariants.cn_invariants(t)
        field = QQ if char == 0 else GF(char)
        claims = invariants.invariance_suite(t, fam, field)
        assert len(claims) == n * n * n
        assert all(c.passed for c in claims)


class TestOracle:
    def test_monomial_enumeration(self):
        monos = homogeneous_monomials(3, 2)
        assert len(monos) == 6
        assert len(set(monos)) == 6
        assert all(sum(e for _, e in m) == 2 for m in monos)

    @pytest.mark.parametrize("nvars", range(1, 7))
    @pytest.mark.parametrize("degree", range(5))
    def test_index_tuples_follow_the_reference_enumeration(self, nvars, degree):
        # the oracle's columns: sorted index tuples, (0, 0, 2) for x0^2 x2
        tuples = combinations_with_replacement(range(nvars), degree)
        monos = [tuple((v, len(list(run))) for v, run in groupby(idx)) for idx in tuples]
        assert monos == homogeneous_monomials(nvars, degree)

    def test_multigrading_g2(self, g2n):
        gradings = derive_multigrading(g2n)
        assert len(gradings) == 2
        for (i, j), entry in g2n.brackets.items():
            for k, c in entry:
                for g in gradings:
                    assert g[i] + g[j] == g[k]

    def test_g2_degree_one(self, g2n):
        assert brute_force_invariant_space(g2n, 1, g2n.nilradical, QQ) == 1
        basis = reference_oracle_basis(g2n, 1, g2n.nilradical, QQ)
        assert basis == [Polynomial.variable(g2n.registry, QQ, "x6")]

    def test_g2_degree_two(self, g2n):
        assert brute_force_invariant_space(g2n, 2, g2n.nilradical, QQ) == 2
        assert len(reference_oracle_basis(g2n, 2, g2n.nilradical, QQ)) == 2

    def test_f4_degree_two(self, f4n):
        assert brute_force_invariant_space(f4n, 2, f4n.nilradical, QQ) == 2
        assert len(reference_oracle_basis(f4n, 2, f4n.nilradical, QQ)) == 2

    def test_oracle_output_is_invariant(self, g2n):
        for d in (2, 3):
            basis = reference_oracle_basis(g2n, d, g2n.nilradical, QQ)
            assert brute_force_invariant_space(g2n, d, g2n.nilradical, QQ) == len(basis)
            for f in basis:
                ok, _ = is_invariant(g2n, f, g2n.nilradical)
                assert ok and is_homogeneous(f) and f.total_degree() == d

    def test_cap_exceeded(self, f4b, monkeypatch):
        # a new table, so no solved space is served from the memo
        t = liealg.nilradical_table(f4b)
        monkeypatch.setattr(invariants, "ORACLE_MAX_ENTRIES", 100)
        with pytest.raises(OracleCapExceeded, match="exceeds 100 matrix entries"):
            brute_force_invariant_space(t, 4, t.nilradical, QQ)

    def test_g2_char0_dimension_profile(self, g2n, g2n_fam):
        gens = [(name, g2n_fam.element(name)) for name in ("c1", "c2")]
        dims = []
        for d in range(1, 7):
            dim = brute_force_invariant_space(g2n, d, g2n.nilradical, QQ)
            res = compare_with_generated(g2n, dim, gens, d, QQ, g2n.nilradical)
            assert res["equal"]
            dims.append(res["oracle_dim"])
        assert dims == [1, 2, 2, 3, 3, 4]

    def test_c2_char0_profile(self, c2b):
        t = c2b
        nil = liealg.nilradical_table(t)
        fam = invariants.cn_invariants(nil)
        gens = [("c1", fam.element("c1")), ("c2", fam.element("c2"))]
        dims = []
        for d in (1, 2):
            dim = brute_force_invariant_space(nil, d, nil.nilradical, QQ)
            res = compare_with_generated(nil, dim, gens, d, QQ, nil.nilradical)
            assert res["equal"]
            dims.append(res["oracle_dim"])
        assert dims == [1, 2]

    def test_degree_products_enumeration(self, g2n_fam):
        gens = [(n, g2n_fam.element(n)) for n in ("c1", "c2")]
        c1, c2 = (poly for _, poly in gens)
        assert degree_d_products(gens, 4) == [c2**2, c1**2 * c2, c1**4]

    def test_compare_detects_mismatch(self, g2n, g2n_fam):
        dim = brute_force_invariant_space(g2n, 2, g2n.nilradical, QQ)
        res = compare_with_generated(g2n, dim, [("c1", g2n_fam.element("c1"))], 2, QQ, g2n.nilradical)
        assert not res["equal"] and res["contained"]
        assert res["generated_dim"] == 1 and res["oracle_dim"] == 2

    def test_bracket_free_table_is_bounded(self, g2b, monkeypatch):
        # g2's labels with no brackets: every degree-8 monomial in the 8
        # variables is its own row-less block, C(15, 7) of them, and the
        # memo keeps their count, not a basis
        data = table_to_dict(g2b)
        data["brackets"] = []
        t = liealg.table_from_dict(data)
        assert brute_force_invariant_space(t, 8, t.nilradical, QQ) == 6435
        assert type(t.memo[("oracle", 0, 8, tuple(t.nilradical))]) is int

        # at degree 30 its C(37, 30) = 10,295,472 columns alone exceed the
        # cap: the oracle refuses before it enumerates one
        def enumerate_columns(*args):
            raise AssertionError("columns enumerated past the cap")

        monkeypatch.setattr(invariants, "combinations_with_replacement", enumerate_columns)
        with pytest.raises(invariants.OracleCapExceeded, match=f"exceeds {invariants.ORACLE_MAX_ENTRIES} matrix entries"):
            brute_force_invariant_space(t, 30, t.nilradical, QQ)


def _catalog_borels():
    yield "g2", liealg.g2_borel, (5, 7)
    yield "f4", liealg.f4_borel, (3, 5, 7)
    for n in range(2, 6):
        yield f"c{n}", lambda n=n: liealg.cn_borel(n), (3, 5, 7)


def _dimension_cases():
    for name, build, primes in _catalog_borels():
        for level in ("nil", "borel"):
            for char in (0, *primes):
                yield pytest.param(build, level, char, id=f"{name}-{level}-char{char}")


@pytest.mark.parametrize("build, level, char", _dimension_cases())
def test_oracle_dimension_is_the_reference_basis_length(build, level, char):
    """The oracle's dimension against the length of the basis the reference
    builds, under the nilradical and under every basis element, up to the
    family's default degree."""
    field = GF(char) if char else QQ
    t = build()
    t = liealg.nilradical_table(t) if level == "nil" else liealg.StructureTable(
        t.name, t.registry, t.brackets, t.cartan, t.nilradical, t.excluded_primes
    )
    for gens in {tuple(t.nilradical), tuple(range(t.dim))}:
        for d in range(1, invariants.oracle_degree(t) + 1):
            dim = brute_force_invariant_space(t, d, gens, field)
            assert dim == len(reference_oracle_basis(t, d, gens, field)), (t.name, gens, d)


def _broken_g2():
    # [x1, x3] = -3*x5 breaks the Jacobi identity, so the invariants change
    return liealg.nilradical_table(with_bracket(liealg.g2_borel(), "x1", "x3", "-3*x5"))


# name -> (table builder, characteristics)
COMPARE_TABLES = {
    "g2-nil": (lambda: liealg.nilradical_table(liealg.g2_borel()), (0, 5)),
    "f4-nil": (lambda: liealg.nilradical_table(liealg.f4_borel()), (0, 3)),
    "g2-broken": (_broken_g2, (0, 5)),
}


def compared(t, gens, generators, d, field):
    """The comparison at degree d, asserted to agree with the union-rank
    reference on the reference's basis."""
    got = compare_with_generated(
        t, brute_force_invariant_space(t, d, gens, field), generators, d, field, gens
    )
    want = reference_compare_with_generated(
        t, reference_oracle_basis(t, d, gens, field), generators, d, field
    )
    fields = ("degree", "oracle_dim", "generated_dim", "equal")
    assert [got[k] for k in fields] == [want[k] for k in fields], (t.name, d)
    assert got["contained"] == (want["union_dim"] == want["oracle_dim"]), (t.name, d)
    return got


@pytest.mark.parametrize(
    "name, char", [(name, char) for name, (_, chars) in COMPARE_TABLES.items() for char in chars]
)
def test_comparison_matches_the_union_rank_reference(name, char):
    """With the family's generators, and with its degree-1 generator
    replaced by a non-invariant variable, so that at degree 1 the dimensions
    agree and only containment fails; on the table with a broken bracket
    the family's own generators are no longer all invariant."""
    field = GF(char) if char else QQ
    t = COMPARE_TABLES[name][0]()
    own = charp.invariant_generators(t, invariants.build_family(t), field)
    x = next(
        Polynomial.variable(t.registry, field, i)
        for i in t.nilradical
        if not is_invariant(t, Polynomial.variable(t.registry, field, i), t.nilradical)[0]
    )
    spoiled = [(str(x), x) if poly.total_degree() == 1 else (n, poly) for n, poly in own]
    for generators in (own, spoiled):
        results = [compared(t, t.nilradical, generators, d, field) for d in range(1, 4)]
        assert all(res["equal"] for res in results) == (generators is own and name != "g2-broken")
    assert results[0]["oracle_dim"] == results[0]["generated_dim"] and not results[0]["contained"]


@pytest.mark.parametrize("char", [0, 5])
def test_comparison_under_every_basis_element(g2b, char):
    """The G2 Borel algebra under all of its basis elements: c1 and c2 are
    Cartan weight vectors, invariant under the nilradical only, so the
    containment must be decided under the generators the space is taken
    under, as the union-rank reference decides it."""
    field = GF(char) if char else QQ
    generators = charp.invariant_generators(g2b, invariants.build_family(g2b), field)
    for d in range(1, 4):
        assert not compared(g2b, tuple(range(g2b.dim)), generators, d, field)["contained"]


def _containment_cases():
    for name, build, primes in _catalog_borels():
        for level in ("nil", "borel"):
            yield pytest.param(build, level, (0, *primes), id=f"{name}-{level}")


@pytest.mark.parametrize("build, level, chars", _containment_cases())
def test_containment_matches_the_per_product_reference(build, level, chars):
    """The generators-first containment verdict against the per-product
    one, for the claimed generators under the nilradical and, on a Borel
    table, under every basis element, where the nilradical invariants are
    not all invariant and the products decide."""
    t = build()
    t = liealg.nilradical_table(t) if level == "nil" else t
    fam = invariants.build_family(t)
    verdicts = set()
    for char in chars:
        field = GF(char) if char else QQ
        generators = charp.invariant_generators(t, fam, field)
        for gens in {tuple(t.nilradical), tuple(range(t.dim))}:
            for d in range(1, invariants.oracle_degree(t) + 1):
                got = compare_with_generated(t, 0, generators, d, field, gens)["contained"]
                assert got == reference_contained(t, generators, d, gens), (t.name, char, gens, d)
                verdicts.add(got)
    assert verdicts == ({True, False} if t.cartan else {True})


def test_containment_reads_the_products_when_a_generator_fails(g2n):
    # over GF(5), {y, x^5} = 5*x^4*{y, x} = 0: the fifth power of a
    # non-invariant variable is invariant, so a failing generator does not
    # decide containment
    field = GF(5)
    x = next(
        Polynomial.variable(g2n.registry, field, i)
        for i in g2n.nilradical
        if not is_invariant(g2n, Polynomial.variable(g2n.registry, field, i), g2n.nilradical)[0]
    )
    for d, contained in ((4, False), (5, True)):
        assert compare_with_generated(g2n, 0, [("x", x)], d, field, g2n.nilradical)["contained"] is contained
        assert reference_contained(g2n, [("x", x)], d, g2n.nilradical) is contained
