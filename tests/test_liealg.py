import json
from fractions import Fraction

import pytest

from liecenter import _f4_data, liealg
from liecenter._f4_data import F4_CARTAN_MATRIX, F4_ROOTS
from liecenter.exactalg import GF, QQ, VarRegistry, parse_polynomial
from liecenter.liealg import (
    AdPowerResult,
    Correction,
    StructureTable,
    TableDataError,
    ad_power_identity,
    ad_vector,
    jacobi_check,
)

from conftest import (
    abelian_table,
    reference_bracket_row,
    save_table,
    table_to_dict,
    with_bracket,
)


# -- dense reference for the ad-power identities -------------------------------


def ad_matrix(t, i, field=QQ):
    """Matrix of ad(basis_i) on the full basis: column j holds the
    coordinates of [x_i, x_j]."""
    i = t.registry.resolve(i)
    cols = []
    for j in range(t.dim):
        col = [field.zero] * t.dim
        for k, c in t.bracket_coords(i, j).items():
            col[k] = field.coerce(c)
        cols.append(col)
    return tuple(tuple(cols[c][r] for c in range(t.dim)) for r in range(t.dim))


def mat_mul(a, b, field):
    bt = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = field.zero
            for x, y in zip(row, col):
                acc = field.add(acc, field.mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_pow(a, k, field):
    n = len(a)
    result = tuple(
        tuple(field.one if r == c else field.zero for c in range(n)) for r in range(n)
    )
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base, field)
        k >>= 1
        if k:
            base = mat_mul(base, base, field)
    return result


def dense_ad_power_identity(t, i, p):
    """(ad x)^p = 0 or (ad h)^p = ad h as an identity of dense matrices."""
    t.check_characteristic(p)
    i = t.registry.resolve(i)
    fp = GF(p)
    m = ad_matrix(t, i, fp)
    power = mat_pow(m, p, fp)
    if i in t.cartan:
        kind, ok = "cartan", power == m
    else:
        kind, ok = "nilpotent", all(x == 0 for row in power for x in row)
    return AdPowerResult(t.name, t.label(i), kind, p, ok)


# -- dense reference for the Cn realization ----------------------------------


def dense_cn_realization(n):
    """label -> the basis matrix as a 2n x 2n tuple of row tuples."""
    size = 2 * n

    def unit(entries):
        return tuple(tuple(entries.get((r, c), 0) for c in range(size)) for r in range(size))

    mats = {}
    for i in range(1, n + 1):
        mats[f"h{i}"] = unit({(i - 1, i - 1): 1, (n + i - 1, n + i - 1): -1})
        mats[f"b{i}"] = unit({(i - 1, n + i - 1): 1})
        for j in range(i + 1, n + 1):
            mats[f"a{i}_{j}"] = unit({(i - 1, j - 1): 1, (n + j - 1, n + i - 1): -1})
            mats[f"c{i}_{j}"] = unit({(i - 1, n + j - 1): 1, (j - 1, n + i - 1): 1})
    return mats


def dense_commutator(a, b):
    size = len(a)

    def prod(x, y):
        return [[sum(x[r][k] * y[k][c] for k in range(size)) for c in range(size)] for r in range(size)]

    ab, ba = prod(a, b), prod(b, a)
    return tuple(tuple(ab[r][c] - ba[r][c] for c in range(size)) for r in range(size))


def defining_position(n, label):
    """The matrix entry that holds this basis element's coefficient."""
    kind, body = label[0], label[1:]
    if kind in "hb":
        i = int(body)
        return (i - 1, i - 1) if kind == "h" else (i - 1, n + i - 1)
    i, j = (int(s) for s in body.split("_"))
    return (i - 1, j - 1) if kind == "a" else (i - 1, n + j - 1)


def dense_cn_borel(n):
    """The Cn Borel table from dense commutators, each decomposed at the
    defining positions and checked against every matrix entry."""
    mats = dense_cn_realization(n)
    cartan, nil = liealg.cn_basis_labels(n)
    labels = cartan + nil
    size = 2 * n
    brackets = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            comm = dense_commutator(mats[labels[i]], mats[labels[j]])
            coords = {}
            for k, lab in enumerate(labels):
                r, c = defining_position(n, lab)
                if comm[r][c]:
                    coords[k] = Fraction(comm[r][c])
            for r in range(size):
                for c in range(size):
                    acc = sum(coef * mats[labels[k]][r][c] for k, coef in coords.items())
                    assert acc == comm[r][c], (labels[i], labels[j])
            if coords:
                brackets[(i, j)] = tuple(sorted(coords.items()))
    return StructureTable(
        f"c{n}-borel", VarRegistry(labels), brackets, range(n), range(n, len(labels)), (2,)
    )


def catalog_borel(name):
    if name == "g2-borel":
        return liealg.g2_borel()
    if name == "f4-borel":
        return liealg.f4_borel()
    return liealg.cn_borel(int(name[1]))


class TestCatalogDimensions:
    def test_g2(self, g2b, g2n):
        assert g2b.dim == 8 and len(g2b.nilradical) == 6
        assert g2n.dim == 6
        assert g2b.excluded_primes == {2, 3}

    def test_f4(self, f4b, f4n):
        assert f4b.dim == 28 and len(f4b.nilradical) == 24
        assert f4n.dim == 24
        assert f4b.excluded_primes == {2}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cn(self, n):
        t = liealg.cn_borel(n)
        real = liealg.cn_realization(n)
        assert t.dim == n * n + n
        assert len(t.nilradical) == n * n
        assert {x for m in real.values() for pos in m for x in pos} == set(range(2 * n))


class TestJacobi:
    def test_abelian_passes(self):
        assert jacobi_check(abelian_table()).ok

    def test_g2_all_triples(self, g2b):
        report = jacobi_check(g2b)
        assert report.triples_checked == 56
        assert report.ok

    def test_f4_all_triples(self, f4b):
        report = jacobi_check(f4b)
        assert report.triples_checked == 3276
        assert report.ok

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cn_no_corrections(self, n):
        t = liealg.cn_borel(n)
        assert not t.corrections
        assert jacobi_check(t).ok

    def test_mutated_table_detected(self, g2b):
        bad = with_bracket(g2b, "h1", "x1", "x1")
        report = jacobi_check(bad)
        assert not report.ok
        assert report.failures[0].triple == ("h1", "x1", "x2")


class TestBrackets:
    def test_g2_spot_values(self, g2b):
        assert str(g2b.bracket("h1", "x4")) == "2*x4"
        assert str(g2b.bracket("x1", "x2")) == "2*x3"
        assert g2b.bracket("x4", "x4").is_zero

    def test_f4_spot_values(self, f4b):
        assert str(f4b.bracket("x6", "x12")) == "-1/2*x17"
        assert str(f4b.bracket("x23", "x1")) == "-x24"

    def test_antisymmetry(self, g2b, f4b):
        for t in (g2b, f4b):
            for i in range(t.dim):
                for j in range(t.dim):
                    assert t.bracket(i, j) == -t.bracket(j, i)

    def test_nilradical_is_ideal(self, g2b, f4b):
        assert not liealg.check_nilradical_ideal(g2b)
        assert not liealg.check_nilradical_ideal(f4b)

    def test_f4_cartan_action_matches_root_pairing(self, f4b):
        # [h_j, x_i] must equal (sum_k m_k A[k][j]) x_i for the root m of x_i
        for xi, root in enumerate(F4_ROOTS):
            label = f"x{xi + 1}"
            for hj in range(4):
                scalar = sum(m * F4_CARTAN_MATRIX[k][hj] for k, m in enumerate(root))
                expected = parse_polynomial(f4b.registry, QQ, f"{scalar}*{label}" if scalar else "0")
                assert f4b.bracket(f"h{hj + 1}", label) == expected


class TestAdjoint:
    def test_ad_h1_diagonal(self, g2b):
        m = ad_matrix(g2b, "h1")
        diag = [m[i][i] for i in range(8)]
        assert diag == [0, 0, -1, 1, 0, 2, -1, 1]
        off = [m[i][j] for i in range(8) for j in range(8) if i != j]
        assert all(x == 0 for x in off)

    def test_ad_self_column_zero(self, g2b):
        i = g2b.registry.index("x1")
        m = ad_matrix(g2b, "x1")
        assert all(m[r][i] == 0 for r in range(8))

    def test_ad_x1_nilpotency_degree_four(self, g2n):
        # the chain x4 -> x2 -> 2 x3 -> 6 x5 -> 0 makes (ad x1)^3 nonzero
        m = ad_matrix(g2n, "x1")
        cube = mat_pow(m, 3, QQ)
        x4 = g2n.registry.index("x4")
        x5 = g2n.registry.index("x5")
        assert cube[x5][x4] == 6
        fourth = mat_pow(m, 4, QQ)
        assert all(x == 0 for row in fourth for x in row)

    def test_ad_power_identity(self, g2b):
        assert ad_power_identity(g2b, "h1", 5).ok
        assert ad_power_identity(g2b, "x1", 5).ok

    def test_ad_power_abelian(self):
        t = abelian_table()
        assert ad_power_identity(t, 0, 5).ok

    def test_excluded_prime_rejected(self, g2b):
        with pytest.raises(ValueError):
            ad_power_identity(g2b, "x1", 3)

    @pytest.mark.parametrize("name", ["g2-borel", "f4-borel", "c2-borel", "c3-borel", "c4-borel"])
    def test_matches_dense_reference(self, name):
        t = catalog_borel(name)
        for p in (3, 5, 7):
            if not t.admissible_characteristic(p):
                continue
            for i in range(t.dim):
                assert ad_power_identity(t, i, p) == dense_ad_power_identity(t, i, p)

    @pytest.mark.parametrize(
        "lhs,rhs,value",
        [
            # x2 becomes an eigenvector of ad x1 with eigenvalue 1
            ("x1", "x2", "x2"),
            # ad h1 gets the Jordan block x1 -> x1 + x2 -> x2, whose p-th power is 1
            ("h1", "x1", "x1 + x2"),
        ],
    )
    def test_mutated_bracket_fails(self, g2b, lhs, rhs, value):
        t = with_bracket(g2b, lhs, rhs, value)
        assert not ad_power_identity(t, lhs, 5).ok
        for i in range(t.dim):
            assert ad_power_identity(t, i, 5) == dense_ad_power_identity(t, i, 5)


class TestCnRealization:
    def test_commutator_examples_n2(self, c2b):
        t = c2b
        # a = e12 - e43, c = e24, d = e14 + e23, b = e13
        assert str(t.bracket("a1_2", "b2")) == "c1_2"
        assert str(t.bracket("a1_2", "c1_2")) == "2*b1"
        assert t.bracket("a1_2", "b1").is_zero

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_matrix_commutators(self, n):
        t = liealg.cn_borel(n)
        real = dense_cn_realization(n)
        labels = t.registry.names
        for i in range(t.dim):
            for j in range(i + 1, t.dim):
                comm = dense_commutator(real[labels[i]], real[labels[j]])
                coords = t.bracket_coords(i, j)
                size = 2 * n
                for r in range(size):
                    for c in range(size):
                        acc = sum(
                            coef * real[labels[k]][r][c] for k, coef in coords.items()
                        )
                        assert acc == comm[r][c]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_dense_reference(self, n):
        real, dense = liealg.cn_realization(n), dense_cn_realization(n)
        assert sorted(real) == sorted(dense)
        for label, mat in real.items():
            assert next(iter(mat)) == defining_position(n, label)
            assert {(r, c): x for r, row in enumerate(dense[label]) for c, x in enumerate(row) if x} == mat
        t, ref = liealg.cn_borel(n), dense_cn_borel(n)
        assert t.registry == ref.registry
        assert (t.cartan, t.nilradical) == (ref.cartan, ref.nilradical)
        assert t.brackets == ref.brackets

    def test_commutator_outside_span_rejected(self, monkeypatch):
        # h1 = e(1,1) alone: [h1, a1_2] = e(1,2) is not a multiple of a1_2
        real = liealg.cn_realization(2)
        real["h1"] = {(0, 0): 1}
        monkeypatch.setattr(liealg, "cn_realization", lambda n: real)
        with pytest.raises(TableDataError, match=r"\[h1,a1_2\] is not in the basis span"):
            liealg.cn_borel(2)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            liealg.cn_borel(0)


# -- reference for the catalog builders: the printed-text path ---------------


def reference_f4_raw_brackets():
    """The printed F4 cells merged as text, with the antisymmetry and root
    additivity cross-checks, each cell parsed as often as it is compared."""
    registry = VarRegistry(_f4_data.F4_HS + _f4_data.F4_XS)
    cell = {}
    for data, offset in ((_f4_data.F4_TABLE_LOW, 1), (_f4_data.F4_TABLE_HIGH, 13)):
        for row_label, entries in data.items():
            assert len(entries) == 12
            for c, text in enumerate(entries):
                cell[(row_label, f"x{offset + c}")] = text
    roots = {f"x{i + 1}": r for i, r in enumerate(F4_ROOTS)}
    raw = {}
    for (row, col), text in cell.items():
        value = liealg._parse_lincomb(registry, text)
        if row in roots:
            assert not (row == col and value)
            mirror = liealg._parse_lincomb(registry, cell[(col, row)])
            assert tuple((k, -c) for k, c in mirror) == value
        if value and row in roots and col in roots:
            target = tuple(a + b for a, b in zip(roots[row], roots[col]))
            assert len(value) == 1 and roots.get(registry.name(value[0][0])) == target
        if registry.index(row) < registry.index(col) and value:
            raw[(row, col)] = text
    return raw


def reference_build(name, labels, cartan_labels, raw, excluded_primes, corrections=()):
    """The overlay applied to the printed texts, then one parse per kept
    text: the string path that ``g2_borel``, ``f4_borel`` and
    ``apply_corrections`` replace.  Each correction records the text it
    replaced."""
    registry = VarRegistry(labels)
    data, applied = dict(raw), []
    for corr in corrections:
        lhs, rhs, value = corr["lhs"], corr["rhs"], corr["value"]
        if lhs not in registry or rhs not in registry:
            raise TableDataError(f"correction names unknown basis label: {corr}")
        applied.append(Correction(lhs, rhs, value, data.get((lhs, rhs), "0")))
        data[(lhs, rhs)] = value
    brackets = {}
    for (lhs, rhs), text in data.items():
        i, j = registry.index(lhs), registry.index(rhs)
        if i >= j:
            raise TableDataError(f"bracket key ({lhs},{rhs}) not in increasing order")
        brackets[(i, j)] = liealg._parse_lincomb(registry, text)
    return liealg._assemble_table(name, registry, cartan_labels, brackets, excluded_primes, applied)


def reference_g2(corrections=()):
    return reference_build(
        "g2-borel", liealg._G2_LABELS, ("h1", "h2"), liealg._G2_BRACKETS, (2, 3), corrections
    )


def reference_f4(corrections=()):
    return reference_build(
        "f4-borel", _f4_data.F4_HS + _f4_data.F4_XS, _f4_data.F4_HS,
        reference_f4_raw_brackets(), (2,), corrections,
    )


def assert_same_table(t, ref):
    assert (t.name, t.registry) == (ref.name, ref.registry)
    assert (t.cartan, t.nilradical) == (ref.cartan, ref.nilradical)
    assert list(t.brackets.items()) == list(ref.brackets.items())  # dict order too
    assert t.excluded_primes == ref.excluded_primes
    assert t.corrections == ref.corrections


def fix(lhs, rhs, value):
    return {"lhs": lhs, "rhs": rhs, "value": value}


# the printed texts are canonical, so a replaced text is its canonical form
G2_OVERLAYS = {
    "none": [],
    "applied": [fix("x1", "x2", "2*x3")],
    "corrected-twice": [fix("x1", "x2", "4*x3"), fix("x1", "x2", "2*x3")],
    "zero-then-restored": [fix("h1", "x1", "0"), fix("h1", "x1", "-x1")],
    "zero-on-absent": [fix("x1", "x5", "0"), fix("h1", "x3", "0")],
}
F4_OVERLAYS = {
    "none": [],
    "applied": [fix("h1", "x1", "2*x1")],
    "corrected-twice": [fix("x1", "x2", "-x5"), fix("x1", "x2", "x5")],
    "zero-then-restored": [fix("x1", "x2", "0"), fix("x1", "x2", "x5")],
    "zero-on-absent": [fix("x1", "x3", "0")],
}


class TestCatalogBuilders:
    """The index-keyed builders and ``apply_corrections`` against the
    printed-text reference."""

    def test_g2_matches_reference(self, g2b):
        assert_same_table(g2b, reference_g2())

    def test_f4_matches_reference(self, f4b):
        assert_same_table(f4b, reference_f4())

    @pytest.mark.parametrize("overlay", sorted(G2_OVERLAYS))
    def test_g2_overlay_matches_reference(self, overlay):
        entries = G2_OVERLAYS[overlay]
        assert_same_table(liealg.apply_corrections(liealg.g2_borel(), entries), reference_g2(entries))

    @pytest.mark.parametrize("overlay", sorted(F4_OVERLAYS))
    def test_f4_overlay_matches_reference(self, overlay):
        entries = F4_OVERLAYS[overlay]
        assert_same_table(liealg.apply_corrections(liealg.f4_borel(), entries), reference_f4(entries))

    def test_originals_recorded(self):
        twice = liealg.apply_corrections(liealg.g2_borel(), G2_OVERLAYS["corrected-twice"])
        assert [c.original for c in twice.corrections] == ["2*x3", "4*x3"]
        zero = liealg.apply_corrections(liealg.g2_borel(), G2_OVERLAYS["zero-on-absent"])
        assert [c.original for c in zero.corrections] == ["0", "0"]

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param([fix("x1", "nope", "0")], "unknown basis label", id="unknown-label"),
            pytest.param([fix("x2", "x1", "2*x3")], "not in increasing order", id="out-of-order"),
            pytest.param([fix("x1", "x2", "x3 +")], "cannot be parsed", id="dangling-sign"),
            pytest.param([fix("x1", "x2", "x3^2")], "not linear", id="not-linear"),
            pytest.param([fix("h1", "x1", "x1")], "Jacobi fails", id="jacobi-breaking"),
        ],
    )
    def test_overlay_errors_match_reference(self, entries, message):
        with pytest.raises(TableDataError, match=message) as got:
            liealg.apply_corrections(liealg.g2_borel(), entries)
        with pytest.raises(TableDataError) as ref:
            reference_g2(entries)
        assert str(got.value) == str(ref.value)

    def test_catalog_table_untouched(self):
        t = liealg.g2_borel()
        brackets, memo = list(t.brackets.items()), dict(t.memo)
        for entries in (*G2_OVERLAYS.values(), [fix("h1", "x1", "x1")]):
            try:
                liealg.apply_corrections(t, entries)
            except TableDataError:
                pass
        assert liealg.g2_borel() is t and not t.corrections
        assert list(t.brackets.items()) == brackets and t.memo == memo


class TestCorrectionsOverlay:
    def test_correction_applied_and_recorded(self):
        t = liealg.apply_corrections(
            liealg.g2_borel(), [{"lhs": "x1", "rhs": "x2", "value": "2*x3"}]
        )
        assert len(t.corrections) == 1
        corr = t.corrections[0]
        assert corr.original == "2*x3" and corr.value == "2*x3"
        assert jacobi_check(t).ok

    def test_bad_correction_label(self):
        with pytest.raises(TableDataError):
            liealg.apply_corrections(
                liealg.g2_borel(), [{"lhs": "x1", "rhs": "nope", "value": "0"}]
            )

    def test_invalidating_correction_caught(self):
        with pytest.raises(TableDataError):
            liealg.apply_corrections(
                liealg.g2_borel(), [{"lhs": "h1", "rhs": "x1", "value": "x1"}]
            )


class TestTableFiles:
    def test_round_trip(self, tmp_path, g2b):
        path = tmp_path / "g2.json"
        save_table(g2b, str(path))
        loaded = liealg.load_table(str(path))
        assert loaded.name == g2b.name
        assert loaded.registry == g2b.registry
        assert loaded.brackets == g2b.brackets
        assert loaded.cartan == g2b.cartan
        assert loaded.excluded_primes == g2b.excluded_primes

    def test_round_trip_f4(self, tmp_path, f4b):
        path = tmp_path / "f4.json"
        save_table(f4b, str(path))
        assert liealg.load_table(str(path)).brackets == f4b.brackets

    @pytest.mark.parametrize(
        "name", [f"{a}-{part}" for a in ("g2", "f4", "c1", "c2", "c3", "c4") for part in ("borel", "nil")]
    )
    def test_dict_round_trip_catalog(self, name):
        t = catalog_borel(name.replace("-nil", "-borel"))
        if name.endswith("-nil"):
            t = liealg.nilradical_table(t)
        back = liealg.table_from_dict(table_to_dict(t))
        assert (back.name, back.registry, back.brackets) == (t.name, t.registry, t.brackets)
        assert (back.cartan, back.nilradical) == (t.cartan, t.nilradical)
        assert back.excluded_primes == t.excluded_primes

    def test_rejects_out_of_order_keys(self, tmp_path, g2b):
        data = table_to_dict(g2b)
        data["brackets"][0]["lhs"], data["brackets"][0]["rhs"] = (
            data["brackets"][0]["rhs"],
            data["brackets"][0]["lhs"],
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TableDataError):
            liealg.load_table(str(path))

    def test_invalid_table_loads_unvalidated(self, tmp_path, g2b):
        # a table file is checked by the jacobi suite, which fails a claim
        bad = with_bracket(g2b, "h1", "x1", "x1")
        path = tmp_path / "bad.json"
        save_table(bad, str(path))
        assert not jacobi_check(liealg.load_table(str(path))).ok

    def test_repeated_bracket_rejected(self, g2b):
        # the real [h1, x1] = -x1 comes second; the first entry must not be
        # silently replaced by it, nor it by the first
        data = table_to_dict(g2b)
        data["brackets"].insert(0, {"lhs": "h1", "rhs": "x1", "value": [["5", "x1"]]})
        with pytest.raises(TableDataError, match=r"entry 1 repeats the bracket \[h1,x1\]"):
            liealg.table_from_dict(data)

    @staticmethod
    def _heisenberg(coefficient):
        return {
            "name": "heisenberg",
            "basis": ["x", "y", "z"],
            "cartan": [],
            "brackets": [{"lhs": "x", "rhs": "y", "value": [[coefficient, "z"]]}],
        }

    @pytest.mark.parametrize("coefficient", [0.1, 1.0, True, None, [1]])
    def test_inexact_coefficient_rejected(self, coefficient):
        with pytest.raises(TableDataError, match="entry 0"):
            liealg.table_from_dict(self._heisenberg(coefficient))

    @pytest.mark.parametrize(
        "coefficient, value", [("1/2", Fraction(1, 2)), ("-3", -3), (2, 2), ("0.25", Fraction(1, 4))]
    )
    def test_exact_coefficient_accepted(self, coefficient, value):
        t = liealg.table_from_dict(self._heisenberg(coefficient))
        assert t.bracket_coords(0, 1) == {2: value}


class TestNilradicalTable:
    def test_g2_nil(self, g2n):
        assert g2n.registry.names == ("x1", "x2", "x3", "x4", "x5", "x6")
        assert g2n.cartan == ()
        assert str(g2n.bracket("x1", "x2")) == "2*x3"

    def test_bracket_rows_mod_p(self, f4n):
        x6, x12, x17 = (f4n.registry.index(x) for x in ("x6", "x12", "x17"))
        assert f4n.scaled_row(x6)[x12] == ((x17, -1),)  # D = 2 times -1/2
        assert ad_vector(f4n, x6, {x12: 1}, GF(3)) == {x17: 2}  # -1 = 2 mod 3


ROW_TABLES = {
    "g2": liealg.g2_borel,
    "f4": liealg.f4_borel,
    "c2": lambda: liealg.cn_borel(2),
    "c3": lambda: liealg.cn_borel(3),
    "c4": lambda: liealg.cn_borel(4),
}


def scaled_reference(t, i, char):
    """The field row of ``reference_bracket_row`` times D, reduced mod char,
    with the constants that vanish there dropped."""
    scale = t.bracket_scale()
    row = {}
    for j, targets in reference_bracket_row(t, i, char).items():
        entry = tuple((k, scale * c % char if char else scale * c) for k, c in targets)
        entry = tuple((k, c) for k, c in entry if c)
        if entry:
            row[j] = entry
    return row


def heisenberg_third():
    """[x, y] = z/3: D = 3, so 3 is a characteristic no integer row serves."""
    return liealg.table_from_dict(
        {
            "name": "heisenberg-third",
            "basis": ["x", "y", "z"],
            "cartan": [],
            "brackets": [{"lhs": "x", "rhs": "y", "value": [["1/3", "z"]]}],
        }
    )


class TestBracketRows:
    @pytest.mark.parametrize("level", ["borel", "nil"])
    @pytest.mark.parametrize("name", sorted(ROW_TABLES))
    def test_matches_reference(self, name, level):
        # the integer rows are D times the rational rows, and D*[x_i, x_j]
        # over each admissible field is that row reduced
        from liecenter.invariants import inadmissible_reason

        t = ROW_TABLES[name]()
        if level == "nil":
            t = liealg.nilradical_table(t)
        chars = [0] + [p for p in (3, 5, 7) if not inadmissible_reason(t, p)]
        assert len(chars) >= 3
        for i in range(t.dim):
            assert t.scaled_row(i) == scaled_reference(t, i, 0)
            assert all(isinstance(c, int) for row in t.scaled_row(i).values() for _, c in row)
        for char in chars:
            field = GF(char) if char else QQ
            for i in range(t.dim):
                want = scaled_reference(t, i, char)
                for j in range(t.dim):
                    assert ad_vector(t, i, {j: field.one}, field) == dict(want.get(j, ()))

    def test_constant_vanishing_mod_p_is_dropped(self, g2b):
        # G2 has the structure constant 3; the rows themselves are defined
        # mod 3 even though the G2 family excludes that characteristic
        rows = [
            {j: ad_vector(g2b, i, {j: 1}, GF(3)) for j in range(g2b.dim)} for i in range(g2b.dim)
        ]
        for i, row in enumerate(rows):
            want = scaled_reference(g2b, i, 3)
            assert {j: v for j, v in row.items() if v} == {j: dict(e) for j, e in want.items()}
        assert any(
            len(row[j]) < len(g2b.bracket_coords(i, j))
            for i, row in enumerate(rows)
            for j in range(g2b.dim)
        )

    def test_denominator_divisible_by_p_raises(self):
        t = heisenberg_third()
        assert t.bracket_scale() == 3
        assert t.scaled_row(0) == {1: ((2, 1),)}
        assert t.inverse_scale(GF(5)) == 2  # 1/3 = 2 mod 5
        assert t.inverse_scale(QQ) == Fraction(1, 3)
        with pytest.raises(ZeroDivisionError, match="divisible by 3"):
            t.inverse_scale(GF(3))
        with pytest.raises(ZeroDivisionError, match="divisible by 3"):
            ad_vector(t, 0, {1: 1}, GF(3))

    @pytest.mark.parametrize(
        "kernel",
        [
            "ad_apply",
            "brute_force_invariant_space",
            "lie_generators",
            "ad_power_identity",
            "symmetrize",
            "commutator_with_basis",
        ],
    )
    def test_every_kernel_refuses_a_prime_dividing_the_scale(self, kernel):
        # 1/3 has no image in GF(3), and D*[x, -] = [3x, -] is no bracket
        # there: every kernel reading the integer rows must refuse p = 3
        from liecenter import invariants, pbw, poisson

        t = heisenberg_third()
        f = parse_polynomial(t.registry, GF(3), "x*y + z")
        calls = {
            "ad_apply": lambda: poisson.ad_apply(t, "x", f),
            # one generator: no bracket is read choosing the generating set,
            # so the oracle's own check must refuse
            "brute_force_invariant_space": lambda: invariants.brute_force_invariant_space(
                t, 2, (0,), GF(3)
            ),
            "lie_generators": lambda: liealg.lie_generators(t, range(t.dim), 3),
            "ad_power_identity": lambda: ad_power_identity(t, "x", 3),
            "symmetrize": lambda: pbw.symmetrize(t, f),
            "commutator_with_basis": lambda: pbw.commutator_with_basis(t, "x", pbw.naive_lift(f)),
        }
        with pytest.raises(ZeroDivisionError):
            calls[kernel]()
        assert not any(key[0] == "oracle" for key in t.memo)
