"""The sparse elimination kernel against the dense eliminations it replaced:
fraction-free Bareiss over the integers and Gauss-Jordan over GF(p), kept
here as the test-only reference.  ``all_pivot_echelon``, which reduces every
row against every pivot found so far, is the reference for ``echelon``'s
walk over only the pivots a row hits, and ``reference_saturates_mod``, which
eliminates every row, for the unit-row peel of ``saturates_mod``."""

import random
from bisect import insort
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from liecenter import invariants, liealg, linalg  # noqa: E402
from liecenter.exactalg import GF, QQ, add_into  # noqa: E402

from conftest import homogeneous_monomials  # noqa: E402


# -- dense reference -----------------------------------------------------------


def reference_primitive(vec):
    scale = 1
    for x in vec:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def echelon_bareiss(rows):
    """Fraction-free row echelon form of an integer matrix: the echelon rows
    (zero rows dropped) and the pivot column of each."""
    mat = [list(row) for row in rows if any(row)]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, len(mat)):
            head = mat[i][c]
            row_i = mat[i]
            row_r = mat[r]
            for j in range(c, ncols):
                row_i[j] = (piv * row_i[j] - head * row_r[j]) // prev
        mat = mat[: r + 1] + [row for row in mat[r + 1 :] if any(row)]
        pivots.append(c)
        prev = piv
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_nullspace_int(rows, ncols):
    ech, pivots = echelon_bareiss(rows)
    free_cols = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            row = ech[i]
            s = sum((Fraction(row[j]) * vec[j] for j in range(pc + 1, ncols)), Fraction(0))
            vec[pc] = -s / row[pc]
        basis.append(reference_primitive(vec))
    return basis


def echelon_mod(rows, p):
    """Reduced row echelon form over GF(p): the rows and their pivot columns."""
    mat = [[x % p for x in row] for row in rows]
    mat = [row for row in mat if any(row)]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                head = mat[i][c]
                mat[i] = [(x - head * y) % p for x, y in zip(mat[i], mat[r])]
        mat = [row for row in mat if any(row)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_nullspace_mod(rows, ncols, p):
    ech, pivots = echelon_mod(rows, p)
    free_cols = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            row = ech[i]
            s = sum(row[j] * vec[j] for j in range(pc + 1, ncols)) % p
            vec[pc] = -s % p
        basis.append(vec)
    return basis


def reference_rank(rows, p):
    return len(echelon_mod(rows, p)[0] if p else echelon_bareiss(rows)[0])


# -- generated systems ---------------------------------------------------------


@st.composite
def matrices(draw):
    """(rows, ncols, shuffled rows): up to 8 x 10 integer matrices with entries
    in -4..4, salted with zero rows, duplicate rows and sums of two rows so
    that rank-deficient systems are common."""
    ncols = draw(st.integers(1, 10))
    row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "sum"]), max_size=2)):
        if kind == "zero" or not rows:
            extra = [0] * ncols
        elif kind == "duplicate":
            extra = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            extra = [x + y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows, ncols, draw(st.permutations(rows))


FIELDS = [(0, QQ), (3, GF(3)), (7, GF(7))]
# column c -> a monomial key, the ten keys in decreasing order
MONOMIAL_COLUMNS = sorted(homogeneous_monomials(4, 2), reverse=True)


@settings(deadline=None)
@given(matrices())
def test_nullspace_int_matches_reference(m):
    rows, ncols, shuffled = m
    expected = reference_nullspace_int(rows, ncols)
    assert linalg.nullspace_int(rows, ncols) == expected
    assert linalg.nullspace_int(shuffled, ncols) == expected


@pytest.mark.parametrize("p", [3, 7])
@settings(deadline=None)
@given(m=matrices())
def test_nullspace_mod_matches_reference(p, m):
    rows, ncols, shuffled = m
    expected = reference_nullspace_mod(rows, ncols, p)
    assert linalg.nullspace_mod(rows, ncols, p) == expected
    assert linalg.nullspace_mod(shuffled, ncols, p) == expected


@settings(deadline=None)
@given(matrices())
def test_rank_matches_reference(m):
    rows, ncols, shuffled = m
    for p, field in FIELDS:
        expected = reference_rank(rows, p)
        assert linalg.rank([dict(enumerate(r)) for r in rows], field) == expected
        assert linalg.rank([dict(enumerate(r)) for r in shuffled], field) == expected
        keyed = [{MONOMIAL_COLUMNS[c]: x for c, x in enumerate(r)} for r in rows]
        assert linalg.rank(keyed, field) == expected


@pytest.mark.parametrize("p", [3, 7, linalg.FILTER_PRIME])
@settings(deadline=None)
@given(m=matrices())
def test_saturates_mod_is_full_reference_rank(p, m):
    rows, ncols, shuffled = m
    full = reference_rank(rows, p) == ncols
    assert linalg.saturates_mod(rows, ncols, p) == full
    assert linalg.saturates_mod(shuffled, ncols, p) == full


# -- the input contract --------------------------------------------------------

# (field, p): the fields an integer matrix is reduced into; FILTER_PRIME is the
# prime of the characteristic-0 saturation filter
CONTRACT_FIELDS = [(GF(3), 3), (GF(7), 7), (GF(linalg.FILTER_PRIME), linalg.FILTER_PRIME)]


def assert_no_zero_entries(pivots):
    for row in pivots.values():
        assert all(row.values()), row


@settings(deadline=None)
@given(matrices())
def test_explicit_zero_entries_give_the_pivots_of_cleaned_rows(m):
    rows, _, _ = m
    for field in (QQ, GF(3), GF(7), GF(linalg.FILTER_PRIME)):
        reduced = [[field.coerce(x) for x in row] for row in rows]
        with_zeros = [dict(enumerate(row)) for row in reduced]
        cleaned = [{c: x for c, x in row.items() if x} for row in with_zeros]
        got = linalg.echelon(with_zeros, field)
        assert got == linalg.echelon(cleaned, field)
        assert_no_zero_entries(got)
        # the rows are read, not changed
        assert with_zeros == [dict(enumerate(row)) for row in reduced]


@st.composite
def salted_matrices(draw):
    """(rows, ncols, multiples): a matrix and, per entry, a multiple k in -2..2
    of p to add to it, so that entries vanish or leave [0, p) mod p."""
    rows, ncols, _ = draw(matrices())
    k = st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols)
    return rows, ncols, draw(st.lists(k, min_size=len(rows), max_size=len(rows)))


@settings(deadline=None)
@given(salted_matrices())
def test_entries_that_vanish_mod_p_give_the_reference_verdicts(m):
    rows, ncols, multiples = m
    for field, p in CONTRACT_FIELDS:
        salted = [[x + k * p for x, k in zip(row, ks)] for row, ks in zip(rows, multiples)]
        got = linalg.echelon(list(linalg._sparse(salted, field)), field)
        assert got == linalg.echelon(list(linalg._sparse(rows, field)), field)
        assert_no_zero_entries(got)
        assert len(got) == reference_rank(rows, p)
        assert linalg.saturates_mod(salted, ncols, p) == (reference_rank(rows, p) == ncols)
        assert linalg.nullspace_mod(salted, ncols, p) == reference_nullspace_mod(rows, ncols, p)


# -- the pivot walk ------------------------------------------------------------


def all_pivot_echelon(rows, field, ncols=None):
    """Echelon form with every row reduced against every pivot found so far,
    in increasing column order: each pivot row is zero at every pivot column
    but its own that existed when it was found."""
    pivots = {}
    order = []
    for row in rows:
        r = add_into({}, ((c, field.coerce(x)) for c, x in row.items()), field)
        for pc in order:
            x = r.get(pc)
            if x is not None:
                add_into(r, pivots[pc].items(), field, field.neg(x))
        if r:
            pc = min(r)
            inv = field.div(field.one, r[pc])
            pivots[pc] = {c: field.mul(x, inv) for c, x in r.items()}
            insort(order, pc)
            if len(order) == ncols:
                break
    return pivots


def seeded_systems(seed, count=60):
    """Sparse integer systems, up to 14 x 12 with entries in -3..3, about a
    third of them with more rows than their rank."""
    rng = random.Random(seed)
    for _ in range(count):
        ncols = rng.randint(1, 12)
        rows = [
            [rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(ncols)]
            for _ in range(rng.randint(1, 14))
        ]
        yield rows, ncols


def recorded_blocks():
    """The (rows, ncols) systems the oracle hands ``saturates_mod`` on g2-nil
    up to degree 4, f4-nil up to degree 3 and c3-borel up to degree 3, over
    QQ and GF(3)."""
    cases = (
        (lambda: liealg.nilradical_table(liealg.g2_borel()), 4, (0,)),
        (lambda: liealg.nilradical_table(liealg.f4_borel()), 3, (0, 3)),
        (lambda: liealg.cn_borel(3), 3, (0, 3)),
    )
    blocks = []
    saturates_mod = linalg.saturates_mod

    def record(rows, ncols, p):
        blocks.append((rows, ncols))
        return saturates_mod(rows, ncols, p)

    linalg.saturates_mod = record
    try:
        for build, top, chars in cases:
            for char in chars:
                t = build()
                field = GF(char) if char else QQ
                for d in range(1, top + 1):
                    invariants.brute_force_invariant_space(t, d, t.nilradical, field)
    finally:
        linalg.saturates_mod = saturates_mod
    return blocks


@pytest.fixture(scope="module")
def catalog_blocks():
    blocks = recorded_blocks()
    assert len(blocks) > 100
    return blocks


def _check_against_all_pivot_walk(rows, ncols, monkeypatch):
    for field in (QQ, GF(3), GF(7), GF(linalg.FILTER_PRIME)):
        sparse = list(linalg._sparse(rows, field))
        got = linalg.echelon(sparse, field)
        want = all_pivot_echelon(sparse, field)
        assert sorted(got) == sorted(want)
        assert len(linalg.echelon(sparse, field, ncols)) == len(all_pivot_echelon(sparse, field, ncols))
    fast = (linalg.nullspace_int(rows, ncols), linalg.nullspace_mod(rows, ncols, 3))
    with monkeypatch.context() as m:
        m.setattr(linalg, "echelon", all_pivot_echelon)
        slow = (linalg.nullspace_int(rows, ncols), linalg.nullspace_mod(rows, ncols, 3))
    assert fast == slow


def test_pivot_walk_matches_all_pivot_walk_on_seeded_systems(monkeypatch):
    for rows, ncols in seeded_systems(2024):
        _check_against_all_pivot_walk(rows, ncols, monkeypatch)


def test_pivot_walk_matches_all_pivot_walk_on_catalog_blocks(catalog_blocks, monkeypatch):
    for rows, ncols in catalog_blocks:
        _check_against_all_pivot_walk(rows, ncols, monkeypatch)


# -- the unit-row peel ---------------------------------------------------------


def reference_saturates_mod(rows, ncols, p):
    """The saturation test without the unit-row peel: every row converted
    and eliminated until saturation."""
    field = GF(p)
    return len(linalg.echelon(linalg._sparse(rows, field), field, ncols)) == ncols


def singleton(ncols, c, x):
    row = [0] * ncols
    row[c] = x
    return row


@st.composite
def peel_matrices(draw):
    """(rows, ncols, p), p one of 3, 7 and FILTER_PRIME: a ``matrices()``
    system salted with the rows the peel must tell apart: duplicate
    singleton rows on one column, a singleton whose entry is a nonzero
    multiple of p, a row with several entries that is a singleton only mod
    p, singletons on every column; or stripped of every singleton row."""
    p = draw(st.sampled_from([3, 7, linalg.FILTER_PRIME]))
    rows, ncols, _ = draw(matrices())
    column = st.integers(0, ncols - 1)
    unit = st.builds(lambda x, k: x + k * p, st.integers(1, p - 1), st.integers(-1, 1))
    multiple = st.sampled_from([-2 * p, -p, p, 3 * p])
    if draw(st.booleans()):
        return [row for row in rows if ncols - row.count(0) != 1], ncols, p
    extra = []
    cases = st.sampled_from(["duplicates", "multiple of p", "unit only mod p", "cover"])
    for case in draw(st.lists(cases, min_size=1, max_size=3)):
        if case == "duplicates":
            c = draw(column)
            extra += [singleton(ncols, c, draw(unit)) for _ in range(draw(st.integers(2, 3)))]
        elif case == "multiple of p":
            extra.append(singleton(ncols, draw(column), draw(multiple)))
        elif case == "unit only mod p":
            c = draw(column)
            row = [draw(multiple) if draw(st.booleans()) else 0 for _ in range(ncols)]
            row[c] = draw(unit)
            extra.append(row)
        else:
            extra += [singleton(ncols, c, draw(unit)) for c in range(ncols)]
    for row in extra:
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, ncols, p


@settings(deadline=None, max_examples=300)
@given(peel_matrices())
@example(([[3]], 1, 3))  # a singleton that vanishes mod p
@example(([[2, 0], [1, 0]], 2, 3))  # duplicate singletons on one column
@example(([[1, 0], [1, 7]], 2, 7))  # a unit column, and a row that is a singleton only mod p
@example(([[0, 5], [4, 0]], 2, 7))  # singletons on every column
def test_peel_cases_give_the_full_reference_rank(m):
    rows, ncols, p = m
    before = [list(row) for row in rows]
    assert linalg.saturates_mod(rows, ncols, p) == (reference_rank(rows, p) == ncols)
    # the rows are read, not changed
    assert rows == before


@pytest.mark.parametrize("p", [linalg.FILTER_PRIME, 3, 5, 7])
def test_saturates_mod_matches_the_unpeeled_reference_on_catalog_blocks(catalog_blocks, p):
    verdicts = [linalg.saturates_mod(rows, ncols, p) for rows, ncols in catalog_blocks]
    assert verdicts == [reference_saturates_mod(rows, ncols, p) for rows, ncols in catalog_blocks]
    assert True in verdicts and False in verdicts
