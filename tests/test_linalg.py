"""The sparse elimination kernel against the dense eliminations it replaced:
fraction-free Bareiss over the integers and Gauss-Jordan over GF(p), kept
here as the test-only reference."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from liecenter import linalg  # noqa: E402
from liecenter.exactalg import GF, QQ  # noqa: E402
from liecenter.invariants import homogeneous_monomials  # noqa: E402


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
