"""Exact sparse linear algebra over the rationals and prime fields.

Used by the brute-force invariant solver, the span comparisons and the
derived-subalgebra audit.  Every rank, saturation test and null space comes
from one elimination, :func:`echelon`, on rows that map columns to field
elements (ints or ``Fraction`` values over Q, ints in [0, p) over GF(p));
zero entries are dropped.  Integer matrices are converted, mod p, row by row
as the elimination reads them (:func:`_sparse`), so one that stops early
converts only the rows it reads; a saturation test first settles the
columns of rows whose one nonzero entry is a unit, and converts the other
rows without those columns.  The pivot columns are the
reduced-row-echelon pivots of the row space, whatever the order of the rows,
so the canonical null-space basis (one vector per free column) does not
depend on that order either.  Rational basis vectors are rescaled to
primitive integer vectors with positive leading entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .exactalg import GF, QQ, Field, add_into


def echelon(rows: Iterable[Mapping], field: Field, ncols: Optional[int] = None) -> dict:
    """Row echelon form of ``rows`` over ``field``, as a map from each pivot
    column to its pivot row: a ``{column: coefficient}`` dict holding 1 at
    the pivot and nonzero entries only at larger columns.

    The entries must be field elements: ints or ``Fraction`` values over Q,
    residues in [0, p) over GF(p), so that only a zero entry tests false.
    Zero entries are dropped, and the rows themselves are not changed.  Each
    row is reduced at its lowest column by the pivot there, subtracting
    through :func:`exactalg.add_into`, as long as there is one; the first
    lowest column without a pivot becomes a new pivot.  So
    a row visits only the pivots it hits, and a pivot row may keep entries at
    pivot columns found after it.  Columns may be any mutually comparable
    keys.  The elimination stops as soon as ``ncols`` pivots are found.
    """
    one = field.one
    pivots: dict = {}
    for row in rows:
        r = dict(row)
        while r:
            pc = min(r)
            f = r[pc]
            if not f:
                del r[pc]
                continue
            pivot = pivots.get(pc)
            if pivot is None:
                inv = field.div(one, f)
                pivots[pc] = {c: field.mul(x, inv) for c, x in r.items() if x}
                break
            add_into(r, pivot.items(), field, -f)
        if len(pivots) == ncols:
            break
    return pivots


def rank(rows: Iterable[Mapping], field: Field) -> int:
    """Rank over ``field`` of rows that map columns to coefficients."""
    coerce = field.coerce
    return len(echelon(({c: coerce(x) for c, x in row.items()} for row in rows), field))


def _sparse(rows: Iterable[Sequence[int]], field: Field) -> Iterator[dict]:
    """The integer rows as ``{column: entry}`` dicts of field elements, made
    one at a time; entries that vanish only mod p stay, as zeros."""
    p = field.characteristic
    if p:
        return ({c: x % p for c, x in compress(enumerate(row), row)} for row in rows)
    return (dict(compress(enumerate(row), row)) for row in rows)


def _primitive(vec: list[Fraction]) -> list[int]:
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def _nullspace(rows: Sequence[Sequence], ncols: int, field: Field) -> list[list]:
    """One basis vector per free column, in column order: 1 at its own free
    column, 0 at the others, and the pivot entries by back-substitution."""
    pivots = echelon(_sparse(rows, field), field)
    descending = sorted(pivots, reverse=True)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = {fc: field.one}
        # a pivot row has entries only from its pivot on, so pivots after fc
        # stay 0 and each earlier one sees every later column already solved
        for pc in descending:
            if pc > fc:
                continue
            s = field.zero
            for c, x in pivots[pc].items():
                y = vec.get(c)
                if y is not None and c != pc:
                    s = field.add(s, field.mul(x, y))
            if s:
                vec[pc] = field.neg(s)
        basis.append([vec.get(c, field.zero) for c in range(ncols)])
    return basis


def nullspace_int(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the rational null space of an integer matrix: one primitive
    integer vector per free column, in column order."""
    return [_primitive(vec) for vec in _nullspace(rows, ncols, QQ)]


def nullspace_mod(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the null space of an integer matrix over GF(p): one vector
    per free column, in column order."""
    return _nullspace(rows, ncols, GF(p))


# A fixed large prime for the rank pre-filter: full column rank modulo any
# prime proves full rank over Q (rank can only drop under reduction), so the
# exact elimination runs only on systems with a modular kernel.
FILTER_PRIME = 2147483629


def saturates_mod(rows: Sequence[Sequence[int]], ncols: int, p: int) -> bool:
    """True if the rows reach full column rank mod p.  A row whose one
    nonzero entry, at column c, is a unit mod p puts e_c in the row space.
    For the set U of such columns, dropping U from the other rows subtracts
    multiples of those rows, so rank = |U| + rank(other rows without U).
    The pass stops once U is every column; otherwise only the other rows are
    eliminated, and only up to saturation."""
    units, kept = set(), []
    for row in rows:
        zeros = row.count(0)
        if zeros == ncols - 1 and row[c := next(compress(range(ncols), row))] % p:
            units.add(c)
            if len(units) == ncols:
                return True
        elif zeros < ncols:
            kept.append(row)
    rest = ncols - len(units)
    sparse = ({c: x % p for c, x in compress(enumerate(row), row) if c not in units} for row in kept)
    return len(echelon(sparse, GF(p), rest)) == rest
