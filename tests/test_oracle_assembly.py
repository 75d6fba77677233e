"""The oracle's constraint rows, assembled from packed monomial codes, against
the tuple-keyed assembly they replace.

``reference_invariant_space`` keys each row by the generator and the image
monomial as a tuple, built by ``mono_div_var``/``mono_mul_var``, and reduces
every update into the field.  The oracle must hand ``linalg.saturates_mod``
the same dense rows, in the same order, and return the length of its
basis; the packed-code basis oracle ``conftest.reference_oracle_basis``
must return that basis itself.
"""

from math import gcd

import pytest

from liecenter import invariants, linalg, liealg
from liecenter.exactalg import GF, QQ, Polynomial, mono_div_var, mono_mul_var
from liecenter.invariants import brute_force_invariant_space, oracle_degree

from conftest import (
    homogeneous_monomials,
    mono_grade,
    reference_bracket_row,
    reference_oracle_basis,
    table_to_dict,
)


def scaled_rows(t, gens, char):
    """The field rows of ``gens`` times D, the lcm of every bracket
    denominator, reduced mod char: D is a unit of the field, so these rows
    have the null space of the field rows and vanish where they do."""
    scale = 1
    for entry in t.brackets.values():
        for _, c in entry:
            scale = scale * c.denominator // gcd(scale, c.denominator)
    return {
        i: {
            v: tuple((w, c * scale % char if char else int(c * scale)) for w, c in targets)
            for v, targets in reference_bracket_row(t, i, char).items()
        }
        for i in gens
    }


def reference_invariant_space(t, degree, gens, field):
    """The oracle basis with rows keyed by (generator, image monomial)."""
    char = field.characteristic
    gens = liealg.lie_generators(t, tuple(gens), char)
    gradings = invariants.derive_multigrading(t)
    blocks = {}
    for mono in homogeneous_monomials(t.dim, degree):
        blocks.setdefault(mono_grade(mono, gradings), []).append(mono)
    rows_cache = scaled_rows(t, gens, char)
    basis = []
    for grade in sorted(blocks):
        cols = blocks[grade]
        constraint_rows = {}
        for gi in gens:
            row_map = rows_cache[gi]
            for cidx, mono in enumerate(cols):
                for v, e in mono:
                    targets = row_map.get(v)
                    if not targets:
                        continue
                    base = mono_div_var(mono, v)
                    for w, cw in targets:
                        row = constraint_rows.setdefault((gi, mono_mul_var(base, w)), {})
                        if char:
                            row[cidx] = (row.get(cidx, 0) + e * cw) % char
                        else:
                            row[cidx] = row.get(cidx, 0) + e * cw
        dense = [
            [row.get(c, 0) for c in range(len(cols))]
            for row in constraint_rows.values()
            if any(row.values())
        ]
        if not dense:
            null = [[1 if c == k else 0 for c in range(len(cols))] for k in range(len(cols))]
        elif linalg.saturates_mod(dense, len(cols), char or linalg.FILTER_PRIME):
            null = []
        elif char:
            null = linalg.nullspace_mod(dense, len(cols), char)
        else:
            null = linalg.nullspace_int(dense, len(cols))
        for vec in null:
            basis.append(Polynomial.from_terms(t.registry, field, zip(cols, vec)))
    return basis


def affine_line():
    """[y1, y2] = y1 + y2 and y3 central: the derived grading is trivial on
    y1 and y2, so a block holds several monomials, a column has several
    images under one generator, and different generators share images,
    which no catalog table shows."""
    return liealg.table_from_dict({
        "name": "affine-line",
        "basis": ["y1", "y2", "y3"],
        "cartan": [],
        "brackets": [{"lhs": "y1", "rhs": "y2", "value": [["1", "y1"], ["1", "y2"]]}],
    })


def shared_center():
    """[y1, y2] = y3 + y4: y3 and y4 are central and share every grade, so
    blocks of several columns ({y3, y4}, {y3^2, y3*y4, y4^2}, ...) have no
    constraint rows, and their columns are the basis."""
    return liealg.table_from_dict({
        "name": "shared-center",
        "basis": ["y1", "y2", "y3", "y4"],
        "cartan": [],
        "brackets": [{"lhs": "y1", "rhs": "y2", "value": [["1", "y3"], ["1", "y4"]]}],
    })


def g2_at_3():
    """The G2 Borel table with 3 admitted: its constants 3 vanish mod 3, so
    the rows lose those entries, as the field rows do."""
    data = table_to_dict(liealg.g2_borel())
    data["excluded_primes"] = [2]
    return liealg.table_from_dict(data)


# name -> (table builder, levels, admissible primes in {3, 5, 7})
TABLES = {
    "affine-line": (affine_line, ("nil",), (3, 5, 7)),
    "shared-center": (shared_center, ("nil",), (3, 5, 7)),
    "g2": (liealg.g2_borel, ("nil", "borel"), (5, 7)),
    "g2-at-3": (g2_at_3, ("nil", "borel"), (3,)),
    "f4": (liealg.f4_borel, ("nil", "borel"), (3, 5, 7)),
    **{
        f"c{n}": (lambda n=n: liealg.cn_borel(n), ("nil", "borel"), (3, 5, 7))
        for n in range(2, 6)
    },
}


def _cases():
    for name, (_, levels, primes) in TABLES.items():
        for level in levels:
            for char in (0, *primes):
                yield pytest.param(name, level, char, id=f"{name}-{level}-char{char}")


@pytest.mark.parametrize("name, level, char", _cases())
def test_rows_and_basis_match_the_tuple_keyed_assembly(name, level, char, monkeypatch):
    field = GF(char) if char else QQ
    t = TABLES[name][0]()
    # a new table, so no oracle space is memoized yet: g2_borel and
    # f4_borel return one cached table
    t = liealg.nilradical_table(t) if level == "nil" else liealg.StructureTable(
        t.name, t.registry, t.brackets, t.cartan, t.nilradical, t.excluded_primes
    )
    saturates_mod, calls = linalg.saturates_mod, []

    def record(rows, ncols, p):
        calls.append(((rows, ncols, p), saturates_mod(rows, ncols, p)))
        return calls[-1][1]

    def replay(rows, ncols, p):
        # the reference must make the recorded call next; its verdict is
        # replayed rather than recomputed on the same rows
        args, verdict = calls.pop(0)
        assert (rows, ncols, p) == args
        return verdict

    top = oracle_degree(t) if invariants.catalog_entry(t) else 4
    for d in range(1, top + 1):
        monkeypatch.setattr(linalg, "saturates_mod", record)
        got = brute_force_invariant_space(t, d, t.nilradical, field)
        monkeypatch.setattr(linalg, "saturates_mod", replay)
        want = reference_invariant_space(t, d, t.nilradical, field)
        assert not calls, (t.name, d)
        monkeypatch.setattr(linalg, "saturates_mod", saturates_mod)
        assert got == len(want), (t.name, d)
        assert reference_oracle_basis(t, d, t.nilradical, field) == want, (t.name, d)
