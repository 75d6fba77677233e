import json
import os
from itertools import combinations

import pytest

from liecenter import invariants, liealg
from liecenter.exactalg import (
    QQ,
    Polynomial,
    add_into,
    mono_degree,
    mono_div_var,
    mono_mul_var,
    mono_sort_key,
)

# the commands the tests start import the package from this checkout, as
# the test process does through pyproject.toml's pythonpath
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def g2b():
    return liealg.g2_borel()


@pytest.fixture(scope="session")
def g2n(g2b):
    return liealg.nilradical_table(g2b)


@pytest.fixture(scope="session")
def f4b():
    return liealg.f4_borel()


@pytest.fixture(scope="session")
def f4n(f4b):
    return liealg.nilradical_table(f4b)


@pytest.fixture(scope="session")
def g2b_fam(g2b):
    return invariants.g2_invariants(g2b)


@pytest.fixture(scope="session")
def g2n_fam(g2n):
    return invariants.g2_invariants(g2n)


@pytest.fixture(scope="session")
def f4b_fam(f4b):
    return invariants.f4_invariants(f4b)


@pytest.fixture(scope="session")
def f4n_fam(f4n):
    return invariants.f4_invariants(f4n)


@pytest.fixture(scope="session")
def c2b():
    return liealg.cn_borel(2)


@pytest.fixture(scope="session")
def c3b():
    return liealg.cn_borel(3)


def with_bracket(t, lhs, rhs, value):
    """A copy of the table with one bracket replaced and no validation, for
    showing that corrupted tables are caught."""
    i, j = t.registry.index(lhs), t.registry.index(rhs)
    if i > j:
        raise ValueError("pass the bracket key in basis order")
    brackets = dict(t.brackets)
    entry = liealg._parse_lincomb(t.registry, value)
    if entry:
        brackets[(i, j)] = entry
    else:
        brackets.pop((i, j), None)
    return liealg.StructureTable(
        t.name + "+mutated",
        t.registry,
        brackets,
        t.cartan,
        t.nilradical,
        t.excluded_primes,
        t.corrections,
    )


def nonzero_bracket_items(t):
    """All stored nonzero brackets as (lhs, rhs, value-text) triples."""
    out = []
    for (i, j), entry in sorted(t.brackets.items()):
        out.append((t.label(i), t.label(j), str(liealg.lincomb_to_poly(t, dict(entry)))))
    return out


def table_to_dict(t):
    """The table-file form of a table, which ``liealg.table_from_dict`` reads."""
    return {
        "name": t.name,
        "excluded_primes": sorted(t.excluded_primes),
        "basis": list(t.registry.names),
        "cartan": [t.label(i) for i in t.cartan],
        "brackets": [
            {
                "lhs": t.label(i),
                "rhs": t.label(j),
                "value": [[str(c), t.label(k)] for k, c in entry],
            }
            for (i, j), entry in sorted(t.brackets.items())
        ],
    }


def save_table(t, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_dict(t), fh, indent=2, sort_keys=True)
        fh.write("\n")


def homogeneous_monomials(nvars, degree):
    """All sparse monomials of the given total degree, lexicographic by dense
    exponent vector, largest first: the reference enumeration for the
    oracle's ``combinations_with_replacement`` index tuples."""
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if start == nvars:
            return
        if start == nvars - 1:
            acc.append((start, remaining))
            out.append(tuple(acc))
            acc.pop()
            return
        for e in range(remaining, 0, -1):
            acc.append((start, e))
            rec(start + 1, remaining - e, acc)
            acc.pop()
        rec(start + 1, remaining, acc)

    rec(0, degree, [])
    return out


def mono_grade(mono, gradings):
    """The multidegree of a monomial under each grading, summed term by term."""
    return tuple(sum(e * g[v] for v, e in mono) for g in gradings)


def is_homogeneous(p):
    return len({mono_degree(m) for m in p.terms}) <= 1


def leading_monomial(p):
    """The greatest monomial of a nonzero polynomial in the graded order."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=mono_sort_key)


def abelian_table(dim=4):
    """A nilpotent abelian algebra on labels y1..ydim, for trivial cases."""
    from liecenter.exactalg import VarRegistry

    registry = VarRegistry([f"y{i}" for i in range(1, dim + 1)])
    return liealg.StructureTable("abelian-test", registry, {}, (), range(dim))


# -- the field rows: the reference for every kernel on the integer rows --------


def reference_bracket_row(t, i, char):
    """[basis_i, basis_j] for every j, each coordinate reduced mod char by a
    hand-rolled modular inverse of its denominator, with the coordinates and
    then the brackets that vanish there dropped: the bracket rows reduced
    into the field, which the kernels on ``StructureTable.rows`` must
    agree with."""
    row = {}
    for j in range(t.dim):
        coords = t.bracket_coords(i, j)
        if char:
            reduced = []
            for k, c in coords.items():
                den = c.denominator % char
                if den == 0:
                    raise ZeroDivisionError(f"structure constant {c} not reducible mod {char}")
                reduced.append((k, c.numerator * pow(den, char - 2, char) % char))
            entry = tuple((k, c) for k, c in reduced if c)
        else:
            entry = tuple((k, c) for k, c in coords.items() if c)
        if entry:
            row[j] = entry
    return row


def reference_ad_apply(t, i, f):
    """{x_i, f} in the field's own arithmetic over the field rows, every
    product and sum reduced as it is formed: the reference for
    ``poisson.ad_apply``."""
    field = f.field
    i = t.registry.resolve(i)
    row = reference_bracket_row(t, i, field.characteristic)
    terms = {}
    for mono, coeff in f.terms.items():
        for v, e in mono:
            factor = field.mul(coeff, field.coerce(e))
            base = mono_div_var(mono, v)
            for w, cw in row.get(v, ()):
                m2 = mono_mul_var(base, w)
                c = field.add(terms.get(m2, field.zero), field.mul(factor, cw))
                if c == field.zero:
                    terms.pop(m2, None)
                else:
                    terms[m2] = c
    return Polynomial(f.registry, field, terms)


def reference_jacobi(t):
    """The Jacobi check in ``Fraction`` arithmetic on the raw bracket
    coordinates, each inner [x_a, [x_b, x_c]] summed on its own: the
    reference for ``liealg.jacobi_check``, which sums D^2*J on the integer
    rows."""
    report = liealg.JacobiReport(algebra=t.name, triples_checked=0)
    for i, j, k in combinations(range(t.dim), 3):
        report.triples_checked += 1
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = {}
            for m, cm in t.bracket_coords(b, c).items():
                add_into(inner, t.bracket_coords(a, m).items(), QQ, cm)
            add_into(total, inner.items(), QQ)
        if total:
            residual = str(liealg.lincomb_to_poly(t, total))
            report.failures.append(
                liealg.JacobiFailure((t.label(i), t.label(j), t.label(k)), residual)
            )
    return report
