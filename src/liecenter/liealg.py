"""Lie algebras as exact structure-constant tables.

A :class:`StructureTable` stores the brackets of ordered basis pairs (i < j)
as linear combinations of basis elements with rational coefficients; the
table is characteristic-free.  Every kernel, the Jacobi check among them,
reads it as the integer rows D*[x_i, -] (``StructureTable.rows``, built with
the table, D = ``StructureTable.scale``) and maps into a field by
:meth:`StructureTable.inverse_scale`, the one place a prime dividing D is
refused.  The catalog provides the Borel subalgebras of G2 (dimension 8),
F4 (dimension 28) and Cn (dimension n^2+n, generated programmatically from a
2n x 2n matrix realization), plus their nilradicals.  The Cn brackets are
sparse matrix commutators by the rule E_ij E_kl = delta_jk E_il; each is
checked to lie in the basis span before it is stored.

Every table is built by one constructor from index-keyed, parsed brackets.
Catalog tables are cached and pass :func:`jacobi_check`;
:func:`apply_corrections` overlays printed entries on a validated copy,
retaining each replaced value for audit.  Table files load unvalidated: the
``jacobi`` suite reports a broken one as a failed claim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Sequence, Union

from . import _f4_data, linalg
from .exactalg import (
    GF,
    QQ,
    Field,
    Polynomial,
    VarRegistry,
    add_into,
    field_of_characteristic,
    parse_polynomial,
)

LinComb = dict[int, Fraction]  # basis index -> rational coefficient
Entry = tuple[tuple[int, Fraction], ...]  # a stored bracket, in basis order


class TableDataError(ValueError):
    """Raised when shipped or loaded table data is internally inconsistent."""


@dataclass(frozen=True)
class Correction:
    """A single overridden bracket entry, keeping the original value."""

    lhs: str
    rhs: str
    value: str
    original: str


class StructureTable:
    """A Lie algebra given by basis labels and exact structure constants."""

    def __init__(
        self,
        name: str,
        registry: VarRegistry,
        brackets: dict[tuple[int, int], Entry],
        cartan: Sequence[int],
        nilradical: Sequence[int],
        excluded_primes: Iterable[int] = (2,),
        corrections: Sequence[Correction] = (),
    ):
        self.name = name
        self.registry = registry
        self.brackets = brackets
        self.cartan = tuple(cartan)
        self.nilradical = tuple(nilradical)
        self.excluded_primes = frozenset(excluded_primes)
        self.corrections = tuple(corrections)
        # D, the lcm of the bracket-constant denominators (2 for F4, 1 for
        # G2 and Cn): the basis y_i = D*x_i has the integer constants
        # [y_i, y_j] = sum_k D*c_ijk y_k
        scale = self.scale = lcm(1, *(c.denominator for e in brackets.values() for _, c in e))
        # rows[i] maps j -> ((k, D*c_ijk), ...) for every j with a nonzero
        # [x_i, x_j]: the row of [y_i, -], which every kernel reads
        self.rows = [
            {
                j: tuple((k, c.numerator * (scale // c.denominator)) for k, c in coords.items())
                for j in range(self.dim)
                if (coords := self.bracket_coords(i, j))
            }
            for i in range(self.dim)
        ]
        # everything else derived from the table, each result computed once
        # per table under its key: the rule is :func:`per_table`; the one
        # other entry, ("pbw",), holds the PBW kernel's integer letter
        # products (``pbw._mul_mono_letter``)
        self.memo: dict = {}

    @property
    def dim(self) -> int:
        return len(self.registry)

    def label(self, i: int) -> str:
        return self.registry.name(i)

    def admissible_characteristic(self, char: int) -> bool:
        return char == 0 or char not in self.excluded_primes

    def check_characteristic(self, char: int) -> None:
        if not self.admissible_characteristic(char):
            raise ValueError(
                f"characteristic {char} is excluded for algebra {self.name}"
            )

    # -- raw bracket access --------------------------------------------------

    def bracket_coords(self, i: int, j: int) -> LinComb:
        """[basis_i, basis_j] as a sparse coefficient dict (antisymmetry applied)."""
        if i == j:
            return {}
        if i < j:
            entry = self.brackets.get((i, j))
            return dict(entry) if entry else {}
        entry = self.brackets.get((j, i))
        return {k: -c for k, c in entry} if entry else {}

    def bracket(self, i: Union[int, str], j: Union[int, str], field: Field = QQ) -> Polynomial:
        """[basis_i, basis_j] as a linear polynomial over ``field``."""
        i = self.registry.resolve(i)
        j = self.registry.resolve(j)
        return lincomb_to_poly(self, self.bracket_coords(i, j), field)

    def inverse_scale(self, field: Field):
        """1/D in ``field``, which maps the integer rows back to the brackets;
        raises ZeroDivisionError when the characteristic divides D."""
        return field.coerce(Fraction(1, self.scale))

    def __repr__(self):
        return f"<StructureTable {self.name} dim={self.dim}>"


_MISSING = object()


def per_table(key: Callable) -> Callable:
    """Compute ``fn(t, *args)`` once per table: the result is kept in
    ``t.memo`` under ``key(t, *args)``, and a later call with an equal key
    returns the kept object.  A call that raises keeps nothing."""

    def decorate(fn):
        @wraps(fn)
        def memoized(t: StructureTable, *args):
            k = key(t, *args)
            hit = t.memo.get(k, _MISSING)
            if hit is _MISSING:
                hit = t.memo[k] = fn(t, *args)
            return hit

        return memoized

    return decorate


def lincomb_to_poly(t: StructureTable, lin: LinComb, field: Field = QQ) -> Polynomial:
    return Polynomial.from_terms(
        t.registry, field, ((((k, 1),), c) for k, c in lin.items())
    )


# ---------------------------------------------------------------------------
# Jacobi validation
# ---------------------------------------------------------------------------


@dataclass
class JacobiFailure:
    triple: tuple[str, str, str]
    residual: str


@dataclass
class JacobiReport:
    algebra: str
    triples_checked: int
    failures: list[JacobiFailure] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@per_table(lambda t: ("jacobi",))
def jacobi_check(t: StructureTable) -> JacobiReport:
    """Check [xi,[xj,xk]] + [xj,[xk,xi]] + [xk,[xi,xj]] = 0 over all triples,
    once per table, on the integer rows: [y_a, [y_b, y_c]] = D^2*[x_a, [x_b, x_c]],
    so the ints summed here are D^2*J(i, j, k).  J is homogeneous of degree 2
    in the constants, hence D^2*J = 0 iff J = 0; a nonzero residual is
    printed as D^2*J / D^2, the rational J itself."""
    rows, square = t.rows, t.scale**2
    report = JacobiReport(algebra=t.name, triples_checked=0)
    for i, j, k in combinations(range(t.dim), 3):
        report.triples_checked += 1
        total: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in rows[b].get(c, ()):
                add_into(total, rows[a].get(m, ()), scale=cm)
        if total:
            residual = str(lincomb_to_poly(t, {n: Fraction(v, square) for n, v in total.items()}))
            report.failures.append(
                JacobiFailure((t.label(i), t.label(j), t.label(k)), residual)
            )
    return report


def check_nilradical_ideal(t: StructureTable) -> list[str]:
    """Return violation messages if [B,B] is not inside the nilradical span
    or the Cartan part is not abelian."""
    problems = []
    nil = set(t.nilradical)
    for (i, j), entry in t.brackets.items():
        outside = [k for k, c in entry if k not in nil and c]
        if outside:
            problems.append(
                f"[{t.label(i)},{t.label(j)}] leaves the nilradical span"
            )
    for i in t.cartan:
        for j in t.cartan:
            if i < j and t.brackets.get((i, j)):
                problems.append(f"[{t.label(i)},{t.label(j)}] != 0 inside the Cartan")
    return problems


# ---------------------------------------------------------------------------
# Lie generating sets
# ---------------------------------------------------------------------------


@per_table(lambda t, gens, char: ("lie-generators", char, tuple(gens)))
def lie_generators(t: StructureTable, gens: Iterable[int], char: int) -> tuple[int, ...]:
    """A subsequence of ``gens`` whose iterated brackets span every basis
    vector of ``gens`` over the field of ``char``.

    ``ad`` is a Lie algebra homomorphism into the derivations of the
    symmetric and of the enveloping algebra, in every characteristic, so an
    element killed by the subsequence is killed by all of ``gens``.  The
    subsequence is the Cartan part of ``gens`` plus, in index order, each
    other element outside the span of the brackets among those others and of
    the elements kept before it.  It is kept only after an exact closure
    check in the field and only for a table satisfying the Jacobi identity,
    which the homomorphism needs; otherwise ``gens`` is returned unchanged.
    Computed once per table.
    """
    gens = tuple(gens)
    t.check_characteristic(char)
    field = field_of_characteristic(char)
    one = field.one
    rest = sorted({i for i in gens if i not in t.cartan})
    chosen = {i for i in gens if i in t.cartan}
    derived = (ad_vector(t, i, {j: one}, field) for i, j in combinations(rest, 2))
    span = linalg.echelon(derived, field)
    for i in rest:
        grown = linalg.echelon([*span.values(), {i: one}], field)
        if len(grown) > len(span):
            chosen.add(i)
            span = grown
    if len(chosen) == len(set(gens)):
        return gens
    # the closure: [chosen, S_k] lies in S_(k+1), so bracketing the chosen
    # elements with the directions each step adds reaches the generated span
    span = linalg.echelon(({i: one} for i in chosen), field)
    new = list(span.values())
    while new:
        brackets = (ad_vector(t, i, v, field) for i in chosen for v in new)
        grown = linalg.echelon([*span.values(), *brackets], field)
        new = [row for pc, row in grown.items() if pc not in span]
        span = grown
    closed = len(linalg.echelon([*span.values(), *({i: one} for i in gens)], field)) == len(span)
    if not (closed and jacobi_check(t).ok):
        return gens
    return tuple(i for i in gens if i in chosen)


def ad_vector(t: StructureTable, i: int, vec: dict, field: Field) -> dict:
    """D*[basis_i, vec] over ``field`` for ``vec`` a map index -> field
    element, from the integer row; p | D raises ZeroDivisionError.

    D is a unit of the field, so the spans are those of [basis_i, -]; over
    GF(p), (D*ad x)^p = D^p*(ad x)^p = D*(ad x)^p by Fermat, so (D*ad x)^p
    = 0 iff (ad x)^p = 0, and (D*ad h)^p = D*ad h iff (ad h)^p = ad h."""
    t.inverse_scale(field)
    row = t.rows[i]
    out: dict = {}
    for k, c in vec.items():
        add_into(out, row.get(k, ()), field, c)
    return out


# ---------------------------------------------------------------------------
# Restricted structure: ad-power identities
# ---------------------------------------------------------------------------


@dataclass
class AdPowerResult:
    algebra: str
    label: str
    kind: str  # "nilpotent" or "cartan"
    p: int
    ok: bool


def ad_power_identity(t: StructureTable, i: Union[int, str], p: int) -> AdPowerResult:
    """Verify (ad x)^p = 0 for nilradical elements and (ad h)^p = ad h for
    Cartan elements over F_p, applying D*ad x (:func:`ad_vector`) p times to
    every basis element, which decides the same identities."""
    t.check_characteristic(p)
    i = t.registry.resolve(i)
    kind = "cartan" if i in t.cartan else "nilpotent"
    ok = True
    for j in range(t.dim):
        vec, steps = {j: 1}, p
        while vec and steps:  # zero stays zero
            vec, steps = ad_vector(t, i, vec, GF(p)), steps - 1
        ok = ok and vec == (ad_vector(t, i, {j: 1}, GF(p)) if kind == "cartan" else {})
    return AdPowerResult(t.name, t.label(i), kind, p, ok)


# ---------------------------------------------------------------------------
# Builders: parsing helpers, the one table constructor, corrections overlay
# ---------------------------------------------------------------------------


def _parse_lincomb(registry: VarRegistry, text: str) -> Entry:
    try:
        poly = parse_polynomial(registry, QQ, text)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        reason = exc.args[0] if exc.args else type(exc).__name__
        raise TableDataError(f"bracket value {text!r} cannot be parsed: {reason}") from None
    out = []
    for m, c in poly.sorted_terms():
        if len(m) != 1 or m[0][1] != 1:
            raise TableDataError(f"bracket value {text!r} is not linear in the basis")
        out.append((m[0][0], c))
    return tuple(out)


def _bracket_entry(
    registry: VarRegistry, lhs: str, rhs: str, text: str
) -> tuple[tuple[int, int], Entry]:
    """The index key and parsed value of one printed bracket [lhs, rhs] = text."""
    i, j = registry.index(lhs), registry.index(rhs)
    if i >= j:
        raise TableDataError(f"bracket key ({lhs},{rhs}) not in increasing order")
    return (i, j), _parse_lincomb(registry, text)


def _assemble_table(
    name: str,
    registry: VarRegistry,
    cartan_labels: Sequence[str],
    brackets: dict[tuple[int, int], Entry],
    excluded_primes: Iterable[int],
    applied: Sequence[Correction] = (),
    validate: bool = True,
) -> StructureTable:
    """The one table constructor, from brackets keyed and sorted by basis
    index: empty brackets are dropped, and ``validate`` checks Jacobi and the
    ideal for catalog and corrected tables."""
    brackets = {key: value for key, value in brackets.items() if value}
    cartan = [registry.index(h) for h in cartan_labels]
    nil = [i for i in range(len(registry)) if i not in set(cartan)]
    table = StructureTable(name, registry, brackets, cartan, nil, excluded_primes, applied)
    if validate:
        report = jacobi_check(table)
        if not report.ok:
            first = report.failures[0]
            raise TableDataError(
                f"{name}: Jacobi fails at {first.triple} with residual {first.residual}"
                f" ({len(report.failures)} failing triples)"
            )
        problems = check_nilradical_ideal(table)
        if problems:
            raise TableDataError(f"{name}: {problems[0]}")
    return table


def apply_corrections(t: StructureTable, entries: Sequence[dict]) -> StructureTable:
    """A validated copy of ``t`` in which each entry {lhs, rhs, value}
    replaces that bracket, recorded with the canonical text of the value it
    replaced ("0" if none) as ``original``; ``t`` itself is untouched."""
    brackets = dict(t.brackets)
    applied = list(t.corrections)
    for corr in entries:
        lhs, rhs, value = corr["lhs"], corr["rhs"], corr["value"]
        if lhs not in t.registry or rhs not in t.registry:
            raise TableDataError(f"correction names unknown basis label: {corr}")
        key, entry = _bracket_entry(t.registry, lhs, rhs, value)
        # an emptied entry keeps its place until assembly drops it
        original = str(lincomb_to_poly(t, dict(brackets.get(key, ()))))
        brackets[key] = entry
        applied.append(Correction(lhs, rhs, value, original))
    cartan = [t.label(h) for h in t.cartan]
    return _assemble_table(t.name, t.registry, cartan, brackets, t.excluded_primes, applied)


# ---------------------------------------------------------------------------
# G2 catalog data
# ---------------------------------------------------------------------------

_G2_LABELS = ("h1", "h2", "x1", "x2", "x3", "x4", "x5", "x6")

_G2_BRACKETS = {
    ("h1", "x1"): "-x1",
    ("h1", "x2"): "x2",
    ("h1", "x4"): "2*x4",
    ("h1", "x5"): "-x5",
    ("h1", "x6"): "x6",
    ("h2", "x2"): "-x2",
    ("h2", "x3"): "-x3",
    ("h2", "x4"): "-x4",
    ("h2", "x5"): "-x5",
    ("h2", "x6"): "-2*x6",
    ("x1", "x2"): "2*x3",
    ("x1", "x3"): "3*x5",
    ("x1", "x4"): "x2",
    ("x2", "x3"): "3*x6",
    ("x4", "x5"): "-x6",
}


@lru_cache(maxsize=1)
def g2_borel() -> StructureTable:
    """The 8-dimensional Borel subalgebra of type G2 (h1, h2, x1..x6)."""
    registry = VarRegistry(_G2_LABELS)
    brackets = dict(_bracket_entry(registry, *key, text) for key, text in _G2_BRACKETS.items())
    return _assemble_table("g2-borel", registry, ("h1", "h2"), brackets, (2, 3))


# ---------------------------------------------------------------------------
# F4 catalog data
# ---------------------------------------------------------------------------


def _f4_brackets(registry: VarRegistry) -> dict[tuple[int, int], Entry]:
    """Merge the printed low/high column blocks, each cell parsed once, and
    cross-check antisymmetry.

    Both (xi, xj) and (xj, xi) are printed; they must be exact negatives,
    and the diagonal must vanish.  Root additivity is checked as well: each
    nonzero [xi, xj] must be a multiple of the generator whose root is the
    sum of the two roots.
    """
    cell: dict[tuple[str, str], Entry] = {}
    for data, offset in ((_f4_data.F4_TABLE_LOW, 1), (_f4_data.F4_TABLE_HIGH, 13)):
        for row_label, entries in data.items():
            if len(entries) != 12:
                raise TableDataError(f"F4 row {row_label} has {len(entries)} entries")
            for c, text in enumerate(entries):
                cell[(row_label, f"x{offset + c}")] = _parse_lincomb(registry, text)

    roots = {f"x{i + 1}": r for i, r in enumerate(_f4_data.F4_ROOTS)}
    brackets = {}
    for (row, col), value in cell.items():
        if row in roots:  # x-row: verify against the mirrored printed cell
            if row == col and value:
                raise TableDataError(f"F4 diagonal [{row},{row}] is nonzero")
            if tuple((k, -c) for k, c in cell[(col, row)]) != value:
                raise TableDataError(
                    f"F4 printed cells [{row},{col}] and [{col},{row}] are not antisymmetric"
                )
            if value:
                target = tuple(a + b for a, b in zip(roots[row], roots[col]))
                if len(value) != 1 or roots.get(registry.name(value[0][0])) != target:
                    raise TableDataError(f"F4 bracket [{row},{col}] is not root-additive")
        i, j = registry.index(row), registry.index(col)
        if i < j and value:
            brackets[(i, j)] = value
    return brackets


@lru_cache(maxsize=1)
def f4_borel() -> StructureTable:
    """The 28-dimensional Borel subalgebra of type F4 (h1..h4, x1..x24)."""
    registry = VarRegistry(_f4_data.F4_HS + _f4_data.F4_XS)
    return _assemble_table("f4-borel", registry, _f4_data.F4_HS, _f4_brackets(registry), (2,))


# ---------------------------------------------------------------------------
# Cn catalog: generated from the 2n x 2n matrix realization
# ---------------------------------------------------------------------------


def cn_basis_labels(n: int) -> tuple[list[str], list[str]]:
    """Cartan labels (h1..hn) and nilradical labels in realization order:
    a{i}_{j} = e(i,j)-e(n+j,n+i) for i<j, b{i} = e(i,n+i),
    c{i}_{j} = e(i,n+j)+e(j,n+i) for i<j."""
    cartan = [f"h{i}" for i in range(1, n + 1)]
    nil = [f"a{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    nil += [f"b{i}" for i in range(1, n + 1)]
    nil += [f"c{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return cartan, nil


def cn_realization(n: int) -> dict[str, dict[tuple[int, int], int]]:
    """Each basis label as a sparse 2n x 2n matrix {(row, col): entry}.

    The first key is the label's defining position: its entry is 1, no other
    basis matrix is nonzero there, so it reads off the label's coefficient."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mats = {}
    for i in range(n):
        mats[f"h{i + 1}"] = {(i, i): 1, (n + i, n + i): -1}
        mats[f"b{i + 1}"] = {(i, n + i): 1}
        for j in range(i + 1, n):
            mats[f"a{i + 1}_{j + 1}"] = {(i, j): 1, (n + j, n + i): -1}
            mats[f"c{i + 1}_{j + 1}"] = {(i, n + j): 1, (j, n + i): 1}
    return mats


def _sparse_commutator(a: dict, b: dict) -> dict:
    """ab - ba of sparse matrices, by E_ij E_kl = delta_jk E_il."""
    terms = [((i, l), x * y) for (i, j), x in a.items() for (k, l), y in b.items() if j == k]
    terms += [((k, j), -x * y) for (i, j), x in a.items() for (k, l), y in b.items() if l == i]
    return add_into({}, terms, QQ)


def cn_borel(n: int) -> StructureTable:
    """Borel subalgebra of type Cn: each bracket is the sparse commutator of
    the realization matrices, with coordinates read off the defining
    positions.

    Raises :class:`TableDataError` unless those coordinates rebuild the
    commutator exactly, i.e. unless it lies in the basis span.
    """
    real = cn_realization(n)
    cartan_labels, nil_labels = cn_basis_labels(n)
    labels = cartan_labels + nil_labels
    mats = [real[lab] for lab in labels]
    index = {next(iter(m)): k for k, m in enumerate(mats)}
    brackets = {}
    for i, j in combinations(range(len(labels)), 2):
        comm = _sparse_commutator(mats[i], mats[j])
        coords = {index[pos]: Fraction(c) for pos, c in comm.items() if pos in index}
        rebuilt: dict = {}
        for k, c in coords.items():
            add_into(rebuilt, mats[k].items(), QQ, c)
        if rebuilt != comm:
            raise TableDataError(f"commutator [{labels[i]},{labels[j]}] is not in the basis span")
        brackets[(i, j)] = tuple(sorted(coords.items()))
    return _assemble_table(f"c{n}-borel", VarRegistry(labels), cartan_labels, brackets, (2,))


# ---------------------------------------------------------------------------
# Derived tables
# ---------------------------------------------------------------------------


def nilradical_table(t: StructureTable) -> StructureTable:
    """Restrict a Borel table to its nilradical (an ideal, so closed)."""
    if not t.cartan:
        return t
    nil = list(t.nilradical)
    old_to_new = {old: new for new, old in enumerate(nil)}
    registry = VarRegistry([t.label(i) for i in nil])
    brackets = {}
    for (i, j), entry in t.brackets.items():
        if i in old_to_new and j in old_to_new:
            brackets[(old_to_new[i], old_to_new[j])] = tuple(
                (old_to_new[k], c) for k, c in entry
            )
    name = t.name.replace("-borel", "-nil") if "-borel" in t.name else t.name + "-nil"
    return _assemble_table(
        name, registry, (), brackets, t.excluded_primes, t.corrections, validate=False
    )


# ---------------------------------------------------------------------------
# Algebra-table file format
# ---------------------------------------------------------------------------


def table_from_dict(data: dict) -> StructureTable:
    """Build an unvalidated table from its file form, raising
    :class:`TableDataError` naming the field for any malformed input: among
    them a repeated bracket key and a coefficient that is neither a JSON
    integer nor a string ``Fraction`` parses exactly."""
    if not isinstance(data, dict):
        raise TableDataError("a table file holds one JSON object")
    if not isinstance(data.get("name"), str):
        raise TableDataError("table field 'name' must be present and a string")
    for key in ("basis", "cartan", "brackets"):
        if not isinstance(data.get(key), list):
            raise TableDataError(f"table field {key!r} must be present and a list")
    labels, cartan, items = data["basis"], data["cartan"], data["brackets"]
    primes = data.get("excluded_primes", [2])
    if not isinstance(primes, list) or not all(isinstance(p, int) for p in primes):
        raise TableDataError("table field 'excluded_primes' must be a list of integers")
    try:
        registry = VarRegistry(labels)
    except (TypeError, ValueError) as exc:
        raise TableDataError(f"table field 'basis': {exc}") from None

    def known(label, where: str) -> int:
        if not isinstance(label, str) or label not in registry:
            raise TableDataError(f"{where} names unknown basis label {label!r}")
        return registry.index(label)

    def exact(c, where: str) -> Fraction:
        # a JSON float is already rounded, and a boolean is no coefficient
        if isinstance(c, bool) or not isinstance(c, (int, str)):
            raise TableDataError(f"{where} has coefficient {c!r}, not an integer or a string")
        return Fraction(c)

    for h in cartan:
        known(h, "table field 'cartan'")
    brackets: dict[tuple[int, int], Entry] = {}
    for n, item in enumerate(items):
        where = f"table field 'brackets' entry {n}"
        try:
            i, j = known(item["lhs"], where), known(item["rhs"], where)
            terms = [(known(lab, where), exact(c, where)) for c, lab in item["value"]]
        except TableDataError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise TableDataError(f"{where} is malformed: {exc!r}") from None
        if i >= j:
            raise TableDataError("bracket keys must be in basis order")
        if (i, j) in brackets:
            raise TableDataError(f"{where} repeats the bracket [{item['lhs']},{item['rhs']}]")
        # duplicate labels sum, zeros drop, basis order as a parsed value has
        brackets[(i, j)] = tuple(sorted(add_into({}, terms, QQ).items()))
    return _assemble_table(
        data["name"], registry, cartan, brackets, tuple(primes), validate=False
    )


def load_table(path: str) -> StructureTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise TableDataError(f"cannot read table file {path}: {exc}") from None
    return table_from_dict(data)
