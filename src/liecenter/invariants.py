"""Named invariant elements of the catalog algebras and their verification.

For G2 and F4 the central elements c_i and the auxiliary u/v/w elements are
built from explicit formulas; for Cn they are determinants of nested
right-upper blocks of one fixed 2n x 2n anti-diagonally symmetric
arrangement of the basis, with the shared entries halved.  No family is
checked when it is built: the verification suites below do that.  The
module also provides the independent brute-force oracle: the space of
homogeneous invariants of a fixed degree computed by exact linear algebra,
decomposed into multidegree blocks derived from the structure table itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement, groupby
from math import isqrt
from typing import Callable, Iterable, Optional, Sequence

from . import linalg
from . import report as rep
from .exactalg import (
    QQ,
    Field,
    Polynomial,
    VarRegistry,
    parse_polynomial,
    poly_det,
)
from ._f4_data import F4_HS, F4_XS
from .liealg import _G2_LABELS, StructureTable, cn_basis_labels, lie_generators
from .poisson import ad_apply, cartan_eigenvalue


class OracleCapExceeded(ValueError):
    """The brute-force solver would exceed its size cap."""


# the solver cap: the matrix entries one oracle system may hold, summed over
# its blocks
ORACLE_MAX_ENTRIES = 10**7


# ---------------------------------------------------------------------------
# Invariant families
# ---------------------------------------------------------------------------

TriangleCase = tuple[str, str, Optional[str]]  # (v-name, x-label, expected c or None)


@dataclass
class InvariantFamily:
    """The named elements of one catalog algebra, built once over QQ; other
    fields get the reductions of the QQ elements."""

    family: str  # the catalog family: g2, f4 or cn
    table: StructureTable
    central: tuple[str, ...]
    builder: Callable[[], dict[str, Polynomial]]  # the elements over QQ
    weight_expectations: tuple = ()
    nonzero_pairings: tuple = ()
    chain: dict = dc_field(default_factory=dict)
    chain_weights: tuple = ()
    triangle_cases: tuple[TriangleCase, ...] = ()
    notes: tuple[str, ...] = ()
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def elements(self, field: Field = QQ) -> dict[str, Polynomial]:
        key = field.characteristic
        if key not in self._cache:
            self.table.check_characteristic(key)
            self._cache[key] = self.builder() if not key else {
                name: Polynomial.from_terms(poly.registry, field, poly.terms.items())
                for name, poly in self.elements().items()
            }
        return self._cache[key]

    def element(self, name: str, field: Field = QQ) -> Polynomial:
        return self.elements(field)[name]


# -- G2 ----------------------------------------------------------------------


def _g2_defs(registry: VarRegistry) -> dict[str, Polynomial]:
    def P(text: str) -> Polynomial:
        return parse_polynomial(registry, QQ, text)

    return {
        "c1": P("x6"),
        "c2": P("3*x1*x6 - 3*x2*x5 + x3^2"),
        "v2": P("-1/3*x3"),
        "v3": P("1/3*x2"),
        "v4": P("x5"),
        "v5": P("-x4"),
    }


def g2_invariants(t: StructureTable) -> InvariantFamily:
    triangle = []
    for i in range(2, 6):
        for j in range(i, 6):
            triangle.append((f"v{i}", f"x{j}", "c1" if i == j else None))
    return InvariantFamily(
        family="g2",
        table=t,
        central=("c1", "c2"),
        builder=lambda: _g2_defs(t.registry),
        weight_expectations=(
            ("c1", "h1", "1", None),
            ("c1", "h2", "-2", None),
            ("c2", "h1", "0", None),
            (
                "c2",
                "h2",
                "-2",
                "source states eigenvalue -1; direct expansion from the bracket "
                "table forces -2 (antisymmetry with {c2,h2} = 2*c2 agrees)",
            ),
        ),
        nonzero_pairings=(("c1", "h1"), ("c2", "h2")),
        triangle_cases=tuple(triangle),
    )


# -- F4 ----------------------------------------------------------------------


def _f4_defs(registry: VarRegistry) -> dict[str, Polynomial]:
    def P(text: str) -> Polynomial:
        return parse_polynomial(registry, QQ, text)

    e: dict[str, Polynomial] = {}
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
    # The source prints v8 = x21, but {x21, x8} = -x24 = -c1 while the
    # triangle identity requires +c1; the bracket [x8, x21] = x24 is forced
    # by the Jacobi identity, so the sign belongs on v8.
    e["v8"] = P("-x21")
    e["v5"] = P("-x22")
    e["v1"] = P("-x23")
    e["v13"] = P("2*x4*x24 - 2*x17*x18 + 2*x15*x20 - 2*x12*x21")
    e["v10"] = P("-2*x7*x24 + 2*x18*x19 + 2*x12*x22 - 2*x15*x21")
    e["u3"] = P("-x3*x24 - x11*x21 + x8*x22 - x15*x19")
    e["v6"] = -(e["c2"] * e["u3"]) + (e["v4"] * e["v10"]).scale("1/2")
    return e


_F4_TRIANGLE_INDICES = tuple(i for i in range(1, 25) if i not in (2, 9, 16, 24))

_F4_U6_X3_NOTE = (
    "source states {x3, u6} = -u9; the bracket table forces +u9, which is "
    "also what the passing identity {x3, v3} = -c3 requires"
)

_F4_CHAIN = {
    "v4": {"x4": ("-1", "c2")},
    "u9": {"x4": ("1", "v4")},
    "v7": {"x3": ("-1", "v4"), "x7": ("-1", "c2")},
    "u6": {
        "x3": ("1", "u9", _F4_U6_X3_NOTE),
        "x4": ("-1/2", "v7"),
        "x7": ("-1/2", "v4"),
    },
    "v3": {"x3": ("-1", "c3")},
    "u2": {"x3": ("-1", "u6"), "x7": ("-1/2", "v7")},
    "w3": {"x4": ("1", "v3"), "x7": ("-1", "c3")},
    "v10": {"x2": ("-1", "v7"), "x6": ("-1", "v4"), "x10": ("-1", "c2")},
    "u3": {
        "x2": ("-1", "u6"),
        "x4": ("-1/2", "v10"),
        "x6": ("1", "u9"),
        "x10": ("-1/2", "v4"),
    },
}

_F4_CHAIN_WEIGHTS = (
    ("u9", "h3", "2"),
    ("v4", "h3", "1"),
    ("u9", "h2", "0"),
    ("v4", "h2", "0"),
    ("u2", "h2", "2"),
    ("u6", "h2", "1"),
    ("v3", "h2", "1"),
    ("v7", "h2", "1"),
    ("w3", "h2", "1"),
)


def f4_invariants(t: StructureTable) -> InvariantFamily:
    def diag_class(i: int) -> str:
        if i in (3, 6):
            return "c3"
        if i in (4, 7, 10, 13):
            return "c2"
        return "c1"

    triangle = []
    for a, i in enumerate(_F4_TRIANGLE_INDICES):
        for j in _F4_TRIANGLE_INDICES[a:]:
            triangle.append((f"v{i}", f"x{j}", diag_class(i) if i == j else None))
    return InvariantFamily(
        family="f4",
        table=t,
        central=("c1", "c2", "c3", "c4"),
        builder=lambda: _f4_defs(t.registry),
        weight_expectations=(
            ("c1", "h1", "1", None),
            ("c1", "h2", "0", None),
            ("c1", "h3", "0", None),
            ("c1", "h4", "0", None),
            ("c2", "h2", "0", None),
            ("c2", "h3", "0", None),
            ("c2", "h4", "2", None),
            ("c3", "h2", "0", None),
            ("c3", "h3", "2", None),
            ("c4", "h2", "2", None),
        ),
        nonzero_pairings=(
            ("c1", "h1"),
            ("c2", "h4"),
            ("c3", "h3"),
            ("c4", "h2"),
        ),
        chain=_F4_CHAIN,
        chain_weights=_F4_CHAIN_WEIGHTS,
        triangle_cases=tuple(triangle),
        notes=(
            "v8 is taken as -x21: the printed +x21 gives {v8, x8} = -c1, "
            "while the Jacobi-forced bracket [x8, x21] = x24 requires -x21 "
            "for the triangle identity {v8, x8} = c1",
        ),
    )


# -- Cn ----------------------------------------------------------------------


def anti_index(l: int, s: int) -> int:
    """Position s counted from the other end of a length-l range: l - s + 1."""
    return l - s + 1


def _build_m_matrix(t: StructureTable, n: int) -> list[list[Polynomial]]:
    """The 2n x 2n anti-diagonally symmetric arrangement of the nilradical
    basis over QQ, 1-based: b{i} at (i, 2n+1-i) on the anti-diagonal, and
    a{i}_{j} at (i, j) and c{i}_{j}/2 at (i, 2n+1-j), each also at its
    mirror.  Halved, the shared c-entries make every block determinant
    invariant; the literal labels do not."""
    size = 2 * n
    zero = Polynomial.zero(t.registry, QQ)
    grid = [[zero] * size for _ in range(size)]

    def place(r: int, c: int, label: str, scale: str = "1") -> None:
        entry = Polynomial.variable(t.registry, QQ, label).scale(scale)
        grid[r - 1][c - 1] = grid[anti_index(size, c) - 1][anti_index(size, r) - 1] = entry

    for i in range(1, n + 1):
        place(i, anti_index(size, i), f"b{i}")
        for j in range(i + 1, n + 1):
            place(i, j, f"a{i}_{j}")
            place(i, anti_index(size, j), f"c{i}_{j}", "1/2")
    return grid


def cn_invariants(t: StructureTable) -> InvariantFamily:
    """The Cn determinant invariants: c_i is the determinant of the i-th
    right-upper block (rows 1..i, last i columns) of ``_build_m_matrix``,
    computed when the elements are first asked for.  The c_i depend on the
    basis labels only, never on the brackets; the invariance, weights and
    audit suites verify them."""
    n = _cn_rank(t)

    def builder() -> dict[str, Polynomial]:
        grid = _build_m_matrix(t, n)
        return {f"c{i}": poly_det([row[2 * n - i:] for row in grid[:i]]) for i in range(1, n + 1)}

    weight_expectations = tuple(
        (f"c{i}", f"h{k}", "2" if k <= i else "0", None)
        for i in range(1, n + 1)
        for k in range(1, n + 1)
    )
    return InvariantFamily(
        family="cn",
        table=t,
        central=tuple(f"c{i}" for i in range(1, n + 1)),
        builder=builder,
        weight_expectations=weight_expectations,
        nonzero_pairings=tuple((f"c{i}", f"h{i}") for i in range(1, n + 1)),
        notes=("entry-scaling convention: halve-shared",),
    )


def _cn_rank(t: StructureTable) -> int:
    """n for a Cn Borel table (one Cartan label per rank) or its nilradical
    (dimension n^2)."""
    return len(t.cartan) or isqrt(t.dim)


# -- Catalog -----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """What is known about one catalog family beyond its structure table."""

    build: Callable[[StructureTable], InvariantFamily]
    # (Cartan labels, nilradical labels) of the family's Borel algebra of t's size
    labels: Callable[[StructureTable], tuple[Sequence[str], Sequence[str]]]
    c1: str  # the basis variable that is the degree-one invariant
    # primes dividing a denominator in the family's formulas: the family does
    # not exist in these characteristics, whatever primes a table file excludes
    formula_primes: tuple[int, ...]
    nil_degree: int  # default oracle degree at the nilradical level
    borel_degree: int  # and at the Borel level, whose grade-zero Cartan variables grow the blocks


CATALOG = (
    CatalogEntry(g2_invariants, lambda t: (_G2_LABELS[:2], _G2_LABELS[2:]), "x6", (3,), 6, 6),
    CatalogEntry(f4_invariants, lambda t: (F4_HS, F4_XS), "x24", (2,), 4, 3),
    CatalogEntry(cn_invariants, lambda t: cn_basis_labels(_cn_rank(t)), "b1", (2,), 3, 3),
)


def catalog_entry(t: StructureTable) -> Optional[CatalogEntry]:
    """The catalog family of a table, recognised by its basis and Cartan
    labels (a catalog Borel algebra or its nilradical), never by its name;
    None for any other table."""
    basis = tuple(t.registry.names)
    cartan = tuple(t.label(i) for i in t.cartan)
    for entry in CATALOG:
        hs, xs = (tuple(part) for part in entry.labels(t))
        if xs and (basis, cartan) in ((hs + xs, hs), (xs, ())):
            return entry
    return None


def inadmissible_reason(t: StructureTable, char: int) -> Optional[str]:
    """Why characteristic char cannot be used with t, or None when it can:
    the table excludes it, the formulas of t's catalog family divide by it,
    or it divides a structure-constant denominator."""
    entry = catalog_entry(t)
    if not t.admissible_characteristic(char) or (entry and char in entry.formula_primes):
        return f"characteristic {char} is excluded for algebra {t.name}"
    if char and t.scale % char == 0:
        return f"a structure constant of {t.name} has a denominator divisible by {char}"
    return None


def build_family(t: StructureTable) -> InvariantFamily:
    entry = catalog_entry(t)
    if entry is None:
        raise ValueError(f"no invariant family known for algebra {t.name!r}")
    return entry.build(t)


def oracle_degree(t: StructureTable, max_degree: Optional[int] = None) -> int:
    """The highest degree the oracle checks for a catalog table: max_degree
    when given, else its family's default at the table's level."""
    if max_degree is not None:
        return max_degree
    entry = catalog_entry(t)
    return entry.borel_degree if t.cartan else entry.nil_degree


# ---------------------------------------------------------------------------
# Verification suites over families
# ---------------------------------------------------------------------------


def invariance_suite(t: StructureTable, fam: InvariantFamily, field: Field = QQ) -> list[rep.Claim]:
    """One claim per (central element, nilradical generator): {x, c} = 0."""
    claims = []
    char = field.characteristic
    for name in fam.central:
        f = fam.element(name, field)
        for i in t.nilradical:
            g = ad_apply(t, i, f)
            claims.append(
                rep.check(
                    f"{t.name}.invariance.{name}.{t.label(i)}.char{char}",
                    f"{{{t.label(i)}, {name}}} = 0 over characteristic {char}",
                    g.is_zero,
                    residual=None if g.is_zero else str(g),
                )
            )
    return claims


def _expected_poly(fam: InvariantFamily, field: Field, spec: Optional[tuple]) -> Polynomial:
    reg = fam.table.registry
    if spec is None:
        return Polynomial.zero(reg, field)
    coef, target = spec[0], spec[1]
    return fam.element(target, field).scale(coef)


def verify_relation_chain(t: StructureTable, fam: InvariantFamily, field: Field = QQ) -> list[rep.Claim]:
    """Check every stated derivation identity of the auxiliary elements,
    including all '= 0 otherwise' complements, plus their weight facts.

    A chain entry may carry a note recording a corrected sign; such claims
    report as derived-with-note when the corrected identity holds.
    """
    claims = []
    for elem in sorted(fam.chain):
        expect_map = fam.chain[elem]
        f = fam.element(elem, field)
        for i in t.nilradical:
            label = t.label(i)
            spec = expect_map.get(label)
            expected = _expected_poly(fam, field, spec)
            got = ad_apply(t, i, f)
            residual = got - expected
            note = spec[2] if spec and len(spec) > 2 else None
            if spec:
                statement = f"{{{label}, {elem}}} = {spec[0]}*{spec[1]}"
            else:
                statement = f"{{{label}, {elem}}} = 0"
            claim_id = f"{t.name}.chain.{elem}.{label}"
            if residual.is_zero and note:
                claims.append(rep.noted(claim_id, statement, note))
            else:
                claims.append(
                    rep.check(
                        claim_id,
                        statement,
                        residual.is_zero,
                        residual=None if residual.is_zero else str(residual),
                        note=note,
                    )
                )
    for elem, h_label, scalar in fam.chain_weights:
        if h_label not in t.registry:  # Cartan facts need the Borel table
            continue
        f = fam.element(elem, field)
        lam = cartan_eigenvalue(t, h_label, f)
        want = field.coerce(scalar)
        claims.append(
            rep.check(
                f"{t.name}.chain.weight.{elem}.{h_label}",
                f"{{{h_label}, {elem}}} = {scalar}*{elem}",
                lam is not None and lam == want,
                residual=None if lam == want else f"eigenvalue {lam}",
            )
        )
    return claims


def verify_triangle_property(t: StructureTable, fam: InvariantFamily, field: Field = QQ) -> list[rep.Claim]:
    """The triangular pairing of the v-elements against the generators:
    zero above the diagonal, a designated central element on it."""
    claims = []
    for vname, xlabel, cname in fam.triangle_cases:
        v = fam.element(vname, field)
        got = ad_apply(t, t.registry.index(xlabel), v.scale(-1))  # {v, x} = -{x, v}
        expected = (
            Polynomial.zero(t.registry, field)
            if cname is None
            else fam.element(cname, field)
        )
        residual = got - expected
        claims.append(
            rep.check(
                f"{t.name}.triangle.{vname}.{xlabel}",
                f"{{{vname}, {xlabel}}} = {cname or '0'}",
                residual.is_zero,
                residual=None if residual.is_zero else str(residual),
            )
        )
    return claims


# ---------------------------------------------------------------------------
# Brute-force oracle: homogeneous invariant spaces by exact linear algebra
# ---------------------------------------------------------------------------


def derive_multigrading(t: StructureTable) -> list[tuple[int, ...]]:
    """Integer gradings of the basis compatible with every bracket:
    w_i + w_j = w_k whenever x_k appears in [x_i, x_j].

    Any such grading splits the invariance system into independent blocks,
    because each ad x_i shifts a monomial's multidegree by w_i uniformly.
    Computed once per table.
    """
    key = ("multigrading",)
    if key not in t.memo:
        t.memo[key] = _derive_multigrading(t)
    return list(t.memo[key])


def _derive_multigrading(t: StructureTable) -> tuple[tuple[int, ...], ...]:
    dim = t.dim
    rows = []
    for (i, j), entry in sorted(t.brackets.items()):
        for k, c in entry:
            if c:
                row = [0] * dim
                row[i] += 1
                row[j] += 1
                row[k] -= 1
                rows.append(row)
    if not rows:
        rows = [[0] * dim]
    return tuple(tuple(v) for v in linalg.nullspace_int(rows, dim))


def brute_force_invariant_space(
    t: StructureTable,
    degree: int,
    gens: Iterable[int],
    field: Field = QQ,
) -> list[Polynomial]:
    """Basis of the space of homogeneous degree-d polynomials killed by every
    ad x_i, i in gens, solved exactly blockwise per derived multidegree.

    This is the independent oracle: it never consults the invariant
    families, only the structure table.  Constraint rows are built for the
    Lie generating subset of ``gens`` only (:func:`liealg.lie_generators`):
    it kills the same polynomials, so the null space, and with it the row
    space, is that of all of ``gens``.

    The columns are the sorted variable-index tuples of
    ``combinations_with_replacement(range(dim), degree)``, (0, 0, 2) for
    x_0^2 x_2: lexicographic by dense exponent vector, largest first.  A
    monomial packs into the code sum(e_v * B**v), B = degree + 1, its
    exponent vector in base B (every e_v <= d < B), so x_v -> x_w maps
    ``code`` to ``code - B**v + B**w``.  Its multidegree packs into one
    integer too, first grading most significant: the digit of grading g is
    shifted by lo = min(g) into [0, d*(max(g) - lo)] and has base
    d*(max(g) - lo) + 1, so no digit carries and the packed integers sort
    as the multidegree tuples do.

    One scan of a block's columns fills the rows of every generator: each
    occurrence of x_v in a column (e_v of them) adds the coefficient of x_w
    in [x_i, x_v] to the row of generator i at the image code, mod p over
    GF(p).  The rows are the dense lists handed on, one dict of them per
    generator; those not all zero are taken generator by generator, each in
    the order its image was first met, as one scan per generator would.
    Index tuples become ``(v, e)`` monomials only for blocks with a kernel.

    The rows are read from ``StructureTable.rows``, the constants
    times their common denominator D, which scales every constraint by the
    unit D and leaves the null space alone (p | D raises ZeroDivisionError);
    over GF(p) the constants are reduced, the vanishing ones dropped.  Each
    block is first rank-tested modulo a fixed large prime (p over GF(p));
    full modular column rank proves an empty kernel, and only the remaining
    blocks are eliminated exactly.  The pivot columns, and
    with them the basis, do not depend on the order of the rows.  Each
    space is solved once per table.  A system of more than
    ``ORACLE_MAX_ENTRIES`` dense entries raises :class:`OracleCapExceeded`.
    """
    t.check_characteristic(field.characteristic)
    t.inverse_scale(field)
    char = field.characteristic
    gens = tuple(gens)
    memo_key = ("oracle", char, degree, gens)
    if memo_key in t.memo:
        return list(t.memo[memo_key])
    gens = lie_generators(t, gens, char)
    dim = t.dim
    place = [(degree + 1) ** v for v in range(dim)]
    packed_grade = [0] * dim
    for g in derive_multigrading(t):
        lo = min(g)
        base = degree * (max(g) - lo) + 1
        packed_grade = [pg * base + w - lo for pg, w in zip(packed_grade, g)]
    blocks: dict[int, list[tuple[int, ...]]] = {}
    for idx in combinations_with_replacement(range(dim), degree):
        blocks.setdefault(sum(map(packed_grade.__getitem__, idx)), []).append(idx)

    acts = [
        tuple(
            (gpos, place[w] - place[v], coeff)
            for gpos, i in enumerate(gens)
            for w, cw in t.rows[i].get(v, ())
            if (coeff := cw % char if char else cw)
        )
        for v in range(dim)
    ]
    basis: list[Polynomial] = []
    total_entries = 0
    for grade in sorted(blocks):
        cols = blocks[grade]
        ncols = len(cols)
        by_target: list[dict[int, list[int]]] = [{} for _ in gens]
        for cidx, idx in enumerate(cols):
            code = sum(map(place.__getitem__, idx))
            for v in idx:
                for gpos, shift, cw in acts[v]:
                    lines = by_target[gpos]
                    line = lines.get(code + shift)
                    if line is None:
                        line = lines[code + shift] = [0] * ncols
                    if char:
                        line[cidx] = (line[cidx] + cw) % char
                    else:
                        line[cidx] += cw
        dense = [line for lines in by_target for line in lines.values() if any(line)]
        total_entries += len(dense) * ncols
        if total_entries > ORACLE_MAX_ENTRIES:
            raise OracleCapExceeded(
                f"oracle system exceeds {ORACLE_MAX_ENTRIES} matrix entries"
            )
        if not dense:
            null = [[1 if c == k else 0 for c in range(ncols)] for k in range(ncols)]
        elif linalg.saturates_mod(dense, ncols, char or linalg.FILTER_PRIME):
            null = []
        elif char:
            null = linalg.nullspace_mod(dense, ncols, char)
        else:
            null = linalg.nullspace_int(dense, ncols)
        if null:
            monos = [tuple((v, len(list(run))) for v, run in groupby(idx)) for idx in cols]
        for vec in null:
            basis.append(Polynomial.from_terms(t.registry, field, zip(monos, vec)))
    t.memo[memo_key] = tuple(basis)
    return basis


# ---------------------------------------------------------------------------
# Span comparison against declared generators
# ---------------------------------------------------------------------------


def degree_d_products(
    generators: Sequence[tuple[str, Polynomial]], degree: int
) -> list[tuple[str, Polynomial]]:
    """All products of the declared generators of total degree d."""
    gens = [(name, poly, poly.total_degree()) for name, poly in generators]
    out: list[tuple[str, Polynomial]] = []

    def rec(idx: int, remaining: int, label_parts: list, acc: Optional[Polynomial]):
        if remaining == 0:
            out.append(("*".join(label_parts) or "1", acc))
            return
        if idx == len(gens):
            return
        name, poly, d = gens[idx]
        rec(idx + 1, remaining, label_parts, acc)
        power = 1
        current = acc
        while power * d <= remaining:
            current = poly if current is None else current * poly
            label = name if power == 1 else f"{name}^{power}"
            rec(idx + 1, remaining - power * d, label_parts + [label], current)
            power += 1

    rec(0, degree, [], None)
    return out


def compare_with_generated(
    t: StructureTable,
    oracle_basis: Sequence[Polynomial],
    generators: Sequence[tuple[str, Polynomial]],
    degree: int,
    field: Field = QQ,
) -> dict:
    """Exact mutual-containment comparison: the span of degree-d generator
    products against the oracle's invariant space."""
    products = [p for _, p in degree_d_products(generators, degree) if not p.is_zero]
    oracle_rows = [p.terms for p in oracle_basis]
    generated_rows = [p.terms for p in products]
    r_oracle = linalg.rank(oracle_rows, field)
    r_generated = linalg.rank(generated_rows, field)
    r_union = linalg.rank(oracle_rows + generated_rows, field)
    return {
        "degree": degree,
        "oracle_dim": r_oracle,
        "generated_dim": r_generated,
        "union_dim": r_union,
        "equal": r_oracle == r_generated == r_union,
    }


def oracle_suite(
    t: StructureTable,
    generators: Sequence[tuple[str, Polynomial]],
    degrees: Iterable[int],
    field: Field = QQ,
    gens: Optional[Sequence[int]] = None,
) -> tuple[list[rep.Claim], list[dict]]:
    """Compare oracle invariant spaces with generated spans degree by degree;
    ``gens`` are the basis indices the invariants are taken under, by
    default the nilradical."""
    claims = []
    results = []
    gen_indices = list(t.nilradical) if gens is None else list(gens)
    char = field.characteristic
    for d in degrees:
        basis = brute_force_invariant_space(t, d, gen_indices, field)
        res = compare_with_generated(t, basis, generators, d, field)
        results.append(res)
        claims.append(
            rep.check(
                f"{t.name}.oracle.deg{d}.char{char}",
                f"degree-{d} invariant space (dim {res['oracle_dim']}) equals the "
                f"generated span (dim {res['generated_dim']}) over characteristic {char}",
                res["equal"],
                residual=None if res["equal"] else str(res),
            )
        )
    return claims, results
