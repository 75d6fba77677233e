"""The Poisson bracket on the symmetric algebra of a structure table.

The bracket of two polynomials is the unique biderivation extending the Lie
bracket of the generators: it is computed by bilinear expansion with the
Leibniz rule, never through a materialized Poisson matrix.  The adjoint
action, which every suite reads, runs on ints over the table's integer rows
at every characteristic.  Invariance and weight computations are exact;
eigenvector tests compare term sets, so no notion of tolerance exists.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Union

from . import report as rep
from .exactalg import (
    Field,
    Polynomial,
    QQ,
    eigenvalue,
    mono_div_var,
    mono_mul_var,
)
from .liealg import StructureTable, lie_generators


def ad_apply(t: StructureTable, i: Union[int, str], f: Polynomial) -> Polynomial:
    """{x_i, f}: the adjoint action of a basis element as a derivation, on
    ints: L*f, L clearing f's denominators, under the row D*[x_i, -], each
    term mapped once into the field times 1/(L*D), the vanishing ones dropped."""
    if f.registry != t.registry:
        raise ValueError("polynomial is not over the algebra's registry")
    i = t.registry.resolve(i)
    field = f.field
    p = field.characteristic
    t.check_characteristic(p)
    inverse = t.inverse_scale(field)
    row = t.rows[i]
    # the residues of GF(p) are ints already, with L = 1
    scale = 1 if p else lcm(1, *(c.denominator for c in f.terms.values()))
    ints = f.terms if p else {m: c.numerator * scale // c.denominator for m, c in f.terms.items()}
    terms: dict = {}
    for mono, coeff in ints.items():
        for v, e in mono:
            targets = row.get(v)
            if not targets:
                continue
            factor = coeff * e
            base = mono_div_var(mono, v)
            # accumulated inline, not through add_into: the hottest loop of the suites
            for w, cw in targets:
                m2 = mono_mul_var(base, w)
                c = terms.get(m2, 0) + factor * cw
                if c:
                    terms[m2] = c
                else:
                    terms.pop(m2, None)
    inverse = field.div(inverse, scale)
    out = {m: r for m, c in terms.items() if (r := c * inverse % p if p else c * inverse)}
    return Polynomial(f.registry, field, out)


def poisson_bracket(t: StructureTable, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} extended from the bracket table by the Leibniz rule."""
    if f.registry != t.registry or g.registry != t.registry:
        raise ValueError("polynomials are not over the algebra's registry")
    if f.field != g.field:
        raise ValueError("polynomials live over different fields")
    field = f.field
    out = Polynomial.zero(f.registry, field)
    df: dict[int, Polynomial] = {}
    dg: dict[int, Polynomial] = {}

    def pf(v: int) -> Polynomial:
        if v not in df:
            df[v] = f.partial(v)
        return df[v]

    def pg(v: int) -> Polynomial:
        if v not in dg:
            dg[v] = g.partial(v)
        return dg[v]

    for (i, j) in t.brackets:
        term = pf(i) * pg(j) - pf(j) * pg(i)
        if term.is_zero:
            continue
        out = out + t.bracket(i, j, field) * term
    return out


def is_invariant(
    t: StructureTable, f: Polynomial, gens: Iterable[int]
) -> tuple[bool, Optional[int]]:
    """True iff {x_i, f} = 0 for every generator index; otherwise the first
    failing generator is returned.  Decided over a Lie generating subset of
    ``gens``, which kills f exactly when all of ``gens`` does."""
    gens = tuple(gens)
    subset = lie_generators(t, gens, f.field.characteristic)
    if all(ad_apply(t, i, f).is_zero for i in subset):
        return True, None
    # the subset lies in gens, so some generator fails
    return False, next(i for i in gens if not ad_apply(t, i, f).is_zero)


def cartan_eigenvalue(t: StructureTable, k: Union[int, str], f: Polynomial):
    """The scalar lam with {h_k, f} = lam*f, or None if f is no eigenvector."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no weight")
    return eigenvalue(f, ad_apply(t, k, f))


def weight_of(t: StructureTable, f: Polynomial) -> tuple[Optional[tuple], Optional[int]]:
    """The simultaneous eigenvalue sequence of f under all Cartan generators.

    Returns ``(weights, None)`` when f is a weight vector, otherwise
    ``(None, k)`` with k the first Cartan index for which {h_k, f} is not a
    scalar multiple of f.
    """
    weights = []
    for k in t.cartan:
        lam = cartan_eigenvalue(t, k, f)
        if lam is None:
            return None, k
        weights.append(lam)
    return tuple(weights), None


# ---------------------------------------------------------------------------
# Semi-center witness suite
# ---------------------------------------------------------------------------


def _fmt_weight(w) -> str:
    return "(" + ", ".join(str(x) for x in w) + ")"


def semicenter_witness_suite(t: StructureTable, fam, field: Field = QQ) -> list[rep.Claim]:
    """Verify that each central family element is nilradical-invariant and a
    Cartan weight vector, and check the expected eigenvalue pairings.

    ``fam`` is an invariant family whose ``weight_expectations`` lists
    (element, cartan label, expected scalar, note) entries; a non-empty note
    downgrades the claim to derived-with-note, recording the discrepancy
    against the source value it corrects.
    """
    claims: list[rep.Claim] = []
    prefix = t.name
    for name in fam.central:
        f = fam.element(name, field)
        ok, bad = is_invariant(t, f, t.nilradical)
        claims.append(
            rep.check(
                f"{prefix}.weights.{name}.nil-invariant",
                f"{{x, {name}}} = 0 for every nilradical generator x",
                ok,
                witness=None if ok else t.label(bad),
            )
        )
        weights, failing = weight_of(t, f)
        if weights is None:
            claims.append(
                rep.failed(
                    f"{prefix}.weights.{name}.eigenvector",
                    f"{name} is a simultaneous Cartan eigenvector",
                    witness=t.label(failing),
                )
            )
            continue
        claims.append(
            rep.verified(
                f"{prefix}.weights.{name}.eigenvector",
                f"{name} has Cartan weight {_fmt_weight(weights)}",
            )
        )
    for elem, h_label, expected, note in fam.weight_expectations:
        f = fam.element(elem, field)
        lam = cartan_eigenvalue(t, h_label, f)
        want = field.coerce(expected)
        ok = lam is not None and lam == want
        claim_id = f"{prefix}.weights.{elem}.{h_label}"
        statement = f"{{{h_label}, {elem}}} = {expected}*{elem}"
        if ok and note:
            claims.append(rep.noted(claim_id, statement, note))
        else:
            claims.append(
                rep.check(
                    claim_id,
                    statement,
                    ok,
                    residual=None if lam is None else f"eigenvalue {lam}",
                    witness=None if lam is not None else "not an eigenvector",
                )
            )
    # nonzero-weight pairings that separate the semi-center from the center
    for elem, h_label in fam.nonzero_pairings:
        f = fam.element(elem, field)
        lam = cartan_eigenvalue(t, h_label, f)
        ok = lam is not None and lam != field.zero
        claims.append(
            rep.check(
                f"{prefix}.weights.{elem}.{h_label}.nonzero",
                f"{{{h_label}, {elem}}} is a nonzero multiple of {elem}",
                ok,
                residual=None if ok else f"eigenvalue {lam}",
            )
        )
    return claims
