"""Characteristic-p bookkeeping: p-power generator sets, Frobenius-power
membership with non-membership witnesses, the determinant identities behind
the height argument, and the generator audits for the structural theorems.

Derivatives "with respect to x^p" are taken formally on p-power-patterned
polynomials, as ``Polynomial.partial(var, p)``: writing y_i for x_i^p
identifies the p-power subalgebra with a plain polynomial ring, so the
determinant identities are first proved as exact rational identities in the
y-variables (characteristic-free) and then instantiated literally over F_p
through the Frobenius expansion.

The identities themselves are data of the family (``InvariantFamily.layers``
and ``InvariantFamily.jacobians``); the suites here check whatever a family
records and never name one.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

from . import report as rep
from .exactalg import (
    Field,
    GF,
    Polynomial,
    QQ,
    eigenvalue,
    field_of_characteristic,
    frobenius_expand,
    jacobian_det,
    mono_to_str,
    poly_det,
    ppattern_membership,
)
from .invariants import (
    InvariantFamily,
    brute_force_invariant_space,
    catalog_entry,
    compose,
    oracle_degree,
    oracle_suite,
)
from .liealg import StructureTable, ad_power_identity
from .linalg import rank
from .pbw import (
    CharacteristicObstruction,
    PBWElement,
    commutator_with_basis,
    gr_leading,
    is_central_u,
    p_center_elements,
    reduce_u,
    symmetrize,
)
from .poisson import cartan_eigenvalue, is_invariant, weight_of


def c1_label(t: StructureTable) -> str:
    """The single basis variable that equals the first invariant."""
    entry = catalog_entry(t)
    if entry is None:
        raise ValueError(f"no designated degree-one invariant for {t.name!r}")
    return entry.c1


# ---------------------------------------------------------------------------
# Generator sets
# ---------------------------------------------------------------------------


def sp_generators(t: StructureTable, p: int) -> list[tuple[str, Polynomial]]:
    """The p-power generator list of the invariant subalgebra at t's level,
    as (name, polynomial) pairs over GF(p): the p-th powers of the
    nilradical generators with the degree-one invariant itself in place of
    its p-th power, then the p-th powers of t's Cartan part, if any."""
    t.check_characteristic(p)
    field = GF(p)
    exempt = c1_label(t)

    def power(i: int) -> tuple[str, Polynomial]:
        return f"{t.label(i)}^{p}", Polynomial.variable(t.registry, field, i) ** p

    out = [power(i) for i in t.nilradical if t.label(i) != exempt]
    out.append((exempt, Polynomial.variable(t.registry, field, exempt)))
    out.extend(power(j) for j in t.cartan)
    return out


def invariant_generators(
    t: StructureTable, fam: InvariantFamily, field: Field
) -> list[tuple[str, Polynomial]]:
    """The claimed generators of the nilradical invariants at t's level: the
    central elements, and at characteristic p the p-power generator set in
    place of c1."""
    gens = [(name, fam.element(name, field)) for name in fam.central]
    p = field.characteristic
    if not p:
        return gens
    return sp_generators(t, p) + [g for g in gens if g[0] != "c1"]


# ---------------------------------------------------------------------------
# Frobenius-power membership
# ---------------------------------------------------------------------------


def frobenius_membership_suite(
    t: StructureTable, fam: InvariantFamily, p: int
) -> list[rep.Claim]:
    """For every invariant c_i with i >= 2: c_i^p lies in the p-power
    subalgebra (pattern membership) while c_i itself does not, with a
    deterministic witness monomial.  Each of the family's layers, an
    element stated as a composition of others, is verified on the p-th
    powers by exact subtraction, and the p-th power of each non-central
    factor, in order of first appearance, by pattern membership.  Each
    Frobenius expansion is computed once."""
    t.check_characteristic(p)
    field = GF(p)
    F = cache(lambda name: frobenius_expand(fam.element(name, field), p))
    exempt = (c1_label(t),)
    claims = []
    prefix = f"{t.name}.frobenius.p{p}"
    for name in fam.central:
        if name == "c1":
            continue
        ok, witness = ppattern_membership(F(name), p, exempt)
        claims.append(
            rep.check(
                f"{prefix}.{name}.power-member",
                f"{name}^{p} has {p}-divisible exponents outside {exempt[0]}",
                ok,
                witness=None if ok else mono_to_str(t.registry, witness),
            )
        )
        member, witness = ppattern_membership(fam.element(name, field), p, exempt)
        claims.append(
            rep.Claim(
                f"{prefix}.{name}.non-member",
                f"{name} itself violates the {p}-power pattern (witness recorded)",
                rep.VERIFIED if (not member and witness is not None) else rep.FAILED,
                witness=None if witness is None else mono_to_str(t.registry, witness),
            )
        )
    for name, statement, terms in fam.layers:
        # c^p = c in GF(p), so each stated coefficient is its own p-th power
        lhs = F(name) - compose(terms, F)
        claims.append(
            rep.check(
                f"{prefix}.{name}p-layered",
                statement.format(p=p, p2=2 * p),
                lhs.is_zero,
                residual=None if lhs.is_zero else str(lhs),
            )
        )
    factors = (f for _, _, terms in fam.layers for _, names in terms for f in names)
    for aux in dict.fromkeys(f for f in factors if f not in fam.central):
        ok, witness = ppattern_membership(F(aux), p, ())
        claims.append(
            rep.check(
                f"{prefix}.{aux}p-pattern",
                f"{aux}^{p} is a polynomial in the {p}-th powers of the generators",
                ok,
                witness=None if ok else mono_to_str(t.registry, witness),
            )
        )
    return claims


# ---------------------------------------------------------------------------
# Determinant identities in the p-th powers
# ---------------------------------------------------------------------------


def _signed_claim(
    claim_id: str, statement: str, got: Polynomial, stated: Polynomial, word: str
) -> rep.Claim:
    """Verified when got equals the stated polynomial, noted when it is its
    negative (the recorded global sign), failed otherwise."""
    if got == stated:
        return rep.verified(claim_id, statement, note="sign +1")
    if got == -stated:
        return rep.noted(claim_id, statement, f"sign -1 relative to the stated {word}")
    return rep.failed(claim_id, statement, residual=str(got - stated))


def jacobian_identity_suite(
    t: StructureTable, fam: InvariantFamily, p: int = 3
) -> list[rep.Claim]:
    """The displayed determinant identities behind the height argument.

    Writing f_i = t_i^p - c_i^p, the determinant of d(f_i) with respect to
    the chosen p-th powers equals the Jacobian of the -c_i in the p-power
    variables, which is a characteristic-free rational identity; it is
    checked exactly over Q up to one recorded global sign, then instantiated
    literally over F_p via Frobenius expansion.  A family without
    ``jacobians`` has no claims.
    """
    jac = fam.jacobians
    if jac is None:
        return []
    claims = []
    field = GF(p)
    named = fam.elements()
    neg_cs = [-named[c] for c in jac.cs]
    # each c_i^p once, for every identity and variable
    neg_frob = [-frobenius_expand(fam.element(c, field), p) for c in jac.cs]
    for vars_, coef, factors in jac.identities:
        rhs = Polynomial.constant(t.registry, QQ, coef)
        for n, k in factors:
            rhs = rhs * (named.get(n) or Polynomial.variable(t.registry, QQ, n)) ** k
        lhs = jacobian_det(neg_cs, vars_)
        claim_id = f"{t.name}.jacobians.{jac.kind}.{'-'.join(vars_)}"
        rhs_str = f"{coef}*" + "*".join(f"{n}^{k}" if k > 1 else n for n, k in factors)
        statement = jac.statement.format(vars=",".join(vars_), rhs=rhs_str)
        claims.append(_signed_claim(claim_id, statement, lhs, rhs, jac.word))
        # literal instantiation over F_p: since c^p = c in GF(p), the
        # Frobenius expansion of the reduced Q-identity is y -> x^p on it
        lit = poly_det([[f.partial(v, p) for v in vars_] for f in neg_frob])
        expected = frobenius_expand(Polynomial.from_terms(t.registry, field, lhs.terms.items()), p)
        claims.append(
            rep.check(
                f"{claim_id}.f{p}",
                jac.literal.format(vars=",".join(vars_), p=p),
                lit == expected,
                residual=None if lit == expected else str(lit - expected),
            )
        )
    return claims


# ---------------------------------------------------------------------------
# Central lifts usable at any admissible characteristic
# ---------------------------------------------------------------------------


def central_lift(
    t: StructureTable, fam: InvariantFamily, name: str, field: Field
) -> tuple[Optional[PBWElement], str]:
    """A lift of a central family element into the enveloping algebra.

    Symmetrization is used when the characteristic permits; otherwise the
    characteristic-zero symmetrized lift is reduced, which is possible
    whenever its coefficient denominators avoid p.  Returns (element, how)
    with element None when no construction applies.
    """
    char = field.characteristic
    c = fam.element(name, field)
    try:
        return symmetrize(t, c), "symmetrized"
    except CharacteristicObstruction:
        pass
    z_q = symmetrize(t, fam.element(name, QQ))
    reduced = reduce_u(z_q, field)
    if reduced is not None:
        return reduced, f"characteristic-0 symmetrized lift reduced mod {char}"
    return None, "no construction: symmetrization obstructed and reduction undefined"


# ---------------------------------------------------------------------------
# Theorem generator audits
# ---------------------------------------------------------------------------

def _audit_invariant_generators(
    t: StructureTable,
    claims: list,
    prefix: str,
    generators: Sequence[tuple[str, Polynomial]],
    gens_idx: Sequence[int],
    scope: str,
) -> None:
    for name, poly in generators:
        ok, bad = is_invariant(t, poly, gens_idx)
        claims.append(
            rep.check(
                f"{prefix}.gen.{name}.invariant",
                f"generator {name} is {scope}-invariant",
                ok,
                witness=None if ok else t.label(bad),
            )
        )


def _audit_central_generators(
    t: StructureTable,
    claims: list,
    prefix: str,
    elements: Sequence[tuple[str, PBWElement]],
    gens_idx: Sequence[int],
) -> None:
    for name, elt in elements:
        ok, bad = is_central_u(t, elt, gens_idx)
        claims.append(
            rep.check(
                f"{prefix}.gen.{name}.central",
                f"generator {name} commutes with every generator of the enveloping algebra",
                ok,
                witness=None if ok else t.label(bad),
            )
        )


def _audit_completeness(claims: list, prefix: str, results: Sequence[dict], statement: str) -> None:
    """One claim per oracle_suite result: the degree-d invariant space equals
    the generated span; ``statement`` is formatted with the result's fields."""
    for res in results:
        claims.append(
            rep.check(
                f"{prefix}.complete.deg{res['degree']}",
                statement.format(**res),
                res["equal"],
                residual=None if res["equal"] else str(res),
            )
        )


def _asserted_generation(prefix: str, ring: str, note: str) -> rep.Claim:
    return rep.asserted(
        f"{prefix}.generation",
        f"the listed generators generate {ring} in every degree",
        note=note,
    )


def theorem_generator_audit(
    t: StructureTable,
    fam: InvariantFamily,
    char: int,
    max_degree: Optional[int] = None,
) -> list[rep.Claim]:
    """Assemble each structural theorem's claimed generator set at this
    characteristic and verify every generator's defining property, plus
    low-degree completeness through the brute-force oracle; the
    generation-in-all-degrees statements are recorded as asserted, never
    silently assumed."""
    t.check_characteristic(char)
    field = field_of_characteristic(char)
    claims: list[rep.Claim] = []
    cap = oracle_degree(t, max_degree)
    gens = invariant_generators(t, fam, field)

    if not t.cartan:
        # Poisson center of the symmetric algebra of the nilradical
        prefix = f"{t.name}.audit.poisson-center.char{char}"
        if char:
            claims.append(
                rep.check(
                    f"{prefix}.gen-count",
                    f"the p-power generator list has {len(t.nilradical)} entries",
                    len(sp_generators(t, char)) == len(t.nilradical),
                )
            )
        _audit_invariant_generators(t, claims, prefix, gens, t.nilradical, "nilradical")
        results = oracle_suite(t, gens, range(1, cap + 1), field)[1]
        _audit_completeness(claims, prefix, results, "degree-{degree} invariants (dim {oracle_dim}) all lie in the generated span")
        claims.append(
            _asserted_generation(
                prefix,
                "the Poisson center",
                f"verified mechanically up to degree {cap}; higher degrees rest on the source's normality argument",
            )
        )

        # center of the enveloping algebra
        prefix = f"{t.name}.audit.u-center.char{char}"
        z_elements = p_center_elements(t, field, exempt=c1_label(t)) if char else []
        for name in fam.central:
            lift, how = central_lift(t, fam, name, field)
            zname = "z" + name[1:]
            if lift is None:
                claims.append(
                    rep.asserted(
                        f"{prefix}.gen.{zname}.central",
                        f"a central lift {zname} of {name} exists",
                        note=how,
                    )
                )
                continue
            z_elements.append((zname, lift))
            claims.append(
                rep.check(
                    f"{prefix}.gen.{zname}.gr",
                    f"gr({zname}) = {name} ({how})",
                    gr_leading(lift) == fam.element(name, field),
                )
            )
        _audit_central_generators(t, claims, prefix, z_elements, t.nilradical)
        claims.append(
            _asserted_generation(
                prefix,
                "the center of the enveloping algebra",
                "follows from the graded comparison with the symmetric-algebra side",
            )
        )
        return claims

    # Borel level -------------------------------------------------------------
    all_idx = list(range(t.dim))
    nil_idx = list(t.nilradical)

    # split equations and derived-subalgebra witnesses behind the
    # semicenter = nilradical-invariants identity
    prefix = f"{t.name}.audit.split.char{char}"
    if char:
        claims.append(
            rep.check(
                f"{prefix}.ad-power",
                f"every ad-operator satisfies X^{char} = X or X^{char} = 0 over GF({char})",
                all(ad_power_identity(t, i, char).ok for i in range(t.dim)),
            )
        )
    derived_rank = rank((dict(entry) for entry in t.brackets.values()), QQ)
    claims.append(
        rep.check(
            f"{prefix}.derived-subalgebra",
            "the brackets span exactly the nilradical",
            derived_rank == len(nil_idx),
            residual=f"rank {derived_rank} != {len(nil_idx)}" if derived_rank != len(nil_idx) else None,
        )
    )

    # completeness over the Borel registry is checked to lower degree than at
    # the nilradical level: the Cartan variables are grade-zero in every
    # bracket-compatible grading, so the solver blocks grow quickly
    bcap = min(cap, 3)

    # Poisson center of S(B)
    prefix = f"{t.name}.audit.poisson-center.char{char}"
    if char:
        power_gens = [
            (f"{t.label(i)}^{char}", Polynomial.variable(t.registry, field, i) ** char)
            for i in all_idx
        ]
        claims.append(
            rep.check(
                f"{prefix}.gen-count",
                f"the claimed generator list has {t.dim} entries",
                len(power_gens) == t.dim,
            )
        )
        _audit_invariant_generators(t, claims, prefix, power_gens, all_idx, "Borel")
        results = oracle_suite(t, power_gens, range(1, min(bcap, char + 1) + 1), field, gens=all_idx)[1]
        _audit_completeness(claims, prefix, results, "degree-{degree} Borel invariants (dim {oracle_dim}) equal the p-power span")
        claims.append(
            _asserted_generation(prefix, "the Poisson center of the Borel", f"verified mechanically up to degree {min(bcap, char + 1)}")
        )
    else:
        for d in range(1, bcap + 1):
            dim = brute_force_invariant_space(t, d, all_idx, field)
            claims.append(
                rep.check(
                    f"{prefix}.trivial.deg{d}",
                    f"no nonconstant Borel-invariant polynomial exists in degree {d}",
                    not dim,
                    residual=f"dimension {dim}" if dim else None,
                )
            )
        claims.append(
            _asserted_generation(prefix, "the (trivial) Poisson center of the Borel", f"verified mechanically up to degree {bcap}")
        )

    # semicenter of S(B): nilradical invariants with Cartan weights
    prefix = f"{t.name}.audit.semicenter.char{char}"
    if char:
        expected_count = len(nil_idx) + len(t.cartan)
        claims.append(
            rep.check(
                f"{prefix}.gen-count",
                f"the Borel-level p-power list has {expected_count} entries",
                len(sp_generators(t, char)) == expected_count,
            )
        )
    _audit_invariant_generators(t, claims, prefix, gens, nil_idx, "nilradical")
    for name, poly in gens:
        weights, bad = weight_of(t, poly)
        claims.append(
            rep.check(
                f"{prefix}.gen.{name}.weight-vector",
                f"generator {name} is a simultaneous Cartan eigenvector",
                weights is not None,
                witness=None if weights is not None else t.label(bad),
            )
        )
    for name, h_label in fam.nonzero_pairings:
        lam = cartan_eigenvalue(t, h_label, fam.element(name, field))
        claims.append(
            rep.check(
                f"{prefix}.pairing.{name}.{h_label}",
                f"{{{h_label}, {name}}} is a nonzero multiple of {name}",
                lam is not None and lam != field.zero,
                residual=f"eigenvalue {lam}",
            )
        )
    results = oracle_suite(t, gens, range(1, bcap + 1), field)[1]
    _audit_completeness(claims, prefix, results, "degree-{degree} nilradical invariants of the Borel (dim {oracle_dim}) equal the generated span")
    claims.append(
        _asserted_generation(prefix, "the Poisson semicenter of the Borel", f"verified mechanically up to degree {bcap}")
    )

    # center and semicenter of U(B)
    prefix = f"{t.name}.audit.u-center.char{char}"
    if char:
        central_elements = p_center_elements(t, field)
        claims.append(
            rep.check(
                f"{prefix}.gen-count",
                f"the extended p-center generator list has {t.dim} entries",
                len(central_elements) == t.dim,
            )
        )
        _audit_central_generators(t, claims, prefix, central_elements, all_idx)
        claims.append(
            _asserted_generation(prefix, "the center of the enveloping algebra of the Borel", "follows from the graded comparison")
        )
    else:
        claims.append(
            rep.check(
                f"{prefix}.trivial.deg1",
                "no degree-one element of the enveloping algebra is central",
                not [
                    i
                    for i in all_idx
                    if is_central_u(
                        t, PBWElement.variable(t.registry, field, i), all_idx
                    )[0]
                ],
            )
        )
        claims.append(
            _asserted_generation(prefix, "the (trivial) center of the enveloping algebra of the Borel", "verified mechanically in filtration degree 1")
        )

    prefix = f"{t.name}.audit.u-semicenter.char{char}"
    for name in fam.central:
        lift, how = central_lift(t, fam, name, field)
        zname = "z" + name[1:]
        if lift is None:
            claims.append(
                rep.asserted(
                    f"{prefix}.gen.{zname}.semi-central",
                    f"a semi-central lift {zname} of {name} exists",
                    note=how,
                )
            )
            continue
        ok, bad = is_central_u(t, lift, nil_idx)
        lams = [eigenvalue(lift, commutator_with_basis(t, k, lift)) for k in t.cartan]
        claims.append(
            rep.check(
                f"{prefix}.gen.{zname}.semi-central",
                f"{zname} commutes with the nilradical and is a Cartan eigenvector "
                f"with nonzero weight ({how})",
                ok and None not in lams and any(lam != field.zero for lam in lams),
                witness=None if ok else t.label(bad),
            )
        )
        claims.append(
            rep.check(
                f"{prefix}.gen.{zname}.gr",
                f"gr({zname}) = {name}",
                gr_leading(lift) == fam.element(name, field),
            )
        )
    claims.append(
        _asserted_generation(prefix, "the semicenter of the enveloping algebra of the Borel", "follows from the graded comparison")
    )
    return claims
