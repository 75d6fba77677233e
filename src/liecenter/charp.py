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

from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
from .poisson import is_invariant, nonzero_pairings, weight_of


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
        # verified with its witness: report.check would drop it from pinned bytes
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
        claims.append(
            rep.identity(
                f"{prefix}.{name}p-layered",
                statement.format(p=p, p2=2 * p),
                F(name) - compose(terms, F),
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
        # verified with a note: report.check would re-pin it as derived-with-note
        return rep.Claim(claim_id, statement, rep.VERIFIED, note="sign +1")
    if got == -stated:
        return rep.check(claim_id, statement, True, note=f"sign -1 relative to the stated {word}")
    return rep.identity(claim_id, statement, got - stated)


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
            rep.identity(
                f"{claim_id}.f{p}",
                jac.literal.format(vars=",".join(vars_), p=p),
                lit - expected,
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


class _Generator(NamedTuple):
    """A claimed generator; a lift also names what it lifts and how it was
    built, and has no element when no construction applies."""

    name: str
    element: Union[Polynomial, PBWElement, None]
    source: Optional[str] = None
    how: Optional[str] = None


def _p_powers(t: StructureTable, fam: InvariantFamily, field: Field) -> list[tuple]:
    p = field.characteristic
    return [(f"{t.label(i)}^{p}", Polynomial.variable(t.registry, field, i) ** p) for i in range(t.dim)]


def _lifts(t: StructureTable, fam: InvariantFamily, field: Field) -> list[tuple]:
    out = []
    for name in fam.central:
        lift, how = central_lift(t, fam, name, field)
        out.append(("z" + name[1:], lift, name, how))
    return out


def _p_center_and_lifts(t: StructureTable, fam: InvariantFamily, field: Field) -> list[tuple]:
    return p_center_elements(t, field, exempt=c1_label(t)) + _lifts(t, fam, field)


class _Audit(NamedTuple):
    """What the checks of one statement read."""

    t: StructureTable
    fam: InvariantFamily
    field: Field
    prefix: str
    under: list[int]  # the basis indices invariance and centrality are taken under
    statement: "_Statement"


# A check of one generator: (claim-id suffix, statement, verdict, index of a
# failing basis element or None), or None when it does not apply.


def _invariant(a: _Audit, g: _Generator):
    ok, bad = is_invariant(a.t, g.element, a.under)
    return "invariant", f"generator {g.name} is {a.statement.under}-invariant", ok, bad


def _weight_vector(a: _Audit, g: _Generator):
    weights, bad = weight_of(a.t, g.element)
    return "weight-vector", f"generator {g.name} is a simultaneous Cartan eigenvector", weights is not None, bad


def _central(a: _Audit, g: _Generator):
    ok, bad = is_central_u(a.t, g.element, a.under)
    return "central", f"generator {g.name} commutes with every generator of the enveloping algebra", ok, bad


def _semi_central(a: _Audit, g: _Generator):
    ok, bad = is_central_u(a.t, g.element, a.under)
    lams = [eigenvalue(g.element, commutator_with_basis(a.t, k, g.element)) for k in a.t.cartan]
    weighted = None not in lams and any(lam != a.field.zero for lam in lams)
    statement = f"{g.name} commutes with the nilradical and is a Cartan eigenvector with nonzero weight"
    return "semi-central", statement, ok and weighted, bad


def _gr(a: _Audit, g: _Generator):
    if g.source is None:
        return None
    return "gr", f"gr({g.name}) = {g.source}", gr_leading(g.element) == a.fam.element(g.source, a.field), None


def _each(*checks):
    """A step that runs the checks on one generator before the next.  A
    lift's first claim says how the lift was built; a lift that could not be
    built is recorded as asserted instead."""

    def step(a: _Audit, gens: Sequence[_Generator]):
        for g in gens:
            how = g.how
            if g.element is None:
                prop = "semi-central" if a.statement.semi else "central"
                claim_id = f"{a.prefix}.gen.{g.name}.{prop}"
                yield rep.asserted(claim_id, f"a {prop} lift {g.name} of {g.source} exists", note=how)
                continue
            for check in checks:
                result = check(a, g)
                if result is None:
                    continue
                suffix, statement, ok, bad = result
                if how:
                    statement, how = f"{statement} ({how})", None
                witness = None if bad is None else a.t.label(bad)
                yield rep.check(f"{a.prefix}.gen.{g.name}.{suffix}", statement, ok, witness=witness)

    return step


def _pairings(a: _Audit, gens: Sequence[_Generator]):
    return nonzero_pairings(a.t, a.fam, a.field, lambda elem, h: f"{a.prefix}.pairing.{elem}.{h}")


@dataclass(frozen=True)
class _Statement:
    """One structural theorem: the generators it claims for one ring at one
    level, how each generator is checked, how far the oracle checks that they
    generate, and what is asserted beyond that."""

    ring: str  # "S", the symmetric algebra with its Poisson bracket, or "U"
    borel: bool  # the Borel algebra, else its nilradical
    semi: bool  # the semicenter, else the center
    # the generator providers at characteristic 0 and at p; None where the
    # center is trivial, which the oracle then checks degree by degree
    generators: tuple
    checks: tuple = ()  # steps over the generators, in claim order
    under: str = "nilradical"  # or "Borel": what invariance and the oracle are taken under
    degree: Optional[int] = None  # the oracle's top degree, at most the cap; None: the cap
    complete: Optional[str] = None  # a completeness claim, formatted with the oracle's result
    trivial: Optional[str] = None  # a triviality claim, formatted with the degree
    note: str = "follows from the graded comparison"  # on the asserted generation
    trivial_note: Optional[str] = None  # the note where the center is trivial, if another
    # at characteristic p: the statement of the generator-count claim and
    # the list length it compares with the dimension
    count: Optional[tuple[str, Callable]] = None


_STATEMENTS = (
    _Statement(
        "S", borel=False, semi=False,
        generators=(invariant_generators, invariant_generators),
        checks=(_each(_invariant),),
        complete="degree-{degree} invariants (dim {oracle_dim}) all lie in the generated span",
        note="verified mechanically up to degree {degree}; higher degrees rest on the source's normality argument",
        count=("the p-power generator list has {} entries", lambda t, p, gens: len(sp_generators(t, p))),
    ),
    _Statement(
        "U", borel=False, semi=False,
        generators=(_lifts, _p_center_and_lifts),
        checks=(_each(_gr), _each(_central)),
        note="follows from the graded comparison with the symmetric-algebra side",
    ),
    _Statement(
        "S", borel=True, semi=False,
        generators=(None, _p_powers),
        checks=(_each(_invariant),),
        under="Borel",
        degree=3,
        complete="degree-{degree} Borel invariants (dim {oracle_dim}) equal the p-power span",
        trivial="no nonconstant Borel-invariant polynomial exists in degree {degree}",
        note="verified mechanically up to degree {degree}",
        count=("the claimed generator list has {} entries", lambda t, p, gens: len(gens)),
    ),
    _Statement(
        "S", borel=True, semi=True,
        generators=(invariant_generators, invariant_generators),
        checks=(_each(_invariant), _each(_weight_vector), _pairings),
        degree=3,
        complete="degree-{degree} nilradical invariants of the Borel (dim {oracle_dim}) equal the generated span",
        note="verified mechanically up to degree {degree}",
        count=("the Borel-level p-power list has {} entries", lambda t, p, gens: len(sp_generators(t, p))),
    ),
    _Statement(
        "U", borel=True, semi=False,
        generators=(None, lambda t, fam, field: p_center_elements(t, field)),
        checks=(_each(_central),),
        under="Borel",
        degree=1,
        trivial="no degree-one element of the enveloping algebra is central",
        trivial_note="verified mechanically in filtration degree {degree}",
        count=("the extended p-center generator list has {} entries", lambda t, p, gens: len(gens)),
    ),
    _Statement(
        "U", borel=True, semi=True,
        generators=(_lifts, _lifts),
        checks=(_each(_semi_central, _gr),),
    ),
)


def _split_claims(t: StructureTable, char: int) -> list[rep.Claim]:
    """The split equations and derived-subalgebra witness behind the
    semicenter = nilradical-invariants identity."""
    prefix = f"{t.name}.audit.split.char{char}"
    claims = []
    if char:
        claims.append(
            rep.check(
                f"{prefix}.ad-power",
                f"every ad-operator satisfies X^{char} = X or X^{char} = 0 over GF({char})",
                all(ad_power_identity(t, i, char).ok for i in range(t.dim)),
            )
        )
    derived_rank = rank((dict(entry) for entry in t.brackets.values()), QQ)
    nil = len(t.nilradical)
    claims.append(
        rep.check(
            f"{prefix}.derived-subalgebra",
            "the brackets span exactly the nilradical",
            derived_rank == nil,
            residual=f"rank {derived_rank} != {nil}",
        )
    )
    return claims


def theorem_generator_audit(
    t: StructureTable,
    fam: InvariantFamily,
    char: int,
    max_degree: Optional[int] = None,
) -> list[rep.Claim]:
    """Check the structural theorems' claimed generators at this
    characteristic: every generator's defining property, completeness in low
    degrees through the brute-force oracle, and generation in all degrees
    recorded as asserted, never silently assumed.

    At the nilradical level: the Poisson center of S(n), generated by the
    family's central elements (at p: the p-th powers, c1 itself, and the
    c_i for i >= 2), complete up to the oracle cap; and the center of U(n),
    generated by the central lifts z_i of the c_i (at p, with the x^p).
    At the Borel level, after the split equations: the Poisson center of
    S(b), trivial at characteristic 0 and generated by the p-th powers at p;
    the Poisson semicenter, generated by the nilradical invariants, each a
    Cartan weight vector with its recorded nonzero pairings; the center of
    U(b), trivial at characteristic 0 (no central element of b, decided on
    the span) and the p-center at p; and the semicenter of U(b), generated
    by semi-central lifts.  The Borel-level oracle stops at degree 3, or the
    cap if lower: the grade-zero Cartan variables grow its blocks quickly.
    """
    t.check_characteristic(char)
    field = field_of_characteristic(char)
    cap = oracle_degree(t, max_degree)
    claims = _split_claims(t, char) if t.cartan else []
    for st in _STATEMENTS:
        if st.borel != bool(t.cartan):
            continue
        kind = "semicenter" if st.semi else "center"
        section = ("u-" if st.ring == "U" else "" if st.semi else "poisson-") + kind
        prefix = f"{t.name}.audit.{section}.char{char}"
        provider = st.generators[bool(char)]
        gens = [_Generator(*g) for g in provider(t, fam, field)] if provider else []
        under = list(range(t.dim)) if st.under == "Borel" else list(t.nilradical)
        if char and st.count:
            text, size = st.count
            claims.append(rep.check(f"{prefix}.gen-count", text.format(t.dim), size(t, char, gens) == t.dim))
        audit = _Audit(t, fam, field, prefix, under, st)
        for step in st.checks:
            claims.extend(step(audit, gens))
            # a lift's construction, or its absence, is reported once
            gens = [g._replace(how=None) for g in gens if g.element is not None]
        degree = cap if st.degree is None else min(cap, st.degree)
        if provider is None:
            for d in range(1, degree + 1):
                dim = brute_force_invariant_space(t, d, under, field)
                claims.append(
                    rep.check(
                        f"{prefix}.trivial.deg{d}",
                        st.trivial.format(degree=d),
                        not dim,
                        residual=f"dimension {dim}",
                    )
                )
        elif st.complete:
            polys = [(g.name, g.element) for g in gens]
            for res in oracle_suite(t, polys, range(1, degree + 1), field, gens=under)[1]:
                claims.append(
                    rep.check(
                        f"{prefix}.complete.deg{res['degree']}",
                        st.complete.format(**res),
                        res["equal"],
                        residual=str(res),
                    )
                )
        ring = f"Poisson {kind}" if st.ring == "S" else f"{kind} of the enveloping algebra"
        ring = ("the (trivial) " if provider is None else "the ") + ring + (" of the Borel" if st.borel else "")
        note = (provider is None and st.trivial_note) or st.note
        claims.append(
            rep.asserted(
                f"{prefix}.generation",
                f"the listed generators generate {ring} in every degree",
                note=note.format(degree=degree),
            )
        )
    return claims
