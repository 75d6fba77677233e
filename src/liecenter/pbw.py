"""The universal enveloping algebra in normal (ordered-word) form.

Elements are supported on ordered words in the basis, written as exponent
monomials exactly like commutative polynomials; multiplication straightens
out-of-order products with the rewriting rule x_u x_v = x_v x_u + [x_u, x_v]
until every word is non-decreasing.  The rewriting terminates because each
correction term has strictly smaller filtration degree; single-letter
multiplications and symmetrized lifts are memoized on the table.

Symmetrization averages a monomial over its letter orderings by a recursion
over sub-multisets, each step one memoized letter product, instead of
straightening every ordering.

A reference rewriting engine with an injectable (randomizable) choice of
redex backs the confluence and symmetrization tests; the fast paths must
agree with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from . import report as rep
from .exactalg import (
    Field,
    GF,
    MONO_ONE,
    Monomial,
    Polynomial,
    QQ,
    TermDict,
    add_into,
    mono_degree,
    mono_div_var,
    mono_mul_var,
)
from .liealg import StructureTable, ad_power_identity, lie_generators


class CharacteristicObstruction(ValueError):
    """Symmetrization needs to divide by k! but the characteristic is <= k."""


class PBWElement(TermDict):
    """An element of the enveloping algebra in normal form: each monomial
    stands for its non-decreasing word in the basis."""

    __slots__ = ()

    @classmethod
    def monomial(cls, registry, field: Field, mono: Monomial, coeff=None) -> "PBWElement":
        c = field.one if coeff is None else field.coerce(coeff)
        return cls(registry, field, {mono: c} if c != field.zero else {})

    filtration_degree = TermDict.total_degree

    def __str__(self):
        return str(Polynomial(self.registry, self.field, self.terms))


def word_of(mono: Monomial) -> tuple[int, ...]:
    """Expand an exponent monomial into its non-decreasing letter sequence."""
    out = []
    for i, e in mono:
        out.extend([i] * e)
    return tuple(out)


def mono_of_word(word: Sequence[int]) -> Monomial:
    """Exponent monomial of a sorted word."""
    out = []
    for letter in word:
        if out and out[-1][0] == letter:
            out[-1] = (letter, out[-1][1] + 1)
        else:
            out.append((letter, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# Straightening
# ---------------------------------------------------------------------------


def _mul_mono_letter(t: StructureTable, field: Field, mono: Monomial, v: int):
    """Normal form of (normal monomial) * x_v as ((monomial, coeff), ...).

    Recursion: with u the greatest letter of the word and m' the word minus
    one u, if u <= v the letter appends; otherwise
    m' x_u x_v = (m' x_v) x_u + m' [x_u, x_v], and both pieces recurse at
    strictly smaller degree except the top layer of m' x_v, whose greatest
    letter is at most u, so multiplying it by u is a plain append.
    """
    char = field.characteristic
    cache = t.memo.setdefault(("pbw", char), {})
    key = (mono, v)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not mono or mono[-1][0] <= v:
        result = ((mono_mul_var(mono, v), field.one),)
        cache[key] = result
        return result
    u = mono[-1][0]
    if mono[-1][1] > 1:
        mprime = mono[:-1] + ((u, mono[-1][1] - 1),)
    else:
        mprime = mono[:-1]
    # accumulated inline, not through add_into: every memo miss runs this loop
    acc: dict = {}
    zero = field.zero
    for m1, c1 in _mul_mono_letter(t, field, mprime, v):
        for m2, c2 in _mul_mono_letter(t, field, m1, u):
            c = field.mul(c1, c2)
            prev = acc.get(m2)
            c = c if prev is None else field.add(prev, c)
            if c == zero:
                acc.pop(m2, None)
            else:
                acc[m2] = c
    for k, ck in t.bracket_row(u, char).get(v, ()):
        for m2, c2 in _mul_mono_letter(t, field, mprime, k):
            c = field.mul(ck, c2)
            prev = acc.get(m2)
            c = c if prev is None else field.add(prev, c)
            if c == zero:
                acc.pop(m2, None)
            else:
                acc[m2] = c
    result = tuple(acc.items())
    cache[key] = result
    return result


def _mul_word(t: StructureTable, field: Field, current: dict, letters: Iterable[int]) -> dict:
    """Normal form of ``current`` * x_l1 * ... * x_lk, one letter at a time;
    ``current`` maps normal monomials to coefficients and is not modified."""
    zero = field.zero
    mul = field.mul
    add = field.add
    for letter in letters:
        # accumulated inline, not through add_into: the hottest loop of
        # symmetrize and commutator_with_basis
        nxt: dict = {}
        for m, c in current.items():
            for m2, c2 in _mul_mono_letter(t, field, m, letter):
                cc = mul(c, c2)
                prev = nxt.get(m2)
                cc = cc if prev is None else add(prev, cc)
                if cc == zero:
                    nxt.pop(m2, None)
                else:
                    nxt[m2] = cc
        current = nxt
    return current


def pbw_mul(t: StructureTable, a: PBWElement, b: PBWElement) -> PBWElement:
    """Associative product in the enveloping algebra, straightened."""
    a._check(b)
    field = a.field
    t.check_characteristic(field.characteristic)
    terms: dict = {}
    for mb, cb in b.terms.items():
        add_into(terms, _mul_word(t, field, a.terms, word_of(mb)).items(), field, cb)
    return PBWElement(a.registry, field, terms)


def straighten_word(
    t: StructureTable, field: Field, word: Sequence[int], rng=None
) -> dict:
    """Reference straightening by explicit rewriting of adjacent inversions.

    ``rng`` (a ``random.Random``) picks which inversion to rewrite next; the
    default takes the first.  Confluence of the result against the memoized
    fast path is property-tested.
    """
    zero = field.zero
    result: dict = {}
    stack = [(field.one, tuple(word))]
    while stack:
        coeff, w = stack.pop()
        inversions = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not inversions:
            add_into(result, ((mono_of_word(w), coeff),), field)
            continue
        i = inversions[0] if rng is None else rng.choice(inversions)
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
        stack.append((coeff, swapped))
        for k, ck in t.bracket_coords(w[i], w[i + 1]).items():
            ckf = field.coerce(ck)
            if ckf != zero:
                stack.append((field.mul(coeff, ckf), w[:i] + (k,) + w[i + 2 :]))
    return result


# ---------------------------------------------------------------------------
# Commutators
# ---------------------------------------------------------------------------


def commutator_u(t: StructureTable, a: PBWElement, b: PBWElement) -> PBWElement:
    """ab - ba in normal form."""
    return pbw_mul(t, a, b) - pbw_mul(t, b, a)


def commutator_with_basis(t: StructureTable, g: Union[int, str], e: PBWElement) -> PBWElement:
    """[x_g, e] computed position-by-position: commuting a generator across
    a word inserts one bracket per letter, so no full product expansion is
    needed.  Agrees with :func:`commutator_u` (property-tested)."""
    gi = t.registry.resolve(g)
    field = e.field
    t.check_characteristic(field.characteristic)
    row = t.bracket_row(gi, field.characteristic)
    total: dict = {}
    for mono, coeff in e.terms.items():
        word = word_of(mono)
        for pos in range(len(word)):
            targets = row.get(word[pos])
            if not targets:
                continue
            prefix = mono_of_word(word[:pos])
            # prefix * [x_g, x_letter], then the rest of the word
            current: dict = {}
            for k, ck in targets:
                scale = field.mul(coeff, ck)
                add_into(current, _mul_mono_letter(t, field, prefix, k), field, scale)
            add_into(total, _mul_word(t, field, current, word[pos + 1 :]).items(), field)
    return PBWElement(e.registry, field, total)


def is_central_u(
    t: StructureTable, e: PBWElement, gens: Iterable[int]
) -> tuple[bool, Optional[int]]:
    """True iff [x_i, e] = 0 for every generator index; otherwise the first
    failing generator is returned.  Decided over a Lie generating subset of
    ``gens``, which commutes with e exactly when all of ``gens`` does."""
    gens = tuple(gens)
    subset = lie_generators(t, gens, e.field.characteristic)
    if all(commutator_with_basis(t, i, e).is_zero for i in subset):
        return True, None
    # the subset lies in gens, so some generator fails
    return False, next(i for i in gens if not commutator_with_basis(t, i, e).is_zero)


# ---------------------------------------------------------------------------
# Symmetrization, lifts and the associated graded map
# ---------------------------------------------------------------------------


def naive_lift(f: Polynomial) -> PBWElement:
    """Interpret each commutative monomial as its ordered word, unchanged."""
    return PBWElement(f.registry, f.field, dict(f.terms))


def symmetrize(t: StructureTable, f: Polynomial) -> PBWElement:
    """The canonical lift: each degree-k monomial becomes the average of its
    k! letter orderings, straightened to normal form.

    Grouping the orderings of a multiset M of degree k by their last letter
    gives sym(M) = sum_a (mult_a(M)/k) sym(M - a) x_a with sym(empty) = 1,
    one memoized letter product per term.  The averages are built level by
    level over the sub-multisets of f's monomials, keeping only the previous
    level.  Dividing by k <= deg f requires characteristic 0 or p > deg f.
    Each lift is computed once per table.
    """
    field = f.field
    char = field.characteristic
    if char and f.total_degree() >= char:
        raise CharacteristicObstruction(
            f"symmetrizing degree {f.total_degree()} needs p > degree, have p={char}"
        )
    key = ("symmetrize", f)
    if key in t.memo:
        return t.memo[key]
    top = max(f.total_degree(), 0)
    levels: list = [set() for _ in range(top + 1)]
    for mono in f.terms:
        levels[mono_degree(mono)].add(mono)
    for k in range(top, 0, -1):
        for mono in levels[k]:
            levels[k - 1].update(mono_div_var(mono, a) for a, _ in mono)
    total: dict = {}
    averages = {MONO_ONE: {MONO_ONE: field.one}}
    for k in range(top + 1):
        if k:
            prev, averages = averages, {}
            for mono in levels[k]:
                acc = averages[mono] = {}
                for a, e in mono:
                    step = _mul_word(t, field, prev[mono_div_var(mono, a)], (a,))
                    add_into(acc, step.items(), field, field.coerce(Fraction(e, k)))
        for mono, coeff in f.terms.items():
            if mono_degree(mono) == k:
                add_into(total, averages[mono].items(), field, coeff)
    t.memo[key] = PBWElement(f.registry, field, total)
    return t.memo[key]


def gr_leading(e: PBWElement) -> Polynomial:
    """Image of the top filtration layer under the monomial identification."""
    if e.is_zero:
        raise ValueError("the zero element has no leading symbol")
    top = e.filtration_degree()
    return Polynomial(
        e.registry,
        e.field,
        {m: c for m, c in e.terms.items() if mono_degree(m) == top},
    )


def reduce_u(e: PBWElement, field: Field) -> Optional[PBWElement]:
    """Reduce a rational element into a prime field by the field's ``coerce``,
    or None when some coefficient denominator is divisible by the prime."""
    try:
        return PBWElement.from_terms(e.registry, field, e.terms.items())
    except ZeroDivisionError:
        return None


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def p_center_elements(
    t: StructureTable, field: Field, exempt: Optional[str] = None
) -> list[tuple[str, PBWElement]]:
    """The p-center generators over GF(p): x^p for each nilradical generator
    other than ``exempt``, then h^p - h for each Cartan generator."""
    p = field.characteristic
    elements = [
        (f"{t.label(i)}^{p}", PBWElement.monomial(t.registry, field, ((i, p),)))
        for i in t.nilradical
        if t.label(i) != exempt
    ]
    for j in t.cartan:
        h = PBWElement.variable(t.registry, field, j)
        hp = PBWElement.monomial(t.registry, field, ((j, p),))
        elements.append((f"{t.label(j)}^{p}-{t.label(j)}", hp - h))
    return elements


def p_center_suite(t: StructureTable, p: int) -> list[rep.Claim]:
    """Verify that p-th powers of nilradical generators and h^p - h for
    Cartan generators are central in the enveloping algebra over F_p, and
    cross-check the matrix identities (ad x)^p = 0, (ad h)^p = ad h."""
    t.check_characteristic(p)
    claims = []
    for name, elt in p_center_elements(t, GF(p)):
        for g in range(t.dim):
            com = commutator_with_basis(t, g, elt)
            claims.append(
                rep.check(
                    f"{t.name}.pcenter.p{p}.{name}.{t.label(g)}",
                    f"[{t.label(g)}, {name}] = 0 in the enveloping algebra over GF({p})",
                    com.is_zero,
                    residual=None if com.is_zero else str(com),
                )
            )
    for i in range(t.dim):
        res = ad_power_identity(t, i, p)
        statement = (
            f"(ad {res.label})^{p} = ad {res.label} over GF({p})"
            if res.kind == "cartan"
            else f"(ad {res.label})^{p} = 0 over GF({p})"
        )
        claims.append(
            rep.check(f"{t.name}.pcenter.p{p}.adpower.{res.label}", statement, res.ok)
        )
    return claims


def z_lift_audit(t: StructureTable, fam, field: Field = QQ) -> list[rep.Claim]:
    """For each central family element c: symmetrize it, test centrality over
    the nilradical, check gr(z) = c, and record how the naive ordered lift
    behaves (its centrality verdict and that it differs from the symmetrized
    lift only in lower filtration)."""
    claims = []
    char = field.characteristic
    for name in fam.central:
        c = fam.element(name, field)
        cid = f"{t.name}.zlift.{name}.char{char}"
        try:
            z = symmetrize(t, c)
        except CharacteristicObstruction as exc:
            claims.append(
                rep.asserted(
                    f"{cid}.central",
                    f"a central lift of {name} exists over characteristic {char}",
                    note=f"symmetrization obstructed: {exc}",
                )
            )
            continue
        ok, witness = is_central_u(t, z, t.nilradical)
        claims.append(
            rep.check(
                f"{cid}.central",
                f"symmetrize({name}) is central in the enveloping algebra",
                ok,
                witness=None if ok else t.label(witness),
            )
        )
        claims.append(
            rep.check(
                f"{cid}.gr",
                f"gr(symmetrize({name})) = {name}",
                gr_leading(z) == c,
            )
        )
        naive = naive_lift(c)
        nok, nwit = is_central_u(t, naive, t.nilradical)
        diff = z - naive
        low = diff.is_zero or diff.filtration_degree() < c.total_degree()
        claims.append(
            rep.verified(
                f"{cid}.naive",
                f"naive ordered lift of {name}: centrality verdict recorded",
                note=(
                    ("central" if nok else f"not central, witness {t.label(nwit)}")
                    + (
                        "; coincides with the symmetrized lift"
                        if diff.is_zero
                        else "; differs from the symmetrized lift in lower filtration only"
                        if low
                        else "; differs from the symmetrized lift at top degree"
                    )
                ),
            )
        )
        claims.append(
            rep.check(
                f"{cid}.naive-low",
                f"symmetrize({name}) - naive_lift({name}) has filtration degree < {c.total_degree()}",
                low,
            )
        )
    return claims
