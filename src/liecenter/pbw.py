"""The universal enveloping algebra in normal (ordered-word) form.

Elements are supported on ordered words in the basis, written as exponent
monomials exactly like commutative polynomials; multiplication straightens
out-of-order products with the rewriting rule x_u x_v = x_v x_u + [x_u, x_v]
until every word is non-decreasing.  The rewriting terminates because each
correction term has strictly smaller filtration degree; the single-letter
products that straighten and the symmetrized lifts are memoized on the table.

The kernels key their terms by the sorted letter words themselves, (0, 0, 2)
for x0^2 x2, so a product that needs no straightening is a tuple append.
Elements are converted to words on the way in and back to exponent
monomials on the way out, in one place each.

Symmetrization averages a monomial over its letter orderings by a recursion
over sub-multisets, each step one memoized letter product, instead of
straightening every ordering.

The kernels run on plain ints in the scaled basis y_i = D*x_i at every
characteristic, where D (``StructureTable.scale``) is the lcm
of the bracket-constant denominators: [y_i, y_j] = sum_k D*c_ijk y_k has
integer constants, so the ordered y-words span a Z-form of the enveloping
algebra (PBW holds over Z for this free Z-module) and every straightened
product of y-words is integral.  The ``("pbw",)`` memo holds those integer
products once per table, for every characteristic.  Reduction mod p is a
ring map that sends ordered words to ordered words, and p does not divide
D (a prime dividing D raises ``ZeroDivisionError``), so the result over
GF(p) is the reduction of the integer one.  Each public function converts
an element once on the way in, sum c_N x^N -> L * sum c_N D^-|N| y^N with
L clearing every denominator (a residue of GF(p) read as an integer), and
each output term once on the way out through the field's ``coerce``, so it
returns exactly the element of the x-basis computation over its field.

A reference rewriting engine with an injectable (randomizable) choice of
redex backs the confluence and symmetrization tests; the fast paths must
agree with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Optional, Sequence, Union

from . import report as rep
from .exactalg import (
    Field,
    GF,
    Monomial,
    Polynomial,
    QQ,
    TermDict,
    ZZ,
    add_into,
    mono_degree,
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


def _into_kernel(t: StructureTable, e: TermDict) -> tuple[dict, int]:
    """(terms, L): the integers a_N = L*c_N*D^-|N| with L*e = sum a_N y^N,
    keyed by sorted letter words, L clearing every denominator.  A residue
    of GF(p) is read as an integer with denominator 1."""
    # the y basis needs 1/D in the field: p | D raises ZeroDivisionError
    t.inverse_scale(e.field)
    scale = t.scale
    words = {word_of(m): c for m, c in e.terms.items()}
    dens = {w: c.denominator * scale ** len(w) for w, c in words.items()}
    common = lcm(1, *dens.values())
    return {w: c.numerator * (common // dens[w]) for w, c in words.items()}, common


def _out_of_kernel(t: StructureTable, field, terms: dict, den: int = 1, shift: int = 0) -> dict:
    """The monomial terms over ``field`` of sum b_K y^K / (den * D^shift),
    given the kernel's word-keyed integers b_K: each becomes
    b_K*D^|K| / (den*D^shift) through ``field.coerce``, and the terms that
    vanish in the field are dropped (at characteristic p an integer result
    may hold nonzero multiples of p)."""
    scale = t.scale
    den *= scale**shift
    out = {}
    for w, b in terms.items():
        c = field.coerce(Fraction(b * scale ** len(w), den))
        if c:
            out[mono_of_word(w)] = c
    return out


def _mul_mono_letter(t: StructureTable, word: tuple, v: int):
    """Normal form of (sorted letter word) * y_v as ((word, coeff), ...) on
    integers in the basis y = D*x.

    Recursion: with u the last (greatest) letter of the word and m' the word
    without it, if u <= v the letter appends; otherwise
    m' y_u y_v = (m' y_v) y_u + m' [y_u, y_v], and both pieces recurse at
    strictly smaller degree except the top layer of m' y_v, whose greatest
    letter is at most u, so multiplying it by u is a plain append.  Only the
    products that straighten are memoized.
    """
    if not word or word[-1] <= v:
        return ((word + (v,), 1),)
    cache = t.memo.setdefault(("pbw",), {})
    key = (word, v)
    hit = cache.get(key)
    if hit is not None:
        return hit
    u = word[-1]
    mprime = word[:-1]
    # accumulated inline, not through add_into: every memo miss runs this loop
    acc: dict = {}
    for m1, c1 in _mul_mono_letter(t, mprime, v):
        for m2, c2 in _mul_mono_letter(t, m1, u):
            c = acc.get(m2, 0) + c1 * c2
            if c:
                acc[m2] = c
            else:
                acc.pop(m2, None)
    for k, ck in t.rows[u].get(v, ()):
        for m2, c2 in _mul_mono_letter(t, mprime, k):
            c = acc.get(m2, 0) + ck * c2
            if c:
                acc[m2] = c
            else:
                acc.pop(m2, None)
    result = tuple(acc.items())
    cache[key] = result
    return result


def _mul_word(t: StructureTable, current: dict, letters: Iterable[int]) -> dict:
    """Normal form of ``current`` * y_l1 * ... * y_lk on integers, one letter
    at a time; ``current`` maps sorted letter words to coefficients and is
    not modified."""
    for letter in letters:
        # accumulated inline, not through add_into: the hottest loop of
        # symmetrize and commutator_with_basis
        nxt: dict = {}
        for w, c in current.items():
            for w2, c2 in _mul_mono_letter(t, w, letter):
                cc = nxt.get(w2, 0) + c * c2
                if cc:
                    nxt[w2] = cc
                else:
                    nxt.pop(w2, None)
        current = nxt
    return current


def pbw_mul(t: StructureTable, a: PBWElement, b: PBWElement) -> PBWElement:
    """Associative product in the enveloping algebra, straightened: L_a*a
    times L_b*b in the basis y = D*x is straightened on ints and each term
    b_K y^K is mapped back once, to b_K*D^|K|/(L_a*L_b)."""
    a._check(b)
    field = a.field
    t.check_characteristic(field.characteristic)
    left, la = _into_kernel(t, a)
    right, lb = _into_kernel(t, b)
    terms: dict = {}
    for wb, cb in right.items():
        add_into(terms, _mul_word(t, left, wb).items(), ZZ, cb)
    return PBWElement(a.registry, field, _out_of_kernel(t, field, terms, la * lb))


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
    needed.  Agrees with :func:`commutator_u` (property-tested).

    The kernel computes [y_g, L*e] in the basis y = D*x, and x_g = y_g/D
    divides each term by one more D."""
    gi = t.registry.resolve(g)
    field = e.field
    t.check_characteristic(field.characteristic)
    terms, scale = _into_kernel(t, e)
    row = t.rows[gi]
    total: dict = {}
    for word, coeff in terms.items():
        for pos, letter in enumerate(word):
            targets = row.get(letter)
            if not targets:
                continue
            prefix = word[:pos]
            # prefix * [y_g, y_letter], then the rest of the word
            current: dict = {}
            for k, ck in targets:
                add_into(current, _mul_mono_letter(t, prefix, k), ZZ, coeff * ck)
            add_into(total, _mul_word(t, current, word[pos + 1 :]).items(), ZZ)
    return PBWElement(e.registry, field, _out_of_kernel(t, field, total, scale, shift=1))


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
    gives the orderings' sum S(M) = k! sym(M) = sum_a mult_a(M) S(M - a) x_a
    with S(empty) = 1, one memoized letter product and one integer
    multiplicity per term.  The sums are built level by level over the
    sub-multisets of f's monomials, keeping only the previous level, on ints
    in the basis y = D*x: f's degree-k part c_M x^M enters as
    a_M = L*c_M*D^-k, and a term b_N y^N of its S(M) leaves as
    c_M*b_N*D^(|N|-k)/k!, each output term divided once per degree.
    Dividing by k! <= (deg f)! requires characteristic 0 or p > deg f.  Each
    lift is computed once per table.
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
    coeffs, common = _into_kernel(t, f)
    top = max(f.total_degree(), 0)
    levels: list = [set() for _ in range(top + 1)]
    for word in coeffs:
        levels[len(word)].add(word)
    for k in range(top, 0, -1):
        for word in levels[k]:
            levels[k - 1].update(word[:i] + word[i + 1 :] for i in range(k))
    total: dict = {}
    sums = {(): {(): 1}}
    for k in range(top + 1):
        if k:
            prev, sums = sums, {}
            for word in levels[k]:
                acc = sums[word] = {}
                # each distinct letter a once, at its last place i, with
                # multiplicity i + 1 - (its first place)
                for i, a in enumerate(word):
                    if i + 1 == k or word[i + 1] != a:
                        step = _mul_word(t, prev[word[:i] + word[i + 1 :]], (a,))
                        add_into(acc, step.items(), ZZ, i + 1 - word.index(a))
        part: dict = {}
        for word, a in coeffs.items():
            if len(word) == k:
                add_into(part, sums[word].items(), ZZ, a)
        add_into(total, _out_of_kernel(t, field, part, common * factorial(k)).items(), field)
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
