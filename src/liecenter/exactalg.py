"""Exact coefficient fields and sparse multivariate polynomial arithmetic.

Coefficients are either arbitrary-precision rationals (``fractions.Fraction``,
always reduced with positive denominator) or residues of an odd prime field
(plain ints in ``[0, p)``).  Polynomials are sparse dictionaries mapping
monomials to nonzero coefficients, so equality of canonical forms is plain
data equality and every identity check in this package is an exact
zero-comparison.  No floating point is used anywhere.

A monomial is a tuple of ``(variable_index, exponent)`` pairs, sorted by
index, with no zero exponents stored.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction, str]


class CharacteristicMismatch(ValueError):
    """Arithmetic attempted between coefficients of different fields."""


class RegistryMismatch(ValueError):
    """Arithmetic attempted between polynomials over different registries."""


# As Miller-Rabin bases, the primes up to 41 decide primality exactly below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test for n < ``MR_BOUND`` (about 3.3e24) by
    deterministic Miller-Rabin; ValueError at or above the bound."""
    if n >= MR_BOUND:
        raise ValueError(f"primality is decided only below {MR_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rationals; coefficients are ``Fraction`` values."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value: Scalar) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return a / b

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p for an odd prime p; coefficients are ints in [0, p)."""

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, value: Scalar) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator {value.denominator} is divisible by {self.p}"
                )
            return value.numerator * pow(den, -1, self.p) % self.p
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return a * pow(b, -1, self.p) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    field = _GF_CACHE.get(p)
    if field is None:
        field = _GF_CACHE[p] = PrimeField(p)
    return field


Field = Union[RationalField, PrimeField]


def field_of_characteristic(char: int) -> Field:
    return QQ if char == 0 else GF(char)


# ---------------------------------------------------------------------------
# Variable registries
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class VarRegistry:
    """An ordered, immutable list of variable names.

    The position of a name fixes the monomial order, the serialization order
    and (for enveloping-algebra work) the normal-ordering of basis elements.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def name(self, i: int) -> str:
        return self.names[i]

    def resolve(self, var: Union[int, str]) -> int:
        """Accept either a variable name or an index; return the index."""
        if isinstance(var, str):
            return self.index(var)
        if not 0 <= var < len(self.names):
            raise IndexError(f"variable index {var} out of range")
        return var

    def __eq__(self, other):
        return isinstance(other, VarRegistry) and other.names == self.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarRegistry({list(self.names)!r})"


# ---------------------------------------------------------------------------
# Monomials: tuples of (index, exponent), index-sorted, exponents > 0
# ---------------------------------------------------------------------------

Monomial = tuple
MONO_ONE: Monomial = ()


def mono_from_pairs(pairs: Iterable[tuple[int, int]]) -> Monomial:
    acc: dict[int, int] = {}
    for i, e in pairs:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted((i, e) for i, e in acc.items() if e != 0))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return mono_from_pairs(list(a) + list(b))


def mono_mul_var(m: Monomial, v: int, e: int = 1) -> Monomial:
    """Multiply a monomial by a single variable power (fast path)."""
    out = []
    placed = False
    for i, ei in m:
        if i == v:
            out.append((i, ei + e))
            placed = True
        elif i > v and not placed:
            out.append((v, e))
            out.append((i, ei))
            placed = True
        else:
            out.append((i, ei))
    if not placed:
        out.append((v, e))
    return tuple(out)


def mono_div_var(m: Monomial, v: int, e: int = 1) -> Monomial:
    """Divide a monomial by x_v^e (x_v must occur with exponent at least e)."""
    out = []
    for i, ei in m:
        if i == v:
            if ei > e:
                out.append((i, ei - e))
        else:
            out.append((i, ei))
    return tuple(out)


def mono_sort_key(m: Monomial):
    """Graded-lexicographic key: higher degree first, then earlier variables."""
    return (mono_degree(m), tuple((-i, e) for i, e in m))


def mono_to_str(registry: VarRegistry, m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for i, e in m:
        name = registry.name(i)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# Sparse term dicts: Polynomial and PBWElement, on the one accumulation kernel
# ---------------------------------------------------------------------------


def add_into(acc: dict, items: Iterable[tuple], field: Field = QQ, scale=None) -> dict:
    """Add ``(key, coefficient)`` pairs into ``acc``, each coefficient first
    multiplied by ``scale`` when one is given, and drop every key whose
    coefficient becomes zero; returns ``acc``.  Computed with plain ``+`` and
    ``*``, reduced ``% p`` once per entry at characteristic p; at the default
    characteristic 0 ints and ``Fraction`` values both work."""
    p = field.characteristic
    for m, c in items:
        if scale is not None:
            c = scale * c
        c += acc.get(m, 0)
        if p:
            c %= p
        if c:
            acc[m] = c
        else:
            acc.pop(m, None)
    return acc


class TermDict:
    """A sparse linear combination of exponent monomials in canonical form.

    ``terms`` maps monomials to nonzero coefficients of ``field``; no other
    normalization exists, so ``==`` on equal registries is the authoritative
    identity test.  Subclasses fix what a monomial means: a commutative
    product (:class:`Polynomial`) or an ordered word (``pbw.PBWElement``).
    """

    __slots__ = ("registry", "field", "terms")

    def __init__(self, registry: VarRegistry, field: Field, terms: dict):
        self.registry = registry
        self.field = field
        self.terms = terms

    @classmethod
    def zero(cls, registry: VarRegistry, field: Field):
        return cls(registry, field, {})

    @classmethod
    def variable(cls, registry: VarRegistry, field: Field, var: Union[int, str]):
        i = registry.resolve(var)
        return cls(registry, field, {((i, 1),): field.one})

    @classmethod
    def from_terms(
        cls,
        registry: VarRegistry,
        field: Field,
        items: Iterable[tuple[Monomial, Scalar]],
    ):
        """Build from (monomial, coefficient) pairs, summing duplicates."""
        coerce = field.coerce
        return cls(registry, field, add_into({}, ((m, coerce(c)) for m, c in items), field))

    def _operand(self, other):
        """The right operand of ``+`` and ``-``; subclasses may coerce scalars."""
        return other

    def _check(self, other: "TermDict") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.registry != other.registry:
            raise RegistryMismatch("elements over different registries")
        if self.field != other.field:
            raise CharacteristicMismatch(
                f"cannot mix {self.field!r} and {other.field!r}"
            )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def __add__(self, other):
        other = self._operand(other)
        self._check(other)
        terms = add_into(dict(self.terms), other.terms.items(), self.field)
        return type(self)(self.registry, self.field, terms)

    def __neg__(self):
        neg = self.field.neg
        return type(self)(self.registry, self.field, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def scale(self, value: Scalar):
        field = self.field
        c0 = field.coerce(value)
        if c0 == field.zero:
            return type(self).zero(self.registry, field)
        mul = field.mul
        return type(self)(self.registry, field, {m: mul(c, c0) for m, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.registry == other.registry
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.registry, self.field, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


def eigenvalue(f: TermDict, g: TermDict):
    """The scalar lam with g = lam*f, or None when g is no multiple of f; f
    must be nonzero.  Any term of f serves as the probe: lam is unique when
    it exists."""
    field = f.field
    if g.is_zero:
        return field.zero
    probe = next(iter(f.terms))
    top = g.terms.get(probe)
    if top is None:
        return None
    lam = field.div(top, f.terms[probe])
    return lam if (g - f.scale(lam)).is_zero else None


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial(TermDict):
    """A sparse multivariate polynomial in canonical form; ints and
    ``Fraction`` values act as constants in ``+``, ``-``, ``*`` and ``==``."""

    __slots__ = ()

    @classmethod
    def constant(cls, registry: VarRegistry, field: Field, value: Scalar) -> "Polynomial":
        c = field.coerce(value)
        return cls(registry, field, {} if c == field.zero else {MONO_ONE: c})

    def _operand(self, other):
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(self.registry, self.field, other)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: mono_sort_key(t[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    __radd__ = TermDict.__add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        field = self.field
        terms: dict = {}
        for ma, ca in self.terms.items():
            add_into(terms, ((mono_mul(ma, mb), cb) for mb, cb in other.terms.items()), field, ca)
        return Polynomial(self.registry, field, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.registry, self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.registry, self.field, other)
        return TermDict.__eq__(self, other)

    __hash__ = TermDict.__hash__

    # -- calculus ----------------------------------------------------------

    def partial(self, var: Union[int, str], step: int = 1) -> "Polynomial":
        """Formal d/d(x^step) for a registry variable x: x^(step*k) maps to
        k*x^(step*(k-1)), and an exponent of x that step does not divide
        raises ``ValueError``.  Step 1 is d/dx; step p is d/d(x^p)."""
        v = self.registry.resolve(var)
        field = self.field
        items = []
        for m, c in self.terms.items():
            for i, e in m:
                if i == v:
                    if e % step:
                        raise ValueError(f"exponent {e} of {self.registry.name(v)} is not divisible by {step}")
                    items.append((mono_div_var(m, v, step), field.mul(c, field.coerce(e // step))))
                    break
        return Polynomial.from_terms(self.registry, field, items)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)


# ---------------------------------------------------------------------------
# Text format: sum of terms `coef*var^e*...` with deterministic ordering
# ---------------------------------------------------------------------------


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    field = p.field
    one = field.one
    chunks: list[str] = []
    for m, c in p.sorted_terms():
        if isinstance(field, RationalField) and c < 0:
            sign = "-"
            c = -c
        else:
            sign = "+"
        if not m:
            body = str(c)
        elif c == one:
            body = mono_to_str(p.registry, m)
        else:
            body = f"{c}*{mono_to_str(p.registry, m)}"
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f"{'+' if sign == '+' else '-'} {body}")
    return " ".join(chunks)


_TOKEN_RE = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse polynomial text at {text[pos:pos+20]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def parse_polynomial(registry: VarRegistry, field: Field, text: str) -> Polynomial:
    """Parse the textual polynomial format produced by :func:`format_polynomial`."""
    text = text.strip()
    if text == "0" or not text:
        return Polynomial.zero(registry, field)
    tokens = _tokenize(text)
    items: list[tuple[Monomial, Scalar]] = []
    pos = 0
    n = len(tokens)
    while pos < n:
        sign = 1
        while pos < n and tokens[pos] in "+-":
            if tokens[pos] == "-":
                sign = -sign
            pos += 1
        if pos >= n:
            raise ValueError("dangling sign in polynomial text")
        coeff = Fraction(sign)
        pairs: list[tuple[int, int]] = []
        expect_factor = True
        while pos < n and tokens[pos] not in "+-":
            tok = tokens[pos]
            if tok == "*":
                pos += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ValueError(f"unexpected token {tok!r} in polynomial text")
            if tok[0].isdigit():
                coeff *= Fraction(tok)
                pos += 1
            else:
                idx = registry.index(tok)
                exp = 1
                pos += 1
                if pos < n and tokens[pos] == "^":
                    exp = int(tokens[pos + 1])
                    pos += 2
                pairs.append((idx, exp))
            expect_factor = False
        items.append((mono_from_pairs(pairs), coeff))
    return Polynomial.from_terms(registry, field, items)


# ---------------------------------------------------------------------------
# Determinants of polynomial matrices
# ---------------------------------------------------------------------------


def _det(rows: list[list[Polynomial]]) -> Polynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    first = rows[0][0]
    total = Polynomial.zero(first.registry, first.field)
    sign = 1
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * _det(minor)
        total = total + term if sign > 0 else total - term
        sign = -sign
    return total


def poly_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by cofactor expansion."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return _det([list(r) for r in rows])


def jacobian_det(
    fs: Sequence[Polynomial], vs: Sequence[Union[int, str]]
) -> Polynomial:
    """Determinant of the matrix of partials d(fs)/d(vs), expanded exactly."""
    if len(fs) != len(vs):
        raise ValueError(f"need as many functions as variables, got {len(fs)}/{len(vs)}")
    if not fs:
        raise ValueError("empty Jacobian")
    rows = [[f.partial(v) for v in vs] for f in fs]
    return _det(rows)


# ---------------------------------------------------------------------------
# Frobenius powers and p-divisibility patterns
# ---------------------------------------------------------------------------


def frobenius_expand(f: Polynomial, p: int) -> Polynomial:
    """Return f**p over F_p: every exponent times p, every coefficient kept.

    Valid because the Frobenius map is additive in characteristic p and
    c^p = c for every c in GF(p); this is property-tested against repeated
    multiplication.
    """
    char = f.field.characteristic
    if char == 0:
        raise CharacteristicMismatch("frobenius_expand requires prime characteristic")
    if char != p:
        raise CharacteristicMismatch(f"polynomial lives over GF({char}), not GF({p})")
    return Polynomial(
        f.registry, f.field, {tuple((i, e * p) for i, e in m): c for m, c in f.terms.items()}
    )


def ppattern_membership(
    f: Polynomial, p: int, exempt: Iterable[Union[int, str]] = ()
) -> tuple[bool, Optional[Monomial]]:
    """Decide membership in the subalgebra generated by p-th powers of all
    variables together with the exempt variables themselves.

    Every monomial must have p-divisible exponents on non-exempt variables.
    Returns ``(True, None)`` or ``(False, witness_monomial)``; the witness is
    the graded-lex greatest violating monomial, making reports deterministic.
    """
    if p < 3:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    exempt_idx = {f.registry.resolve(v) for v in exempt}
    witness = None
    for m in f.terms:
        for i, e in m:
            if i not in exempt_idx and e % p != 0:
                if witness is None or mono_sort_key(m) > mono_sort_key(witness):
                    witness = m
                break
    return (witness is None), witness
