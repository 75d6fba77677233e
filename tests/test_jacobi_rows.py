"""The Jacobi check on the integer rows against the ``Fraction`` check it
replaces.

``liealg.jacobi_check`` sums D^2*J(i, j, k) on ints from
``StructureTable.rows`` and prints a nonzero total divided by D^2;
``conftest.reference_jacobi`` sums J itself on the raw bracket coordinates.
Both must report the same failing triples with the same residual texts, on
valid tables with D = 1, 2 and 6 and on broken ones whose constants have
small, mixed and 20-digit prime denominators.
"""

import os
import random
from fractions import Fraction
from functools import cache
from math import prod

import pytest

from liecenter import liealg
from liecenter.exactalg import is_prime

from conftest import reference_jacobi

THIRDS_TABLE = os.path.join(os.path.dirname(__file__), "data", "thirds.json")

CATALOG = {
    "g2": liealg.g2_borel,
    "f4": liealg.f4_borel,
    **{f"c{n}": (lambda n=n: liealg.cn_borel(n)) for n in range(2, 8)},
}


def copy_with(t, suffix, brackets):
    """An unvalidated copy of ``t`` with the given brackets."""
    return liealg.StructureTable(
        t.name + suffix, t.registry, brackets, t.cartan, t.nilradical, t.excluded_primes
    )


def assert_same_report(t):
    report = liealg.jacobi_check.__wrapped__(t)
    assert report == reference_jacobi(t)
    return report


@pytest.mark.parametrize("level", ["borel", "nil"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_tables(name, level):
    t = CATALOG[name]()
    if level == "nil":
        t = liealg.nilradical_table(t)
    assert assert_same_report(t).ok


def test_thirds_table():
    t = liealg.load_table(THIRDS_TABLE)
    assert t.scale == 6
    assert assert_same_report(t).ok
    # the weights stop adding up once [h, c] = c/6 becomes c/5
    (key,) = [key for key, entry in t.brackets.items() if entry == ((3, Fraction(1, 6)),)]
    broken = copy_with(t, "+fifth", {**t.brackets, key: ((3, Fraction(1, 5)),)})
    assert broken.scale == 30
    assert not assert_same_report(broken).ok


def rescaled(t, q, seed):
    """A copy of ``t`` in which a seeded quarter of the brackets is multiplied
    by p/q, each by its own integer p in [-5, 5] prime to q."""
    rng = random.Random(seed)
    keys = sorted(t.brackets)
    brackets = dict(t.brackets)
    for key in rng.sample(keys, len(keys) // 4):
        factor = Fraction(rng.choice([p for p in range(-5, 6) if p % q]), q)
        brackets[key] = tuple((k, c * factor) for k, c in brackets[key])
    return copy_with(t, f"+rescaled-{q}-{seed}", brackets)


@pytest.mark.parametrize("q", [2, 3, 7, 11])
@pytest.mark.parametrize("name", ["g2", "f4", "c3"])
def test_rescaled_tables(name, q):
    for seed in range(3):
        t = rescaled(CATALOG[name](), q, seed)
        assert t.scale > 1
        assert not assert_same_report(t).ok


def mutated(t, seed):
    """A copy of ``t`` with one seeded bracket scaled by 3/2, negated,
    dropped, or given an extra third of a seeded basis vector."""
    rng = random.Random(seed)
    key = rng.choice(sorted(t.brackets))
    entry = t.brackets[key]
    kind = seed % 4
    brackets = dict(t.brackets)
    if kind == 0:
        brackets[key] = tuple((k, c * Fraction(3, 2)) for k, c in entry)
    elif kind == 1:
        brackets[key] = tuple((k, -c) for k, c in entry)
    elif kind == 2:
        del brackets[key]
    else:
        extra = rng.choice([k for k in range(t.dim) if k not in dict(entry)])
        brackets[key] = tuple(sorted((*entry, (extra, Fraction(1, 3)))))
    return copy_with(t, f"+mutated-{seed}", brackets)


@pytest.mark.parametrize("name", ["g2", "f4", "c3"])
def test_mutated_tables(name):
    for seed in range(5):
        t = mutated(CATALOG[name](), seed)
        assert not assert_same_report(t).ok, seed


@cache
def twenty_digit_primes(count):
    out, n = [], 10**19
    while len(out) < count:
        n += 1
        if is_prime(n):
            out.append(n)
    return tuple(out)


def f4_over_large_primes():
    """F4 Borel with each bracket divided by its own 20-digit prime, so D is
    a product of 128 such primes."""
    t = liealg.f4_borel()
    keys = sorted(t.brackets)
    primes = twenty_digit_primes(len(keys))
    brackets = {
        key: tuple((k, c / prime) for k, c in t.brackets[key]) for key, prime in zip(keys, primes)
    }
    return copy_with(t, "+large-primes", brackets)


def test_twenty_digit_prime_denominators():
    t = f4_over_large_primes()
    assert len(t.brackets) == 128
    assert t.scale == 2 * prod(twenty_digit_primes(128))
    report = assert_same_report(t)
    assert len(report.failures) == 352
