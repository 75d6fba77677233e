"""Property tests: the accumulation kernel ``add_into`` against its
field-arithmetic reference, TermDict arithmetic of Polynomial and PBWElement
against a plain-dict model over QQ and prime fields, the polynomial text format,
symmetrize and the commutator fast path against their references, and the
exit-code contract of ``verify`` on mutated table files."""

import contextlib
import io
import json
from fractions import Fraction
from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st  # noqa: E402

from liecenter import cli, liealg  # noqa: E402
from liecenter.exactalg import (  # noqa: E402
    GF,
    QQ,
    Polynomial,
    VarRegistry,
    add_into,
    format_polynomial,
    mono_from_pairs,
    mono_mul,
    parse_polynomial,
)
from liecenter.linalg import FILTER_PRIME  # noqa: E402
from liecenter.pbw import (  # noqa: E402
    CharacteristicObstruction,
    PBWElement,
    commutator_u,
    commutator_with_basis,
    mono_of_word,
    symmetrize,
)
from conftest import reference_add_into, table_to_dict  # noqa: E402
from test_pbw import reference_symmetrize  # noqa: E402

REG = VarRegistry(["x1", "x2", "x3"])
FIELDS = pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "GF5", "GF7"])
CLASSES = pytest.mark.parametrize("cls", [Polynomial, PBWElement])
SETTINGS = settings(max_examples=25, deadline=None)

# a small monomial space, so duplicates and cancellations are common
monomials = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 2)), max_size=2
).map(mono_from_pairs)
coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
term_lists = st.lists(st.tuples(monomials, coefficients), max_size=6)


@st.composite
def accumulations(draw):
    """(field, acc, items, scale) for ``add_into``; a field of None stands
    for plain ints under the default field.  The keys come from a small
    range, so items hit keys of ``acc`` and of each other, and the items end
    with the negations of some of them and of some entries of ``acc``, so
    that entries cancel; over GF(p) a residue and its negation sum to p,
    which vanishes only mod p.  The scale is None, 0 or negative, a multiple
    of p among the negative ones."""
    field = draw(st.sampled_from([None, QQ, GF(3), GF(7), GF(FILTER_PRIME)]))
    p = field.characteristic if field else 0
    if field is None:
        elements, scales = st.integers(-9, 9), st.integers(-9, -1)
    elif p:
        elements, scales = st.integers(0, p - 1), st.integers(-9, -1) | st.just(-p)
    else:
        elements = coefficients
        scales = st.builds(Fraction, st.integers(-4, -1), st.integers(1, 4))
    keys = st.integers(0, 4)
    acc = draw(st.dictionaries(keys, elements.filter(bool), max_size=4))
    items = draw(st.lists(st.tuples(keys, elements), max_size=6))
    cancel = draw(st.lists(st.sampled_from(items + list(acc.items())), max_size=3)) if items or acc else []
    items += [(m, -c % p if p else -c) for m, c in cancel]
    return field, acc, items, draw(st.none() | st.just(0) | scales)


@settings(max_examples=300, deadline=None)
@given(case=accumulations())
@example(case=(QQ, {0: Fraction(1, 2)}, [(0, Fraction(-1, 2)), (1, Fraction(3))], None))
@example(case=(None, {1: 4}, [(1, 2), (2, 5), (2, -5)], -2))
@example(case=(GF(3), {0: 1}, [(0, 2), (1, 1), (1, 2)], None))
@example(case=(GF(7), {0: 3}, [(0, 5), (1, 6)], -7))
@example(case=(GF(FILTER_PRIME), {2: 1}, [(0, 1), (0, FILTER_PRIME - 1), (2, 5)], 0))
def test_add_into_matches_field_reference(case):
    field, acc, items, scale = case
    want = reference_add_into(dict(acc), items, field or QQ, scale)
    if field is None:
        got = add_into(dict(acc), items, scale=scale)
    else:
        got = add_into(dict(acc), items, field, scale)
    assert got == want
    assert {m: type(c) for m, c in got.items()} == {m: type(c) for m, c in want.items()}


def model(field, items):
    """Sum every coefficient per monomial, then keep the nonzero sums."""
    sums = {}
    for m, c in items:
        sums[m] = field.add(sums.get(m, field.zero), field.coerce(c))
    return {m: c for m, c in sums.items() if c != field.zero}


def negated(items):
    return [(m, -c) for m, c in items]


@FIELDS
@CLASSES
@SETTINGS
@given(items=term_lists)
def test_from_terms_sums_duplicates_and_drops_zeros(cls, field, items):
    assert cls.from_terms(REG, field, items).terms == model(field, items)
    assert cls.from_terms(REG, field, items + negated(items)).is_zero


@FIELDS
@CLASSES
@SETTINGS
@given(a=term_lists, b=term_lists, s=coefficients)
def test_linear_operations(cls, field, a, b, s):
    x, y = cls.from_terms(REG, field, a), cls.from_terms(REG, field, b)
    assert (x + y).terms == model(field, a + b)
    assert (x - y).terms == model(field, a + negated(b))
    assert (-x).terms == model(field, negated(a))
    assert x.scale(s).terms == model(field, [(m, c * s) for m, c in a])
    assert type(x + y) is type(x - y) is type(x.scale(s)) is cls


@FIELDS
@SETTINGS
@given(a=term_lists, b=term_lists)
def test_polynomial_product(field, a, b):
    x, y = Polynomial.from_terms(REG, field, a), Polynomial.from_terms(REG, field, b)
    expected = [(mono_mul(ma, mb), ca * cb) for ma, ca in a for mb, cb in b]
    assert (x * y).terms == model(field, expected)


@FIELDS
@CLASSES
@SETTINGS
@given(a=term_lists, b=term_lists)
def test_equality_agrees_with_hash(cls, field, a, b):
    x = cls.from_terms(REG, field, a)
    again = cls.from_terms(REG, field, list(reversed(a)))
    assert x == again and hash(x) == hash(again)
    y = cls.from_terms(REG, field, b)
    assert (x == y) == (model(field, a) == model(field, b))
    if x == y:
        assert hash(x) == hash(y)


@FIELDS
@SETTINGS
@given(items=term_lists)
def test_format_parse_round_trip(field, items):
    p = Polynomial.from_terms(REG, field, items)
    text = format_polynomial(p)
    assert parse_polynomial(REG, field, text) == p
    assert format_polynomial(parse_polynomial(REG, field, text)) == text


# symmetrize: random polynomials of degree <= 5 over two catalog tables, with
# the zero polynomial, constants, repeated letters and mixed degrees
TABLES = {"g2-borel": liealg.g2_borel, "c3-borel": lambda: liealg.cn_borel(3)}
TABLE_NAMES = pytest.mark.parametrize("name", sorted(TABLES))


@cache
def table(name):
    return TABLES[name]()


def table_words(name, min_size=0, max_size=5):
    letters = st.integers(0, table(name).dim - 1)
    return st.lists(letters, min_size=min_size, max_size=max_size).map(sorted).map(mono_of_word)


def table_polynomials(name, field, cls=Polynomial, max_degree=5):
    # denominators prime to 3 and 5, so each draw is defined over GF(3), GF(5)
    scalars = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 4]))
    terms = st.lists(st.tuples(table_words(name, max_size=max_degree), scalars), max_size=4)
    return terms.map(lambda items: cls.from_terms(table(name).registry, field, items))


@TABLE_NAMES
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@SETTINGS
@given(data=st.data())
def test_symmetrize_matches_rewriting_reference(name, field, data):
    f = data.draw(table_polynomials(name, field))
    t = table(name)
    assert symmetrize(t, f) == reference_symmetrize(t, f)


@TABLE_NAMES
@pytest.mark.parametrize("p", [3, 5])
@SETTINGS
@given(data=st.data())
def test_symmetrize_obstructed_at_small_characteristic(name, p, data):
    field = GF(p)
    top = Polynomial.from_terms(table(name).registry, field, [(data.draw(table_words(name, p)), 1)])
    f = data.draw(table_polynomials(name, field)) + top
    assume(f.total_degree() >= p)
    with pytest.raises(CharacteristicObstruction):
        symmetrize(table(name), f)


# commutator_with_basis: [x_g, e] for every basis generator g against the
# full products of commutator_u, on random PBW elements of filtration degree <= 4


@TABLE_NAMES
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@SETTINGS
@given(data=st.data())
def test_commutator_with_basis_matches_commutator_u(name, field, data):
    t = table(name)
    e = data.draw(table_polynomials(name, field, PBWElement, max_degree=4))
    for g in range(t.dim):
        x = PBWElement.variable(t.registry, field, g)
        assert commutator_with_basis(t, g, e) == commutator_u(t, x, e), t.label(g)


# the input contract: a mutated G2 or Cn table file either verifies
# (0), fails a claim (1) or is rejected as a configuration error (2), never
# an internal error (3)

BASE_TABLES = {
    "g2-borel": table_to_dict(liealg.g2_borel()),
    "g2-nil": table_to_dict(liealg.nilradical_table(liealg.g2_borel())),
    "c2-borel": table_to_dict(liealg.cn_borel(2)),
    "c3-borel": table_to_dict(liealg.cn_borel(3)),
}
MUTATIONS = ("change", "add", "drop", "primes", "cartan")


def bracket_values(labels):
    return st.lists(
        st.tuples(st.sampled_from(["1", "-1", "2", "1/2", "0", "3"]), st.sampled_from(labels)),
        max_size=2,
    ).map(lambda terms: [list(term) for term in terms])


@st.composite
def mutated(draw, base, kinds=MUTATIONS):
    data = json.loads(json.dumps(BASE_TABLES[base]))
    labels = data["basis"]
    brackets = data["brackets"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "change" and brackets:
            draw(st.sampled_from(brackets))["value"] = draw(bracket_values(labels))
        elif kind == "add":
            pair = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
            lhs, rhs = sorted(pair, key=labels.index)
            brackets.append({"lhs": lhs, "rhs": rhs, "value": draw(bracket_values(labels))})
        elif kind == "drop" and brackets:
            brackets.remove(draw(st.sampled_from(brackets)))
        elif kind == "primes":
            data["excluded_primes"] = draw(st.lists(st.sampled_from([2, 3, 5, 7]), max_size=3))
        elif kind == "cartan":
            data["cartan"] = draw(st.lists(st.sampled_from(labels), max_size=3, unique=True))
    return data


def verify_exit_code(tmp_path, data, char, max_degree="2"):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--algebra", str(path), "--char", char, "--max-degree", max_degree])
    return code, err.getvalue()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated("g2-borel"), char=st.sampled_from(["0", "5", "7"]))
def test_mutated_table_file_exits_0_1_or_2(tmp_path, data, char):
    code, err = verify_exit_code(tmp_path, data, char)
    assert code in (0, 1, 2), err


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated("c2-borel"), char=st.sampled_from(["0", "5", "7"]))
def test_mutated_c2_table_file_exits_0_1_or_2(tmp_path, data, char):
    code, err = verify_exit_code(tmp_path, data, char)
    assert code in (0, 1, 2), err



# with the basis and Cartan labels kept, the table is a catalog table and
# the audit runs too, to the Borel degree
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.sampled_from(sorted(BASE_TABLES)).flatmap(lambda base: mutated(base, MUTATIONS[:4])),
    char=st.sampled_from(["0", "3", "5", "7"]),
)
def test_mutated_catalog_labelled_table_file_exits_0_1_or_2(tmp_path, data, char):
    code, err = verify_exit_code(tmp_path, data, char, max_degree="3")
    assert code in (0, 1, 2), err
