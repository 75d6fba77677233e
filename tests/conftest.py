import json
import os
from itertools import combinations, combinations_with_replacement, groupby

import pytest

from liecenter import charp, exactalg, invariants, liealg, linalg, pbw, poisson
from liecenter import report as rep
from liecenter.exactalg import (
    GF,
    QQ,
    Polynomial,
    add_into,
    frobenius_expand,
    jacobian_det,
    mono_degree,
    mono_div_var,
    mono_mul_var,
    mono_sort_key,
    mono_to_str,
    parse_polynomial,
    poly_det,
    ppattern_membership,
)

# the commands the tests start import the package from this checkout, as
# the test process does through pyproject.toml's pythonpath
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def g2b():
    return liealg.g2_borel()


@pytest.fixture(scope="session")
def g2n(g2b):
    return liealg.nilradical_table(g2b)


@pytest.fixture(scope="session")
def f4b():
    return liealg.f4_borel()


@pytest.fixture(scope="session")
def f4n(f4b):
    return liealg.nilradical_table(f4b)


@pytest.fixture(scope="session")
def g2b_fam(g2b):
    return invariants.g2_invariants(g2b)


@pytest.fixture(scope="session")
def g2n_fam(g2n):
    return invariants.g2_invariants(g2n)


@pytest.fixture(scope="session")
def f4b_fam(f4b):
    return invariants.f4_invariants(f4b)


@pytest.fixture(scope="session")
def f4n_fam(f4n):
    return invariants.f4_invariants(f4n)


@pytest.fixture(scope="session")
def c2b():
    return liealg.cn_borel(2)


@pytest.fixture(scope="session")
def c3b():
    return liealg.cn_borel(3)


def with_bracket(t, lhs, rhs, value):
    """A copy of the table with one bracket replaced and no validation, for
    showing that corrupted tables are caught."""
    i, j = t.registry.index(lhs), t.registry.index(rhs)
    if i > j:
        raise ValueError("pass the bracket key in basis order")
    brackets = dict(t.brackets)
    entry = liealg._parse_lincomb(t.registry, value)
    if entry:
        brackets[(i, j)] = entry
    else:
        brackets.pop((i, j), None)
    return liealg.StructureTable(
        t.name + "+mutated",
        t.registry,
        brackets,
        t.cartan,
        t.nilradical,
        t.excluded_primes,
        t.corrections,
    )


def nonzero_bracket_items(t):
    """All stored nonzero brackets as (lhs, rhs, value-text) triples."""
    out = []
    for (i, j), entry in sorted(t.brackets.items()):
        out.append((t.label(i), t.label(j), str(liealg.lincomb_to_poly(t, dict(entry)))))
    return out


def table_to_dict(t):
    """The table-file form of a table, which ``liealg.table_from_dict`` reads."""
    return {
        "name": t.name,
        "excluded_primes": sorted(t.excluded_primes),
        "basis": list(t.registry.names),
        "cartan": [t.label(i) for i in t.cartan],
        "brackets": [
            {
                "lhs": t.label(i),
                "rhs": t.label(j),
                "value": [[str(c), t.label(k)] for k, c in entry],
            }
            for (i, j), entry in sorted(t.brackets.items())
        ],
    }


def save_table(t, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_dict(t), fh, indent=2, sort_keys=True)
        fh.write("\n")


def homogeneous_monomials(nvars, degree):
    """All sparse monomials of the given total degree, lexicographic by dense
    exponent vector, largest first: the reference enumeration for the
    oracle's ``combinations_with_replacement`` index tuples."""
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if start == nvars:
            return
        if start == nvars - 1:
            acc.append((start, remaining))
            out.append(tuple(acc))
            acc.pop()
            return
        for e in range(remaining, 0, -1):
            acc.append((start, e))
            rec(start + 1, remaining - e, acc)
            acc.pop()
        rec(start + 1, remaining, acc)

    rec(0, degree, [])
    return out


def mono_grade(mono, gradings):
    """The multidegree of a monomial under each grading, summed term by term."""
    return tuple(sum(e * g[v] for v, e in mono) for g in gradings)


def is_homogeneous(p):
    return len({mono_degree(m) for m in p.terms}) <= 1


def leading_monomial(p):
    """The greatest monomial of a nonzero polynomial in the graded order."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=mono_sort_key)


def abelian_table(dim=4):
    """A nilpotent abelian algebra on labels y1..ydim, for trivial cases."""
    from liecenter.exactalg import VarRegistry

    registry = VarRegistry([f"y{i}" for i in range(1, dim + 1)])
    return liealg.StructureTable("abelian-test", registry, {}, (), range(dim))


# -- the field rows: the reference for every kernel on the integer rows --------


def reference_bracket_row(t, i, char):
    """[basis_i, basis_j] for every j, each coordinate reduced mod char by a
    hand-rolled modular inverse of its denominator, with the coordinates and
    then the brackets that vanish there dropped: the bracket rows reduced
    into the field, which the kernels on ``StructureTable.rows`` must
    agree with."""
    row = {}
    for j in range(t.dim):
        coords = t.bracket_coords(i, j)
        if char:
            reduced = []
            for k, c in coords.items():
                den = c.denominator % char
                if den == 0:
                    raise ZeroDivisionError(f"structure constant {c} not reducible mod {char}")
                reduced.append((k, c.numerator * pow(den, char - 2, char) % char))
            entry = tuple((k, c) for k, c in reduced if c)
        else:
            entry = tuple((k, c) for k, c in coords.items() if c)
        if entry:
            row[j] = entry
    return row


def reference_add_into(acc, items, field, scale=None):
    """The accumulation in the field's own arithmetic, through ``field.add``
    and ``field.mul``, on field elements: the reference for
    ``exactalg.add_into``."""
    zero = field.zero
    add = field.add
    mul = field.mul
    for m, c in items:
        if scale is not None:
            c = mul(scale, c)
        prev = acc.get(m)
        if prev is not None:
            c = add(prev, c)
        if c == zero:
            acc.pop(m, None)
        else:
            acc[m] = c
    return acc


def reference_ad_apply(t, i, f):
    """{x_i, f} in the field's own arithmetic over the field rows, every
    product and sum reduced as it is formed: the reference for
    ``poisson.ad_apply``."""
    field = f.field
    i = t.registry.resolve(i)
    row = reference_bracket_row(t, i, field.characteristic)
    terms = {}
    for mono, coeff in f.terms.items():
        for v, e in mono:
            factor = field.mul(coeff, field.coerce(e))
            base = mono_div_var(mono, v)
            for w, cw in row.get(v, ()):
                m2 = mono_mul_var(base, w)
                c = field.add(terms.get(m2, field.zero), field.mul(factor, cw))
                if c == field.zero:
                    terms.pop(m2, None)
                else:
                    terms[m2] = c
    return Polynomial(f.registry, field, terms)


def reference_jacobi(t):
    """The Jacobi check in ``Fraction`` arithmetic on the raw bracket
    coordinates, each inner [x_a, [x_b, x_c]] summed on its own: the
    reference for ``liealg.jacobi_check``, which sums D^2*J on the integer
    rows."""
    report = liealg.JacobiReport(algebra=t.name, triples_checked=0)
    for i, j, k in combinations(range(t.dim), 3):
        report.triples_checked += 1
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = {}
            for m, cm in t.bracket_coords(b, c).items():
                add_into(inner, t.bracket_coords(a, m).items(), QQ, cm)
            add_into(total, inner.items(), QQ)
        if total:
            residual = str(liealg.lincomb_to_poly(t, total))
            report.failures.append(
                liealg.JacobiFailure((t.label(i), t.label(j), t.label(k)), residual)
            )
    return report


# -- the characteristic-p calculus: the references for charp's one path --------


def reference_partial_wrt_ppower(f, var, p):
    """d f / d (x^p) for a polynomial whose x-exponents are all p-divisible:
    x^(p*e) differentiates to e * x^(p*(e-1)), the rest of the monomial
    rebuilt and re-sorted by hand: the reference for
    ``Polynomial.partial(var, p)``."""
    v = f.registry.resolve(var)
    field = f.field
    items = []
    for m, c in f.terms.items():
        for i, e in m:
            if i == v:
                if e % p:
                    raise ValueError(
                        f"exponent {e} of {f.registry.name(v)} is not divisible by {p}"
                    )
                k = e // p
                rest = tuple((j, ej) for j, ej in m if j != v)
                if k > 1:
                    rest = tuple(sorted(rest + ((v, p * (k - 1)),)))
                items.append((rest, field.mul(c, field.coerce(k))))
                break
    return Polynomial.from_terms(f.registry, field, items)


def reference_stretch_exponents(f, p, field):
    """The substitution y_i -> x_i^p, every exponent multiplied by p and
    every coefficient coerced into ``field``: the reference for the
    Frobenius expansion of a Q-polynomial reduced into GF(p)."""
    return Polynomial.from_terms(
        f.registry,
        field,
        ((tuple((i, e * p) for i, e in m), c) for m, c in f.terms.items()),
    )


# the stated identities the reference suite reads; a test may patch them
REFERENCE_F4_JACOBIANS = (
    (("x16", "x9", "x2"), "2", (("c1", 3), ("c2", 1), ("c3", 1))),
    (("x16", "x9", "x6"), "-2", (("c1", 3), ("c2", 1), ("v3", 1))),
    (("x16", "x13", "x2"), "-4", (("c1", 3), ("v4", 1), ("c3", 1))),
    (("x18", "x15", "x8"), "-4", (("x23", 3), ("v4", 1), ("v3", 1))),
)
REFERENCE_G2_PARTIALS = (("x1", "-3*x6"), ("x2", "-3*x5"))


def reference_jacobian_identity_suite(t, fam, p=3):
    """The Jacobian identities with one branch per family, the G2 values
    parsed from text and the GF(p) side built by the two references above:
    the reference for ``charp.jacobian_identity_suite``."""
    claims = []
    field = GF(p)

    def factor_poly(name):
        if name in fam.elements(QQ):
            return fam.element(name, QQ)
        return Polynomial.variable(t.registry, QQ, name)

    if t.name[:2] == "f4":
        cs = [fam.element(f"c{i}") for i in (2, 3, 4)]
        frob = [frobenius_expand(fam.element(f"c{i}", field), p) for i in (2, 3, 4)]
        for vars_, coef, factors in REFERENCE_F4_JACOBIANS:
            rhs = Polynomial.constant(t.registry, QQ, coef)
            for fname, power in factors:
                rhs = rhs * factor_poly(fname) ** power
            lhs = -jacobian_det(cs, list(vars_))
            claim_id = f"{t.name}.jacobians.det.{'-'.join(vars_)}"
            rhs_str = f"{coef}*" + "*".join(f"{n}^{k}" if k > 1 else n for n, k in factors)
            statement = (
                f"det d(t_i^p - c_i^p)/d({','.join(vars_)}^p) = {rhs_str} "
                f"(p-th powers dropped) up to a recorded sign"
            )
            claims.append(charp._signed_claim(claim_id, statement, lhs, rhs, "product"))
            lit = poly_det(
                [[-reference_partial_wrt_ppower(f, v, p) for v in vars_] for f in frob]
            )
            expected_lit = reference_stretch_exponents(lhs, p, field)
            claims.append(
                rep.check(
                    f"{claim_id}.f{p}",
                    f"the same determinant instantiated over GF({p}) equals the "
                    f"Q-identity under y -> x^{p}",
                    lit == expected_lit,
                    residual=None if lit == expected_lit else str(lit - expected_lit),
                )
            )
    if t.name[:2] == "g2":
        c2 = fam.element("c2")
        c2p = frobenius_expand(fam.element("c2", field), p)
        for var, stated in REFERENCE_G2_PARTIALS:
            got = c2.partial(var)
            expected_raw = -parse_polynomial(t.registry, QQ, stated)
            claim_id = f"{t.name}.jacobians.partial.{var}"
            statement = (
                f"d(t^p - c2^p)/d({var}^p) = {stated} with p-th powers dropped, "
                f"up to a recorded sign"
            )
            claims.append(charp._signed_claim(claim_id, statement, got, expected_raw, "value"))
            lit = reference_partial_wrt_ppower(c2p, var, p)
            expected = reference_stretch_exponents(got, p, field)
            claims.append(
                rep.check(
                    f"{claim_id}.f{p}",
                    f"d(c2^{p})/d({var}^{p}) over GF({p}) matches the Q-partial under y -> x^{p}",
                    lit == expected,
                )
            )
    return claims


def reference_f4_layers(e):
    """c3 and c4 written out from the other F4 elements in ``e``: the
    reference for the layer records ``invariants._f4_defs`` composes."""
    c3 = e["c2"] * e["u9"] + (e["v4"] * e["v4"]).scale("1/2")
    c4 = (
        -(e["u2"] * c3)
        + (e["u6"] * e["v3"]).scale("1/2")
        + (e["v7"] * e["w3"]).scale("1/4")
    )
    return c3, c4


def reference_f4_layered_claims(t, F, p):
    """The F4 layered claims with the coefficients' p-th powers taken and
    the p-pattern elements listed by hand, F the Frobenius expansion by
    name: the reference for the layer loop of
    ``charp.frobenius_membership_suite``."""
    field = GF(p)
    claims = []
    prefix = f"{t.name}.frobenius.p{p}"
    half_p = pow(field.coerce("1/2"), p, p)
    quarter_p = pow(field.coerce("1/4"), p, p)
    lhs3 = F("c3") - (F("c2") * F("u9") + (F("v4") * F("v4")).scale(half_p))
    claims.append(
        rep.check(
            f"{prefix}.c3p-layered",
            f"c3^{p} = c2^{p}*u9^{p} + (1/2)^{p}*v4^{2*p} exactly",
            lhs3.is_zero,
            residual=None if lhs3.is_zero else str(lhs3),
        )
    )
    lhs4 = F("c4") - (
        -(F("u2") * F("c3"))
        + (F("u6") * F("v3")).scale(half_p)
        + (F("v7") * F("w3")).scale(quarter_p)
    )
    claims.append(
        rep.check(
            f"{prefix}.c4p-layered",
            f"c4^{p} = -u2^{p}*c3^{p} + (1/2)^{p}*u6^{p}*v3^{p} + (1/4)^{p}*v7^{p}*w3^{p} exactly",
            lhs4.is_zero,
            residual=None if lhs4.is_zero else str(lhs4),
        )
    )
    for aux in ("u9", "v4", "u6", "v3", "u2", "v7", "w3"):
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


# -- the basis oracle: the reference for the oracle's dimensions ---------------


def reference_oracle_basis(t, degree, gens, field):
    """A basis of the degree-d invariants under ``gens``, with the packed-code
    row fill of ``invariants.brute_force_invariant_space`` and the same
    calls to ``lie_generators``, ``derive_multigrading``, ``saturates_mod``
    and ``nullspace_*``, each null vector assembled into a ``Polynomial``
    and a row-less block's columns taken as its basis; not memoized and not
    capped: the reference for the oracle's dimension."""
    char = field.characteristic
    gens = liealg.lie_generators(t, tuple(gens), char)
    dim = t.dim
    place = [(degree + 1) ** v for v in range(dim)]
    packed_grade = [0] * dim
    for g in invariants.derive_multigrading(t):
        lo = min(g)
        base = degree * (max(g) - lo) + 1
        packed_grade = [pg * base + w - lo for pg, w in zip(packed_grade, g)]
    blocks = {}
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
    basis = []
    for grade in sorted(blocks):
        cols = blocks[grade]
        ncols = len(cols)
        by_target = [{} for _ in gens]
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
        if dense and linalg.saturates_mod(dense, ncols, char or linalg.FILTER_PRIME):
            continue
        monos = [tuple((v, len(list(run))) for v, run in groupby(idx)) for idx in cols]
        if not dense:
            basis.extend(Polynomial(t.registry, field, {m: field.one}) for m in monos)
            continue
        null = linalg.nullspace_mod(dense, ncols, char) if char else linalg.nullspace_int(dense, ncols)
        basis.extend(Polynomial.from_terms(t.registry, field, zip(monos, vec)) for vec in null)
    return basis


def reference_compare_with_generated(t, oracle_basis, generators, degree, field):
    """The span of the degree-d generator products against the oracle basis
    by three ranks, the oracle's, the products' and their union's: the
    reference for ``invariants.compare_with_generated``, whose containment
    test replaces the union rank."""
    products = [p for p in invariants.degree_d_products(generators, degree) if not p.is_zero]
    oracle_rows = [p.terms for p in oracle_basis]
    generated_rows = [p.terms for p in products]
    r_oracle = len(oracle_basis)
    r_generated = linalg.rank(generated_rows, field)
    r_union = linalg.rank(oracle_rows + generated_rows, field)
    return {
        "degree": degree,
        "oracle_dim": r_oracle,
        "generated_dim": r_generated,
        "union_dim": r_union,
        "equal": r_oracle == r_generated == r_union,
    }


def _reference_audit_invariant_generators(t, claims, prefix, generators, gens_idx, scope):
    for name, poly in generators:
        ok, bad = poisson.is_invariant(t, poly, gens_idx)
        claims.append(
            rep.check(
                f"{prefix}.gen.{name}.invariant",
                f"generator {name} is {scope}-invariant",
                ok,
                witness=None if ok else t.label(bad),
            )
        )


def _reference_audit_central_generators(t, claims, prefix, elements, gens_idx):
    for name, elt in elements:
        ok, bad = pbw.is_central_u(t, elt, gens_idx)
        claims.append(
            rep.check(
                f"{prefix}.gen.{name}.central",
                f"generator {name} commutes with every generator of the enveloping algebra",
                ok,
                witness=None if ok else t.label(bad),
            )
        )


def _reference_audit_completeness(claims, prefix, results, statement):
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


def _reference_asserted_generation(prefix, ring, note):
    return rep.asserted(
        f"{prefix}.generation",
        f"the listed generators generate {ring} in every degree",
        note=note,
    )


def reference_theorem_generator_audit(t, fam, char, max_degree=None):
    """The theorem audit as seven hand-written sections: the reference for
    ``charp.theorem_generator_audit``, which loops over statement records.
    Its Borel characteristic-0 ``u-center.char0.trivial.deg1`` claim tests
    each basis vector for centrality, not their span."""
    t.check_characteristic(char)
    field = exactalg.field_of_characteristic(char)
    claims = []
    cap = invariants.oracle_degree(t, max_degree)
    gens = charp.invariant_generators(t, fam, field)

    if not t.cartan:
        # Poisson center of the symmetric algebra of the nilradical
        prefix = f"{t.name}.audit.poisson-center.char{char}"
        if char:
            claims.append(
                rep.check(
                    f"{prefix}.gen-count",
                    f"the p-power generator list has {len(t.nilradical)} entries",
                    len(charp.sp_generators(t, char)) == len(t.nilradical),
                )
            )
        _reference_audit_invariant_generators(t, claims, prefix, gens, t.nilradical, "nilradical")
        results = invariants.oracle_suite(t, gens, range(1, cap + 1), field)[1]
        _reference_audit_completeness(claims, prefix, results, "degree-{degree} invariants (dim {oracle_dim}) all lie in the generated span")
        claims.append(
            _reference_asserted_generation(
                prefix,
                "the Poisson center",
                f"verified mechanically up to degree {cap}; higher degrees rest on the source's normality argument",
            )
        )

        # center of the enveloping algebra
        prefix = f"{t.name}.audit.u-center.char{char}"
        z_elements = pbw.p_center_elements(t, field, exempt=charp.c1_label(t)) if char else []
        for name in fam.central:
            lift, how = charp.central_lift(t, fam, name, field)
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
                    pbw.gr_leading(lift) == fam.element(name, field),
                )
            )
        _reference_audit_central_generators(t, claims, prefix, z_elements, t.nilradical)
        claims.append(
            _reference_asserted_generation(
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
                all(liealg.ad_power_identity(t, i, char).ok for i in range(t.dim)),
            )
        )
    derived_rank = linalg.rank((dict(entry) for entry in t.brackets.values()), QQ)
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
        _reference_audit_invariant_generators(t, claims, prefix, power_gens, all_idx, "Borel")
        results = invariants.oracle_suite(t, power_gens, range(1, min(bcap, char + 1) + 1), field, gens=all_idx)[1]
        _reference_audit_completeness(claims, prefix, results, "degree-{degree} Borel invariants (dim {oracle_dim}) equal the p-power span")
        claims.append(
            _reference_asserted_generation(prefix, "the Poisson center of the Borel", f"verified mechanically up to degree {min(bcap, char + 1)}")
        )
    else:
        for d in range(1, bcap + 1):
            dim = invariants.brute_force_invariant_space(t, d, all_idx, field)
            claims.append(
                rep.check(
                    f"{prefix}.trivial.deg{d}",
                    f"no nonconstant Borel-invariant polynomial exists in degree {d}",
                    not dim,
                    residual=f"dimension {dim}" if dim else None,
                )
            )
        claims.append(
            _reference_asserted_generation(prefix, "the (trivial) Poisson center of the Borel", f"verified mechanically up to degree {bcap}")
        )

    # semicenter of S(B): nilradical invariants with Cartan weights
    prefix = f"{t.name}.audit.semicenter.char{char}"
    if char:
        expected_count = len(nil_idx) + len(t.cartan)
        claims.append(
            rep.check(
                f"{prefix}.gen-count",
                f"the Borel-level p-power list has {expected_count} entries",
                len(charp.sp_generators(t, char)) == expected_count,
            )
        )
    _reference_audit_invariant_generators(t, claims, prefix, gens, nil_idx, "nilradical")
    for name, poly in gens:
        weights, bad = poisson.weight_of(t, poly)
        claims.append(
            rep.check(
                f"{prefix}.gen.{name}.weight-vector",
                f"generator {name} is a simultaneous Cartan eigenvector",
                weights is not None,
                witness=None if weights is not None else t.label(bad),
            )
        )
    for name, h_label in fam.nonzero_pairings:
        lam = poisson.cartan_eigenvalue(t, h_label, fam.element(name, field))
        claims.append(
            rep.check(
                f"{prefix}.pairing.{name}.{h_label}",
                f"{{{h_label}, {name}}} is a nonzero multiple of {name}",
                lam is not None and lam != field.zero,
                residual=None if lam is None else f"eigenvalue {lam}",
                witness="not an eigenvector" if lam is None else None,
            )
        )
    results = invariants.oracle_suite(t, gens, range(1, bcap + 1), field)[1]
    _reference_audit_completeness(claims, prefix, results, "degree-{degree} nilradical invariants of the Borel (dim {oracle_dim}) equal the generated span")
    claims.append(
        _reference_asserted_generation(prefix, "the Poisson semicenter of the Borel", f"verified mechanically up to degree {bcap}")
    )

    # center and semicenter of U(B)
    prefix = f"{t.name}.audit.u-center.char{char}"
    if char:
        central_elements = pbw.p_center_elements(t, field)
        claims.append(
            rep.check(
                f"{prefix}.gen-count",
                f"the extended p-center generator list has {t.dim} entries",
                len(central_elements) == t.dim,
            )
        )
        _reference_audit_central_generators(t, claims, prefix, central_elements, all_idx)
        claims.append(
            _reference_asserted_generation(prefix, "the center of the enveloping algebra of the Borel", "follows from the graded comparison")
        )
    else:
        claims.append(
            rep.check(
                f"{prefix}.trivial.deg1",
                "no degree-one element of the enveloping algebra is central",
                not [
                    i
                    for i in all_idx
                    if pbw.is_central_u(
                        t, pbw.PBWElement.variable(t.registry, field, i), all_idx
                    )[0]
                ],
            )
        )
        claims.append(
            _reference_asserted_generation(prefix, "the (trivial) center of the enveloping algebra of the Borel", "verified mechanically in filtration degree 1")
        )

    prefix = f"{t.name}.audit.u-semicenter.char{char}"
    for name in fam.central:
        lift, how = charp.central_lift(t, fam, name, field)
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
        ok, bad = pbw.is_central_u(t, lift, nil_idx)
        lams = [exactalg.eigenvalue(lift, pbw.commutator_with_basis(t, k, lift)) for k in t.cartan]
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
                pbw.gr_leading(lift) == fam.element(name, field),
            )
        )
    claims.append(
        _reference_asserted_generation(prefix, "the semicenter of the enveloping algebra of the Borel", "follows from the graded comparison")
    )
    return claims


# ---------------------------------------------------------------------------
# The identity suites with each claim rule written out: the references for
# the suites that build their claims from a residual (``report.identity``)
# and state the note and eigenvalue rules once (``report.check``,
# ``poisson.eigenvalue_claim``)
# ---------------------------------------------------------------------------


def reference_invariance_suite(t, fam, field=QQ):
    claims = []
    char = field.characteristic
    for name in fam.central:
        f = fam.element(name, field)
        for i in t.nilradical:
            g = poisson.ad_apply(t, i, f)
            claims.append(
                rep.check(
                    f"{t.name}.invariance.{name}.{t.label(i)}.char{char}",
                    f"{{{t.label(i)}, {name}}} = 0 over characteristic {char}",
                    g.is_zero,
                    residual=None if g.is_zero else str(g),
                )
            )
    return claims


def _reference_expected_poly(fam, field, spec):
    reg = fam.table.registry
    if spec is None:
        return Polynomial.zero(reg, field)
    coef, target = spec[0], spec[1]
    return fam.element(target, field).scale(coef)


def reference_relation_chain(t, fam, field=QQ):
    claims = []
    for elem in sorted(fam.chain):
        expect_map = fam.chain[elem]
        f = fam.element(elem, field)
        for i in t.nilradical:
            label = t.label(i)
            spec = expect_map.get(label)
            expected = _reference_expected_poly(fam, field, spec)
            got = poisson.ad_apply(t, i, f)
            residual = got - expected
            note = spec[2] if spec and len(spec) > 2 else None
            if spec:
                statement = f"{{{label}, {elem}}} = {spec[0]}*{spec[1]}"
            else:
                statement = f"{{{label}, {elem}}} = 0"
            claim_id = f"{t.name}.chain.{elem}.{label}"
            if residual.is_zero and note:
                claims.append(rep.Claim(claim_id, statement, rep.DERIVED_WITH_NOTE, note=note))
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
        if h_label not in t.registry:
            continue
        f = fam.element(elem, field)
        lam = poisson.cartan_eigenvalue(t, h_label, f)
        want = field.coerce(scalar)
        claims.append(
            rep.check(
                f"{t.name}.chain.weight.{elem}.{h_label}",
                f"{{{h_label}, {elem}}} = {scalar}*{elem}",
                lam is not None and lam == want,
                residual=None if lam is None or lam == want else f"eigenvalue {lam}",
                witness="not an eigenvector" if lam is None else None,
            )
        )
    return claims


def reference_triangle_property(t, fam, field=QQ):
    claims = []
    for vname, xlabel, cname in fam.triangle_cases:
        v = fam.element(vname, field)
        got = poisson.ad_apply(t, t.registry.index(xlabel), v.scale(-1))
        expected = Polynomial.zero(t.registry, field) if cname is None else fam.element(cname, field)
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


def reference_semicenter_witness_suite(t, fam, field=QQ):
    claims = []
    prefix = t.name
    for name in fam.central:
        f = fam.element(name, field)
        ok, bad = poisson.is_invariant(t, f, t.nilradical)
        claims.append(
            rep.check(
                f"{prefix}.weights.{name}.nil-invariant",
                f"{{x, {name}}} = 0 for every nilradical generator x",
                ok,
                witness=None if ok else t.label(bad),
            )
        )
        weights, failing = poisson.weight_of(t, f)
        if weights is None:
            claims.append(
                rep.Claim(
                    f"{prefix}.weights.{name}.eigenvector",
                    f"{name} is a simultaneous Cartan eigenvector",
                    rep.FAILED,
                    witness=t.label(failing),
                )
            )
            continue
        claims.append(
            rep.Claim(
                f"{prefix}.weights.{name}.eigenvector",
                f"{name} has Cartan weight ({', '.join(str(x) for x in weights)})",
                rep.VERIFIED,
            )
        )
    for elem, h_label, expected, note in fam.weight_expectations:
        f = fam.element(elem, field)
        lam = poisson.cartan_eigenvalue(t, h_label, f)
        want = field.coerce(expected)
        ok = lam is not None and lam == want
        claim_id = f"{prefix}.weights.{elem}.{h_label}"
        statement = f"{{{h_label}, {elem}}} = {expected}*{elem}"
        if ok and note:
            claims.append(rep.Claim(claim_id, statement, rep.DERIVED_WITH_NOTE, note=note))
        else:
            claims.append(
                rep.check(
                    claim_id,
                    statement,
                    ok,
                    residual=None if lam is None else f"eigenvalue {lam}",
                    witness=None if lam is not None else "not an eigenvector",
                    note=note,
                )
            )
    for elem, h_label in fam.nonzero_pairings:
        f = fam.element(elem, field)
        lam = poisson.cartan_eigenvalue(t, h_label, f)
        ok = lam is not None and lam != field.zero
        claims.append(
            rep.check(
                f"{prefix}.weights.{elem}.{h_label}.nonzero",
                f"{{{h_label}, {elem}}} is a nonzero multiple of {elem}",
                ok,
                residual=None if ok or lam is None else f"eigenvalue {lam}",
                witness="not an eigenvector" if lam is None else None,
            )
        )
    return claims


def reference_frobenius_membership_suite(t, fam, p):
    t.check_characteristic(p)
    field = GF(p)
    frob = {}

    def F(name):
        if name not in frob:
            frob[name] = frobenius_expand(fam.element(name, field), p)
        return frob[name]

    exempt = (charp.c1_label(t),)
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
        lhs = F(name) - invariants.compose(terms, F)
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


def reference_jacobian_records_suite(t, fam, p=3):
    """The one loop over ``InvariantFamily.jacobians`` with the literal
    claim's verdict and residual written out; ``reference_jacobian_identity_suite``
    above is the older per-family form."""
    jac = fam.jacobians
    if jac is None:
        return []
    claims = []
    field = GF(p)
    named = fam.elements()
    neg_cs = [-named[c] for c in jac.cs]
    neg_frob = [-frobenius_expand(fam.element(c, field), p) for c in jac.cs]
    for vars_, coef, factors in jac.identities:
        rhs = Polynomial.constant(t.registry, QQ, coef)
        for n, k in factors:
            rhs = rhs * (named.get(n) or Polynomial.variable(t.registry, QQ, n)) ** k
        lhs = jacobian_det(neg_cs, vars_)
        claim_id = f"{t.name}.jacobians.{jac.kind}.{'-'.join(vars_)}"
        rhs_str = f"{coef}*" + "*".join(f"{n}^{k}" if k > 1 else n for n, k in factors)
        statement = jac.statement.format(vars=",".join(vars_), rhs=rhs_str)
        claims.append(charp._signed_claim(claim_id, statement, lhs, rhs, jac.word))
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


def reference_p_center_suite(t, p):
    t.check_characteristic(p)
    claims = []
    for name, elt in pbw.p_center_elements(t, GF(p)):
        for g in range(t.dim):
            com = pbw.commutator_with_basis(t, g, elt)
            claims.append(
                rep.check(
                    f"{t.name}.pcenter.p{p}.{name}.{t.label(g)}",
                    f"[{t.label(g)}, {name}] = 0 in the enveloping algebra over GF({p})",
                    com.is_zero,
                    residual=None if com.is_zero else str(com),
                )
            )
    for i in range(t.dim):
        res = liealg.ad_power_identity(t, i, p)
        statement = (
            f"(ad {res.label})^{p} = ad {res.label} over GF({p})"
            if res.kind == "cartan"
            else f"(ad {res.label})^{p} = 0 over GF({p})"
        )
        claims.append(rep.check(f"{t.name}.pcenter.p{p}.adpower.{res.label}", statement, res.ok))
    return claims
