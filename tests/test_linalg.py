"""Exact matrix helpers: products, involution transpose, inversion, ranks."""

import cmath
import hashlib
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from braidhom import braid
from braidhom.fields import (
    POWER_BITS_BUDGET,
    POWER_CHAIN_LIMIT,
    ComplexApprox,
    IntegersModP,
    Rationals,
)
from braidhom.linalg import (
    as_matrix,
    identity,
    invert,
    mat_alpha,
    mat_eq,
    mat_mul,
    rank,
    specialize_matrix,
    transpose,
)
from braidhom.ring import Integers, LaurentRing, apply_column_plans, column_plan

ZZ = LaurentRing(2, Integers(), ("x", "d"))
X, D = ZZ.var("x"), ZZ.var("d")
QQ = LaurentRing(2, Rationals(), ("x", "d"))
F7 = LaurentRing(2, IntegersModP(7), ("x", "d"))
CC = LaurentRing(2, ComplexApprox(), ("x", "d"))


def reference_mat_mul(a, b):
    """Entry-by-entry product through the ring operators: a test oracle.

    Each entry is a chain of GroupRingElement `*` and `+`, so the oracle shares
    only the term arithmetic of one product and one sum with mat_mul (checked
    against ring identities in test_ring.py), not the accumulation, the zero
    skipping or the per-matrix ring check.
    """
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return tuple(tuple(_reference_dot(row, col) for col in zip(*b)) for row in a)


def _reference_dot(row, col):
    total = row[0] * col[0]
    for r, c in zip(row[1:], col[1:]):
        total = total + r * c
    return total


COEFFICIENTS = {
    ZZ: st.integers(-4, 4),
    QQ: st.fractions(min_value=-3, max_value=3, max_denominator=4),
    F7: st.integers(-10, 10),
    CC: st.builds(complex, st.integers(-8, 8).map(lambda v: v / 4),
                  st.just(-0.0) | st.integers(-8, 8).map(lambda v: v / 4)),
}


@st.composite
def matrices(draw, ring, rows, cols, sparse=False):
    """Sparse matrices with negative exponents and one optional all-zero row and column.

    With `sparse`, at most a fifth of the entries are drawn at all: the rest are zero.
    """
    entry = st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), COEFFICIENTS[ring], max_size=3
    ).map(ring.element)
    if sparse:
        cells = [[ring.zero] * cols for _ in range(rows)]
        positions = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for i, j in draw(st.sets(positions, max_size=rows * cols // 5)):
            cells[i][j] = draw(entry)
    else:
        cells = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero_row = draw(st.integers(0, rows))
    zero_col = draw(st.integers(0, cols))
    return as_matrix(
        [ring.zero if i == zero_row or j == zero_col else x for j, x in enumerate(row)]
        for i, row in enumerate(cells)
    )


def random_unimodular(ring, size, rng, steps=6):
    # Product of elementary row operations: unit determinant by construction.
    rows = [list(row) for row in identity(ring, size)]
    units = [ring.one, -ring.one, ring.var("x"), ring.var("d") ** -1]
    for _ in range(steps):
        a, b = rng.randrange(size), rng.randrange(size)
        if a == b:
            continue
        factor = rng.choice(units) * rng.randint(-2, 2)
        rows[a] = [ra + factor * rb for ra, rb in zip(rows[a], rows[b])]
    return as_matrix(rows)


def test_mat_mul_and_identity():
    a = as_matrix([[X, ZZ.one], [ZZ.zero, D]])
    assert mat_eq(mat_mul(a, identity(ZZ, 2)), a)
    assert mat_eq(mat_mul(identity(ZZ, 2), a), a)
    b = as_matrix([[ZZ.one], [X]])
    product = mat_mul(a, b)
    assert product == ((X + X,), (D * X,))


def test_mat_mul_shape_check():
    a = as_matrix([[X, ZZ.one]])
    with pytest.raises(ValueError):
        mat_mul(a, a)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([ZZ, QQ, F7, CC]),
       st.integers(1, 4), st.integers(1, 5), st.integers(1, 4))
def test_mat_mul_matches_reference(data, ring, rows, inner, cols):
    sparse = data.draw(st.booleans())  # at least 80% zero entries, in larger matrices
    if sparse:
        rows, inner, cols = 2 * rows, 2 * inner, 2 * cols
    a = data.draw(matrices(ring, rows, inner, sparse))
    b = data.draw(matrices(ring, inner, cols, sparse))
    if data.draw(st.booleans()):  # a column of the identity: copied over ZZ and QQ only
        j, k = data.draw(st.integers(0, cols - 1)), data.draw(st.integers(0, inner - 1))
        b = as_matrix([ring.one if (r, c) == (k, j) else ring.zero if c == j else x
                       for c, x in enumerate(row)] for r, row in enumerate(b))
    product = mat_mul(a, b)
    expected = reference_mat_mul(a, b)
    assert len(product) == rows and all(len(row) == cols for row in product)
    assert product == expected
    # Bit for bit, in the same term order: specialize sums terms in dict order, and
    # under CC a product with 1 turns a -0.0 imaginary part into 0.0 (a copy would not).
    assert [[repr(list(x.terms.items())) for x in row] for row in product] == \
        [[repr(list(x.terms.items())) for x in row] for row in expected]


def test_mat_mul_rejects_mixed_rings():
    a = as_matrix([[X, ZZ.one], [ZZ.zero, D]])
    b = as_matrix([[QQ.one, QQ.zero], [QQ.var("x"), QQ.one]])
    with pytest.raises(ValueError):
        mat_mul(a, b)
    with pytest.raises(ValueError):
        mat_mul(as_matrix([[X, QQ.one]]), identity(ZZ, 2))
    with pytest.raises(ValueError):
        invert(a, QQ)


def _term_lists(matrix):
    return [[repr(list(x.terms.items())) for x in row] for row in matrix]


@st.composite
def plan_cases(draw):
    """(a, b, third) over one ring, for `a` times `b` times `third`.

    Some columns of b are columns of the identity, left out of the plan over
    ZZ and QQ when the 1 is in the column's own row; others hold one-term
    entries, shifted and scaled over ZZ and QQ.
    """
    ring = draw(st.sampled_from([ZZ, QQ, F7, CC]))
    rows, inner, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    a = draw(matrices(ring, rows, inner))
    b = draw(matrices(ring, inner, cols))
    kinds = draw(st.lists(st.sampled_from(["any", "one-term", "unit"]),
                          min_size=cols, max_size=cols))
    one_term = st.sampled_from([ring.one, -ring.one, ring.var("x"), -ring.monomial((0, 2)),
                                ring.monomial((-1, 1), 3)])

    def cell(r, c, x):
        if kinds[c] == "unit":
            return ring.one if r == c % inner else ring.zero
        return draw(one_term) if kinds[c] == "one-term" and not x.is_zero() else x

    b = as_matrix([cell(r, c, x) for c, x in enumerate(row)] for r, row in enumerate(b))
    third = draw(matrices(ring, cols, draw(st.integers(1, 4))))
    return a, b, third


# (a, b, third) as text, with {c} a coefficient other than 1 and -1.  In
# b, a "square", "wide" and "tall" plan each have a column whose one nonzero is
# a 1 in its own row, which plans over ZZ and QQ leave out.  In "cancel", the
# first two products in each of the first two columns cancel, so a later entry
# lands on an empty accumulator and becomes it: one-term entries (1, -1, then a
# shift) in column 0, full products in column 1.  Column 2 scales by {c}.
PLAN_CASES = {
    "square": ([["x + {c}*d", "1 - x^-1", "{c}"], ["0", "x*d - 1", "d^2"]],
               [["1", "x", "0"], ["0", "1 + d", "0"], ["0", "-x^2", "1"]],
               [["1", "d"], ["x", "0"], ["0", "1"]]),
    "wide": ([["x - {c}", "d"], ["1", "x^-1 + d"]],
             [["1", "0", "x", "0"], ["0", "1", "x + d", "-1"]],
             [["x"], ["1"], ["0"], ["{c}*d"]]),
    "tall": ([["x", "1 + d", "{c}", "x^-1"]],
             [["1", "0"], ["0", "1"], ["x", "0"], ["d", "0"]],
             [["1", "x"], ["0", "1"]]),
    "cancel": ([["x + 1", "x + 1", "d - {c}"], ["x", "x", "x"]],
               [["1", "x + d", "1"], ["-1", "-x - d", "{c}*d"], ["x^-1*d", "1 - d", "0"]],
               [["1"], ["x"], ["d"]]),
}


def plan_case(ring, name):
    c = "2/3" if ring is QQ else "3"
    return tuple(as_matrix([ring.parse(text.format(c=c)) for text in row] for row in rows)
                 for rows in PLAN_CASES[name])


@settings(max_examples=150, deadline=None)
@given(plan_cases())
@example(plan_case(ZZ, "square"))
@example(plan_case(ZZ, "wide"))
@example(plan_case(ZZ, "tall"))
@example(plan_case(ZZ, "cancel"))
@example(plan_case(QQ, "square"))
@example(plan_case(QQ, "wide"))
@example(plan_case(QQ, "tall"))
@example(plan_case(QQ, "cancel"))
def test_column_plans_match_mat_mul(case):
    """Plans, one and chained, against the reference product (mat_mul is the plans)."""
    a, b, third = case
    product, expected = apply_column_plans(a, [column_plan(b)]), reference_mat_mul(a, b)
    assert product == expected
    assert _term_lists(product) == _term_lists(expected)
    chained = apply_column_plans(a, [column_plan(b), column_plan(third)])
    assert _term_lists(chained) == _term_lists(reference_mat_mul(expected, third))


def _assert_two_entry_kinds(matrix):
    """Over ZZ and QQ a one-term entry with coefficient 1 or -1 is planned as a shift,
    (row, packed key, coefficient, None); every other listed entry is a full product."""
    native = isinstance(matrix[0][0].ring.coefficients, (Integers, Rationals))
    for j, col in column_plan(matrix)[3]:
        for i, shift, c, g in col:
            terms = matrix[i][j].terms
            if native and len(terms) == 1 and next(iter(terms.values())) in (1, -1):
                assert g is None and {shift: c} == terms
            else:
                assert (shift, c, g) == (0, 1, terms)


@settings(max_examples=50, deadline=None)
@given(plan_cases())
@example(plan_case(ZZ, "square"))
@example(plan_case(ZZ, "cancel"))
@example(plan_case(QQ, "wide"))
@example(plan_case(QQ, "cancel"))
def test_plan_entries_are_unit_shifts_or_full_products(case):
    for matrix in case:
        _assert_two_entry_kinds(matrix)


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_plan_cases_scale_only_by_full_products(ring):
    """Each {c} entry of PLAN_CASES is a full product, and the drawn 3*x^-1*d is one."""
    planned = 0
    for name, texts in PLAN_CASES.items():
        for matrix, rows in zip(plan_case(ring, name), texts):
            entries = {(i, j): (shift, c, g) for j, col in column_plan(matrix)[3]
                       for i, shift, c, g in col}
            for i, row in enumerate(rows):
                for j, text in enumerate(row):
                    if "{c}" in text:
                        assert entries[i, j] == (0, 1, matrix[i][j].terms)
                        planned += 1
    assert planned == 7
    scaled = ring.monomial((-1, 1), 3)
    ((_, (entry,)),) = column_plan(as_matrix([[scaled]]))[3]
    assert entry == (0, 0, 1, scaled.terms)


@pytest.mark.parametrize("m", [1, 2])
def test_letter_plans_shift_every_one_term_table_entry(m):
    """Every one-term entry of a generator or inverse with n <= 8 is 1 or -1 times a
    monomial, so its letter plan shifts by it and multiplies by no one-term entry."""
    for n in range(2, 9):
        for i in range(1, n):
            for letter in (i, -i):
                _assert_two_entry_kinds(braid._generator_entries(n, letter, m))
                for _, col in braid._letter_plan(n, letter, m)[3]:
                    assert all(g is None or len(g) > 1 for _, _, _, g in col)


@pytest.mark.parametrize("ring", [ZZ, QQ, F7, CC])
def test_column_plans_list_the_columns_they_write(ring):
    """Over ZZ and QQ a plan leaves out each column whose one nonzero is a 1 in its own row."""
    listed = {name: [j for j, _ in column_plan(plan_case(ring, name)[1])[3]] for name in PLAN_CASES}
    if ring in (ZZ, QQ):
        assert listed == {"square": [1], "wide": [2, 3], "tall": [0], "cancel": [0, 1, 2]}
    else:
        assert listed == {"square": [0, 1, 2], "wide": [0, 1, 2, 3], "tall": [0, 1],
                          "cancel": [0, 1, 2]}


def test_column_plans_refuse_other_rings_and_shapes():
    with pytest.raises(ValueError):
        apply_column_plans(identity(ZZ, 2), [column_plan(identity(ZZ, 3))])
    other = LaurentRing(2, Integers(), ("x", "t"))
    with pytest.raises(ValueError):
        apply_column_plans(identity(ZZ, 2), [column_plan(identity(other, 2))])


def test_ragged_factors_are_refused():
    u = ZZ.var("x")
    square, ragged = as_matrix([[u, u], [u, u]]), as_matrix([[u], [u, u]])
    calls = [
        lambda: mat_mul(as_matrix([[u, u]]), ragged),  # was a 1x1 product
        lambda: mat_mul(ragged, square),
        lambda: mat_mul((), ragged),
        lambda: mat_mul(as_matrix([[u, u]]), as_matrix([[], [u]])),
        lambda: apply_column_plans(ragged, [column_plan(square)]),
        lambda: apply_column_plans(square, [column_plan(ragged)]),
        lambda: column_plan(as_matrix([[u, u], [u]])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^ragged matrix: rows of lengths \[\d, \d\]$"):
            call()


@pytest.mark.parametrize("k", [Integers(), Rationals(), IntegersModP(7), ComplexApprox()])
def test_rank_refuses_ragged_sequence_rows(k):
    for rows in ([[1, 2], [3]], [[1], [0, 1], [1]], [[], [1]]):  # the first had rank 2
        with pytest.raises(ValueError, match=r"^ragged matrix: rows of lengths \[\d, \d\]$"):
            rank(rows, k)
    # map rows name their columns, so they mix with sequences of any one length
    assert rank([{0: k.one}, [0, 0, 1], {5: k.one}], k) == 3


@pytest.mark.parametrize("ring", [ZZ, CC])
def test_mat_mul_with_no_columns_gives_empty_rows(ring):
    a = as_matrix([[ring.one, ring.var("x")], [ring.zero, ring.one]])
    assert mat_mul(a, as_matrix([[], []])) == ((), ())
    assert mat_mul(as_matrix([[], [], []]), ()) == ((), (), ())


@pytest.mark.parametrize("ring", [ZZ, CC])
def test_mat_mul_with_no_rows_gives_no_rows(ring):
    assert mat_mul((), identity(ring, 2)) == ()
    assert mat_mul((), ()) == ()
    with pytest.raises(ValueError):  # the right factor's ring is still checked
        mat_mul((), as_matrix([[ring.one, LaurentRing(1, Integers()).one]]))


def test_transpose_and_alpha():
    a = as_matrix([[X, ZZ.one + D], [ZZ.zero, X ** -2]])
    assert transpose(transpose(a)) == a
    twisted = mat_alpha(a)
    assert twisted[0][0] == X ** -1
    assert twisted[0][1] == ZZ.one + D ** -1
    assert mat_alpha(twisted) == a


def test_invert_unimodular_matrices():
    rng = random.Random(8)
    for size in (1, 2, 3, 4):
        for _ in range(5):
            a = random_unimodular(ZZ, size, rng)
            inverse = invert(a, ZZ)
            assert mat_eq(reference_mat_mul(a, inverse), identity(ZZ, size))
            assert mat_eq(mat_mul(a, inverse), identity(ZZ, size))
            assert mat_eq(mat_mul(inverse, a), identity(ZZ, size))


def test_invert_keeps_its_term_order():
    # Specializations sum an entry's terms in dict order.  Each entry update adds its
    # two products in one order, which this digest of a seeded batch freezes.
    rng = random.Random(24)
    digest = hashlib.md5()
    for k in (Integers(), Rationals(), IntegersModP(7)):
        ring = LaurentRing(2, k, ("x", "d"))
        for size in (2, 3, 4):
            for _ in range(8):
                inverse = invert(random_unimodular(ring, size, rng, steps=10), ring)
                digest.update(repr([[list(e.terms.items()) for e in row]
                                    for row in inverse]).encode())
    assert digest.hexdigest() == "4654497c8c39165229818b858b455f6f"


def test_invert_rejects_non_unit_determinant():
    a = as_matrix([[ZZ.one + X, ZZ.zero], [ZZ.zero, ZZ.one]])
    with pytest.raises(ValueError):
        invert(a, ZZ)


def reference_specialize(a, assignments, target):
    """Entry by entry, each checking its variables, coercing the values and taking
    every power afresh: a test oracle.

    The order of operations is the contract specialize_matrix keeps: the
    coefficient first, then the powers in variable order, then a sum from
    target.zero in dict term order; a total target.is_zero calls zero becomes
    target.zero.
    """
    out = []
    for row in a:
        out_row = []
        for x in row:
            missing = set(x.ring.variables) - set(assignments)
            if missing:
                raise ValueError(f"unassigned variables: {sorted(missing)}")
            values = [target.coerce(assignments[v]) for v in x.ring.variables]
            total = target.zero
            for key, coeff in x.terms.items():
                term = target.coerce(coeff)
                for value, e in zip(values, x.ring._unpack(key)):
                    term = target.mul(term, target.power(value, e))
                total = target.add(total, term)
            out_row.append(target.zero if target.is_zero(total) else total)
        out.append(out_row)
    return out


NONZERO_FLOATS = st.floats(0.125, 4).flatmap(lambda v: st.sampled_from([v, -v]))
POINTS = {
    Rationals(): st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    IntegersModP(7): st.integers(1, 6),
    ComplexApprox(): st.builds(complex, NONZERO_FLOATS, NONZERO_FLOATS | st.just(-0.0)),
}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(list(POINTS)), st.integers(1, 4), st.integers(1, 5))
def test_specialize_matrix_matches_reference(data, target, rows, cols):
    a = data.draw(matrices(ZZ, rows, cols))
    point = {"x": data.draw(POINTS[target]), "d": data.draw(POINTS[target])}
    values = specialize_matrix(a, point, target)
    # repr, so complex values agree bit for bit (0.0 and -0.0 compare equal).
    assert repr(values) == repr(reference_specialize(a, point, target))
    # Entry by entry, each a 1x1 matrix, the values are the same.
    assert [[specialize_matrix([[x]], point, target)[0][0] for x in row] for row in a] == values
    if isinstance(target, Rationals):  # an oracle that shares no code: sympy's subs
        x, d = sympy.symbols("x d")
        at = {x: sympy.Rational(str(point["x"])), d: sympy.Rational(str(point["d"]))}
        expected = [[sum((c * x**i * d**j for (i, j), c in e.items()), sympy.Integer(0)).subs(at)
                     for e in row] for row in a]
        assert [[sympy.Rational(str(v)) for v in row] for row in values] == expected


SIGNED_ZERO_UNITS = (complex(0.0, 1), complex(-0.0, 1), complex(1, 0.0), complex(1, -0.0),
                     complex(-0.0, -2), complex(-2, -0.0))
SOURCES = {  # source coefficients, and the targets they coerce into
    ZZ: (st.integers(-4, 4).filter(bool), list(POINTS)),
    QQ: (st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
         [Rationals(), ComplexApprox()]),
    F7: (st.integers(1, 6), list(POINTS)),
    CC: (st.sampled_from(SIGNED_ZERO_UNITS), [ComplexApprox()]),
}
EXPONENT_SETS = (tuple(range(-2, 3)), (-9, -4, -1), (0, 3, 11))  # gaps, and negative only


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(list(SOURCES)), st.sampled_from(EXPONENT_SETS),
       st.integers(1, 4), st.integers(1, 5))
def test_specialize_matrix_memo_is_invisible(data, ring, exponents, rows, cols):
    """Repeated one-term entries, with the same and with different coefficients, give
    the reference's values bit for bit: a one-term entry is evaluated once per call."""
    coefficients, targets = SOURCES[ring]
    target = data.draw(st.sampled_from(targets))
    keys = data.draw(st.lists(st.tuples(st.sampled_from(exponents), st.sampled_from(exponents)),
                              min_size=1, max_size=3))
    coeffs = data.draw(st.lists(coefficients, min_size=1, max_size=3))
    one_term = st.tuples(st.sampled_from(keys), st.sampled_from(coeffs)).map(
        lambda kc: ring.element({kc[0]: kc[1]}))
    several = st.dictionaries(st.tuples(st.sampled_from(exponents), st.sampled_from(exponents)),
                              coefficients, min_size=2, max_size=3).map(ring.element)
    cell = one_term | one_term | several | st.just(ring.zero)
    a = as_matrix([[data.draw(cell) for _ in range(cols)] for _ in range(rows)])
    point = {"x": data.draw(POINTS[target]), "d": data.draw(POINTS[target])}
    assert repr(specialize_matrix(a, point, target)) == repr(reference_specialize(a, point, target))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(list(POINTS)), st.integers(-12, 12))
def test_powers_match_repeated_products(data, k, e):
    """target.power, which reference_specialize calls, against repeated `*` and sympy."""
    v = data.draw(POINTS[k])
    if isinstance(k, IntegersModP):
        base, one = (v if e >= 0 else next(u for u in range(1, k.p) if u * v % k.p == 1)), 1
        product = one
        for _ in range(abs(e)):
            product = product * base % k.p
    else:
        base, one = (v if e >= 0 else 1 / v), (Fraction(1) if k.is_exact else complex(1))
        product = one
        for _ in range(abs(e)):
            product = product * base
    assert repr(k.power(v, e)) == repr(product)
    if isinstance(k, Rationals):
        assert sympy.Rational(str(k.power(v, e))) == sympy.Rational(str(v)) ** e


def test_specialize_matrix_is_the_ring_evaluator():
    import braidhom.fields

    assert specialize_matrix is braidhom.fields.specialize_matrix


def test_specialize_matrix_refusals():
    for target, zero in ((Rationals(), 0), (IntegersModP(7), 7), (ComplexApprox(), 0j)):
        with pytest.raises(ValueError):
            specialize_matrix(as_matrix([[X, X**-1]]), {"x": zero, "d": 1}, target)
    with pytest.raises(ValueError, match="unassigned variables"):
        specialize_matrix(as_matrix([[X]]), {"x": 2}, Rationals())
    with pytest.raises(ValueError, match="ring context mismatch"):
        specialize_matrix(as_matrix([[X, QQ.var("x")]]), {"x": 2, "d": 3}, Rationals())


LINE = LaurentRing(1, Integers(), ("x",))


def _power_at(e, value, target):
    ((result,),) = specialize_matrix(((LINE.monomial((e,)),),), {"x": value}, target)
    return result


def test_specialization_refuses_powers_past_the_work_budget():
    huge = LINE.element({(2_000_000_000,): 1, (0,): -1})
    for value, target, limit in ((Fraction(1, 3), Rationals(), POWER_BITS_BUDGET // 2),
                                 (2, Integers(), POWER_BITS_BUDGET // 2),
                                 (0.7648 + 0.6442j, ComplexApprox(), POWER_CHAIN_LIMIT),
                                 (1.0, ComplexApprox(), POWER_CHAIN_LIMIT)):
        with pytest.raises(ValueError, match=f"past the work budget .* admits \\|e\\| <= {limit} "):
            specialize_matrix(((huge,),), {"x": value}, target)
    # F_p takes powers with pow, and 0, 1 and -1 are their own powers: no budget, over Z as
    # over Q.
    p = 1_000_003
    assert specialize_matrix(((huge,),), {"x": 3}, IntegersModP(p)) == [[(pow(3, 2_000_000_000, p) - 1) % p]]
    for value in (1, -1, 0):
        for target in (Rationals(), Integers()):
            assert _power_at(2_000_000_000, value, target) == value ** 2_000_000_000


def test_an_integer_power_within_the_budget_is_one_exact_power():
    # 3^500000, about 790,000 bits: Python's ** takes milliseconds, where a chain of
    # 500,000 products took about 5 s.
    start = time.perf_counter()
    assert _power_at(500_000, 3, Integers()) == 3 ** 500_000
    assert time.perf_counter() - start < 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_and_rational_specializations_agree_at_integer_points(data):
    # Negative exponents need a unit of Z, so they appear only when x and d are +-1.
    point = {v: data.draw(st.integers(-4, 4)) for v in ("x", "d")}
    low = -3 if all(abs(value) == 1 for value in point.values()) else 0
    entry = st.dictionaries(st.tuples(st.integers(low, 3), st.integers(low, 3)),
                            st.integers(-9, 9), max_size=4).map(ZZ.element)
    a = as_matrix(data.draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=1,
                                     max_size=3)))
    over_z = specialize_matrix(a, point, Integers())
    assert all(type(value) is int for row in over_z for value in row)
    assert over_z == specialize_matrix(a, point, Rationals())


def test_specialization_at_the_work_budget():
    # 1/3 and 3 have 2 bits a factor, so |e| may reach half the bit budget and no further.
    at = POWER_BITS_BUDGET // 2
    assert _power_at(at, Fraction(1, 3), Rationals()) == Fraction(1, 3**at)
    assert _power_at(-at, 3, Rationals()) == Fraction(1, 3**at)
    for e in (at + 1, -at - 1):
        with pytest.raises(ValueError, match=f"which admits \\|e\\| <= {at} here"):
            _power_at(e, Fraction(1, 3), Rationals())
    # A chain of POWER_CHAIN_LIMIT products is at the limit; rounding accumulates along it.
    z = cmath.exp(1e-3j)
    assert abs(_power_at(POWER_CHAIN_LIMIT, z, ComplexApprox()) - cmath.exp(1e3j)) < 1e-6
    with pytest.raises(ValueError, match=f"which admits \\|e\\| <= {POWER_CHAIN_LIMIT} here"):
        _power_at(POWER_CHAIN_LIMIT + 1, z, ComplexApprox())


def test_specialize_matrix_values():
    a = as_matrix([[X + D, ZZ.one], [X * D, ZZ.zero]])
    values = specialize_matrix(a, {"x": 2, "d": 3}, Rationals())
    assert values == [[Fraction(5), Fraction(1)], [Fraction(6), Fraction(0)]]


def test_rank_exact_known_cases():
    assert rank([], Rationals()) == 0
    assert rank([[Fraction(0), Fraction(0)]], Rationals()) == 0
    assert rank([[1, 2], [2, 4]], Rationals()) == 1
    assert rank([[1, 2], [3, 4]], Rationals()) == 2


def test_rank_exact_invariant_under_row_ops():
    rng = random.Random(9)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
        r = rank(rows, Rationals())
        a, b = rng.randrange(3), rng.randrange(3)
        if a != b:
            rows[a] = [x + 2 * y for x, y in zip(rows[a], rows[b])]
        assert rank(rows, Rationals()) == r


def test_rank_numeric_thresholds():
    assert rank([], ComplexApprox(1e-9)) == 0
    assert rank([[1.0, 2.0], [2.0, 4.0]], ComplexApprox(1e-9)) == 1
    assert rank([[1.0, 2.0], [2.0, 4.0 + 1e-13]], ComplexApprox(1e-9)) == 1
    assert rank([[1.0, 0.0], [0.0, 1e-3]], ComplexApprox(1e-9)) == 2


TURN = cmath.exp(0.7j)


def _sympy_rank(rows, k):
    """The oracle: sympy's rank of the exact matrix, over GF(p) for a finite field."""
    if isinstance(k, IntegersModP):
        return DomainMatrix.from_list(rows, sympy.GF(k.p)).rank()
    return sympy.Matrix(rows).rank()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([Rationals(), IntegersModP(7), IntegersModP(1_000_003),
                                   ComplexApprox()]),
       st.integers(1, 6), st.integers(1, 8), st.integers(1, 6))
def test_rank_matches_sympy_on_products(data, k, rows, cols, inner):
    # A (rows x inner) times B (inner x cols) has rank at most inner.
    gaussian = isinstance(k, ComplexApprox)
    entry = (st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)) if gaussian
             else st.integers(-3, 3))
    a = data.draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=inner, max_size=inner))
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    if not gaussian:
        assert rank(product, k) == _sympy_rank(product, k)
        return
    exact = [[int(z.real) + int(z.imag) * sympy.I for z in row] for row in product]
    turned = [[z * TURN for z in row] for row in product]
    tiny = [[z * 1e-12 for z in row] for row in turned]
    assert rank(turned, k) == rank(tiny, k) == _sympy_rank(exact, k)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("nan"))])
def test_rank_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        rank([[1.0, 2.0], [bad, 0.5]], ComplexApprox())


def _sparse_rows(data, rows, cols, entry):
    """A rows x cols list matrix with a sixth to a third of its entries drawn, the rest 0."""
    cells = [[0] * cols for _ in range(rows)]
    positions = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    size = rows * cols
    for i, j in data.draw(st.sets(positions, min_size=max(1, size // 6),
                                  max_size=max(1, size // 3))):
        cells[i][j] = data.draw(entry)
    return cells


def _low_rank(data, rows, cols, inner, entry):
    """A product through `inner` (so of rank at most inner), then some rows and columns zeroed."""
    if inner:
        a, b = _sparse_rows(data, rows, inner, entry), _sparse_rows(data, inner, cols, entry)
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    else:
        product = [[0] * cols for _ in range(rows)]
    zero_rows = data.draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = data.draw(st.sets(st.integers(0, cols - 1), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(product)]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([Rationals(), IntegersModP(2), IntegersModP(7),
                                   IntegersModP(1_000_003)]),
       st.integers(1, 10), st.integers(1, 10), st.integers(0, 5))
def test_rank_matches_sympy_on_sparse_matrices(data, k, rows, cols, inner):
    if isinstance(k, Rationals):
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    else:  # residues and their lifts: entries p and -p are zero mod p
        entry = st.integers(-3, 3).filter(bool) | st.sampled_from([k.p, -k.p, k.p + 1])
    values = _low_rank(data, rows, cols, inner, entry)
    exact = [[sympy.Rational(v.numerator, v.denominator) if isinstance(v, Fraction) else v
              for v in row] for row in values]
    expected = _sympy_rank(exact, k)
    assert expected <= inner
    assert rank(values, k) == expected


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 8), st.integers(1, 8), st.integers(0, 4))
def test_complex_rank_with_signed_zeros_matches_the_exact_rank(data, rows, cols, inner):
    gaussian = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
    values = _low_rank(data, rows, cols, inner, gaussian)
    exact = [[int(z.real) + int(z.imag) * sympy.I for z in row] for row in values]
    signed_zero = st.sampled_from([0.0, -0.0])
    # Every zero part, of a zero entry or of a nonzero one, gets a drawn sign.
    values = [[complex(v.real or data.draw(signed_zero), v.imag or data.draw(signed_zero))
               for v in row] for row in values]
    expected = _sympy_rank(exact, ComplexApprox())
    assert rank(values, ComplexApprox()) == expected
    assert rank([[v * 1e-12 for v in row] for row in values], ComplexApprox()) == expected


def _rank_or_refusal(rows, k):
    try:
        return rank(rows, k)
    except ValueError as error:
        return str(error)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([Rationals(), IntegersModP(7), IntegersModP(1_000_003),
                                   ComplexApprox()]),
       st.integers(1, 8), st.integers(1, 8), st.integers(0, 4))
def test_rank_on_map_rows_equals_rank_on_dense_rows(data, k, rows, cols, inner):
    """Rows given as maps of their nonzero values of k, as `homology_ranks_at` passes them."""
    if isinstance(k, Rationals):
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    elif isinstance(k, IntegersModP):  # lifts: entries p and -p are zero mod p
        entry = st.integers(-3, 3).filter(bool) | st.sampled_from([k.p, -k.p, k.p + 1])
    else:
        entry = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
    values = _low_rank(data, rows, cols, inner, entry)
    if not k.is_exact and data.draw(st.booleans()):  # a non-finite entry, which both refuse
        i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        values[i][j] = data.draw(st.sampled_from([complex(float("nan"), 0),
                                                  complex(float("inf"), 1),
                                                  complex(1, float("nan"))]))
    maps = [{j: c for j, v in enumerate(row) if (c := k.coerce(v))} for row in values]
    assert _rank_or_refusal(maps, k) == _rank_or_refusal(values, k)


def _dense_rank(rows, p=0):
    """The oracle: textbook dense elimination over Fractions, or over residues mod p."""
    m = [[Fraction(v) if not p else v % p for v in row] for row in rows]
    count = 0
    for col in range(len(m[0]) if m else 0):
        i = next((i for i in range(count, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[count], m[i] = m[i], m[count]
        top = m[count]
        for row in m[count + 1:]:
            if row[col]:
                f = row[col] * pow(top[col], -1, p) % p if p else row[col] / top[col]
                row[:] = [(x - f * y) % p if p else x - f * y for x, y in zip(row, top)]
        count += 1
    return count


HUGE = 10**40


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([Rationals(), Integers(), IntegersModP(2), IntegersModP(3),
                                   IntegersModP(7), IntegersModP(1_000_003)]),
       st.integers(1, 7), st.integers(1, 7), st.integers(0, 4))
def test_exact_rank_matches_a_dense_elimination(data, k, rows, cols, inner):
    """Integer rows (Q and Z) and residues (F_p) against an oracle sharing no code with rank."""
    if isinstance(k, Rationals):  # large denominators and numerators, and plain ints
        entry = (st.fractions(min_value=-HUGE, max_value=HUGE, max_denominator=HUGE)
                 | st.integers(-HUGE, HUGE) | st.integers(-3, 3)).filter(bool)
    elif isinstance(k, Integers):
        entry = (st.integers(-HUGE, HUGE) | st.integers(-3, 3)).filter(bool)
    else:  # residues and lifts, p and -p among them
        entry = (st.integers(-3 * k.p, 3 * k.p) | st.sampled_from([k.p, -k.p, k.p + 1])
                 ).filter(bool)
    values = _low_rank(data, rows, cols, inner, entry)
    p = getattr(k, "p", 0)
    expected = _dense_rank(values, p)
    assert rank(values, k) == expected
    maps = [{j: v % p if p else v for j, v in enumerate(row) if (v % p if p else v)}
            for row in values]
    assert rank(maps, k) == expected


@pytest.mark.parametrize("k", [Rationals(), Integers()])
def test_a_float_in_an_exact_rank_is_a_type_error(k):
    with pytest.raises(TypeError):
        rank([[1, 2], [0.5, 3]], k)
    with pytest.raises(TypeError):
        rank([[Fraction(1, 2)], [float("nan")]], k)
