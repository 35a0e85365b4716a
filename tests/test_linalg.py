"""Exact matrix helpers: products, involution transpose, inversion, ranks."""

import cmath
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

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
from braidhom.ring import (ComplexApprox, Integers, IntegersModP, LaurentRing, Rationals,
                           apply_column_plans, column_plan)

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
def matrices(draw, ring, rows, cols):
    """Sparse matrices with negative exponents and one optional all-zero row and column."""
    entry = st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), COEFFICIENTS[ring], max_size=3
    ).map(ring.element)
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
    a = data.draw(matrices(ring, rows, inner))
    b = data.draw(matrices(ring, inner, cols))
    if data.draw(st.booleans()):  # a column of the identity: multiplied through, not copied
        j, k = data.draw(st.integers(0, cols - 1)), data.draw(st.integers(0, inner - 1))
        b = as_matrix([ring.one if (r, c) == (k, j) else ring.zero if c == j else x
                       for c, x in enumerate(row)] for r, row in enumerate(b))
    product = mat_mul(a, b)
    expected = reference_mat_mul(a, b)
    assert len(product) == rows and all(len(row) == cols for row in product)
    assert product == expected
    # Bit for bit, in the same term order: specialize sums terms in dict order,
    # and a product with 1 turns a complex -0.0 imaginary part into 0.0 (a copy would not).
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


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4))
def test_column_plans_match_mat_mul(data, rows, inner, cols):
    a = data.draw(matrices(ZZ, rows, inner))
    b = data.draw(matrices(ZZ, inner, cols))
    # Columns of the identity (copied), and columns of one-term entries (shifted and scaled).
    kinds = data.draw(st.lists(st.sampled_from(["any", "one-term", "unit"]),
                               min_size=cols, max_size=cols))
    one_term = st.sampled_from([ZZ.one, -ZZ.one, X, -(D ** 2), 3 * X ** -1 * D])

    def cell(r, c, x):
        if kinds[c] == "unit":
            return ZZ.one if r == c % inner else ZZ.zero
        return data.draw(one_term) if kinds[c] == "one-term" and not x.is_zero() else x

    b = as_matrix([cell(r, c, x) for c, x in enumerate(row)] for r, row in enumerate(b))
    third = data.draw(matrices(ZZ, cols, data.draw(st.integers(1, 4))))
    product, expected = apply_column_plans(a, [column_plan(b)]), mat_mul(a, b)
    assert product == expected
    assert _term_lists(product) == _term_lists(expected)
    chained = apply_column_plans(a, [column_plan(b), column_plan(third)])
    assert _term_lists(chained) == _term_lists(mat_mul(expected, third))
    assert mat_eq(chained, reference_mat_mul(reference_mat_mul(a, b), third))


def test_column_plans_refuse_other_rings_and_shapes():
    with pytest.raises(ValueError):
        column_plan(identity(QQ, 2))
    with pytest.raises(ValueError):
        column_plan(identity(CC, 2))
    with pytest.raises(ValueError):
        apply_column_plans(identity(ZZ, 2), [column_plan(identity(ZZ, 3))])
    other = LaurentRing(2, Integers(), ("x", "t"))
    with pytest.raises(ValueError):
        apply_column_plans(identity(ZZ, 2), [column_plan(identity(other, 2))])


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


def test_invert_rejects_non_unit_determinant():
    a = as_matrix([[ZZ.one + X, ZZ.zero], [ZZ.zero, ZZ.one]])
    with pytest.raises(ValueError):
        invert(a, ZZ)


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
