"""Exact-matrix helpers over a Laurent ring, and ranks over a field.

Matrices are immutable tuples of tuples of GroupRingElement.  Products and
fraction-free inversion sum each entry in one accumulator with
`ring.sum_of_products` and check the ring once per matrix, skipping zero
entries.  Braid words and the braid generators themselves do not come here:
they multiply by cached column plans (`ring.apply_column_plans`), which give
every entry the same terms in the same order as `mat_mul`.

`specialize_matrix` evaluates a matrix at a point in one pass
(`ring.specialize_rows`): a term is its coefficient times the powers of the
values in variable order, and an entry sums its terms in dict order, so float
values depend on term order.  Specialized matrices are lists of field values,
and `rank` is the one Gaussian elimination over them, for every field.
"""

from __future__ import annotations

from math import isfinite

from .ring import (CoefficientRing, GroupRingElement, Integers, LaurentRing, Rationals,
                   exact_divide, specialize_rows, sum_of_products)

Matrix = tuple[tuple[GroupRingElement, ...], ...]


def as_matrix(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(ring: LaurentRing, size: int) -> Matrix:
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(size))
        for i in range(size)
    )


def common_ring(ring: LaurentRing | None, *matrices: Matrix) -> LaurentRing | None:
    """The ring of every entry (and `ring`, if given); ValueError on a mix."""
    for x in (x for m in matrices for row in m for x in row):
        ring = ring or x.ring
        if x.ring is not ring and x.ring != ring:
            raise ValueError(f"ring context mismatch: {ring} vs {x.ring}")
    return ring


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    ring = common_ring(None, a, b)
    cols = [[(i, x) for i, x in enumerate(col) if not x.is_zero()] for col in zip(*b)]
    return tuple(
        tuple(sum_of_products(ring, [(row[i], x) for i, x in col]) for col in cols)
        for row in a
    )


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False
    return all(x == y for r, s in zip(a, b) for x, y in zip(r, s))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_alpha(a: Matrix) -> Matrix:
    """Apply the ring involution entrywise."""
    return tuple(tuple(x.alpha() for x in row) for row in a)


def invert(a: Matrix, ring: LaurentRing) -> Matrix:
    """Exact inverse over the ring, for matrices with unit determinant.

    Fraction-free Gauss-Jordan elimination: at every step the entries are
    minors of the input (Sylvester's identity), so the division by the
    previous pivot is exact in the ring.  The elimination ends with
    det * I on the left and det * inverse on the right of the augmented
    matrix; the final division is by the determinant, which must be a unit
    (a matrix over a Laurent ring is invertible exactly when its determinant
    is).  The braid layer inverts in closed form; the tests use this as its
    oracle.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("only square matrices can be inverted")
    common_ring(ring, a)
    m = [list(row) + [ring.one if i == j else ring.zero for j in range(n)]
         for i, row in enumerate(a)]
    prev = ring.one
    for k in range(n):
        pivot_row = next(
            (r for r in range(k, n) if not m[r][k].is_zero()), None
        )
        if pivot_row is None:
            raise ValueError("matrix is singular over the ring")
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k][k]
        divide = prev != ring.one
        for i in range(n):
            if i == k:
                continue
            minus_factor = -m[i][k]
            for j in range(2 * n):
                if j == k:
                    continue
                entry = sum_of_products(ring, ((pivot, m[i][j]), (minus_factor, m[k][j])))
                if divide and not entry.is_zero():
                    entry = exact_divide(entry, prev)
                    if entry is None:
                        raise ArithmeticError(
                            "fraction-free elimination produced an inexact division"
                        )
                m[i][j] = entry
            m[i][k] = ring.zero
        prev = pivot
    det = m[n - 1][n - 1]
    if not det.is_unit():
        raise ValueError(
            f"determinant {det} is not a unit; no inverse over the ring"
        )
    det_inv = det.inverse()
    return tuple(tuple(det_inv * m[i][j] for j in range(n, 2 * n)) for i in range(n))


def specialize_matrix(a: Matrix, assignments: dict, target) -> list[list]:
    """The value of every entry at the assignments (Fractions, complex numbers, ...)."""
    return specialize_rows(a, assignments, target)


def rank(rows: list[list], k: CoefficientRing) -> int:
    """Rank of a matrix over the field k by Gaussian elimination; the integers count as Q.

    Each step takes a pivot, clears its column from the rows still in play
    and drops the pivot's row and column.  Exact fields pivot on the first
    nonzero entry, column by column.  Under ComplexApprox the matrix is first
    scaled so its largest |entry| is 1, and complete pivoting stops at the
    first pivot k.is_zero calls zero: the rank counts pivots above tolerance
    times the largest entry.  A non-finite entry raises ValueError.
    """
    if isinstance(k, Integers):
        k = Rationals()
    if k.is_exact:
        m = [[k.coerce(v) for v in row] for row in rows]
    else:
        if not all(isfinite(v.real) and isfinite(v.imag) for row in rows for v in row):
            raise ValueError("cannot take the rank of a matrix with non-finite entries")
        scale = max((abs(v) for row in rows for v in row), default=0)
        m = [[v / scale for v in row] for row in rows] if scale else []
    add, mul, is_zero = k.add, k.mul, k.is_zero
    count = 0
    while m and m[0]:
        if k.is_exact:  # the first nonzero entry, column by column
            i, j = next(((i, j) for j in range(len(m[0])) for i, row in enumerate(m)
                         if not is_zero(row[j])), (0, 0))
        else:  # the largest |entry|
            sizes = [max(map(abs, row)) for row in m]
            i = sizes.index(max(sizes))
            j = list(map(abs, m[i])).index(sizes[i])
        if is_zero(m[i][j]):
            break
        pivot = m.pop(i)
        minus_inverse = k.neg(k.invert(pivot.pop(j)))
        for row in m:
            factor = mul(row.pop(j), minus_inverse)
            if factor:
                row[:] = [add(v, mul(factor, w)) for v, w in zip(row, pivot)]
        count += 1
    return count


# Old names kept as aliases: the traced benchmark looks them up with getattr and no default.
rank_exact = rank_numeric = rank
