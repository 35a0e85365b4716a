"""Exact-matrix helpers over a Laurent ring.

Matrices are immutable tuples of tuples of GroupRingElement.  Products and
fraction-free inversion sum each entry in one accumulator with
`ring.sum_of_products` and check the ring once per matrix, skipping zero
entries.  Braid words and the braid generators themselves do not come here:
they multiply by cached column plans (`ring.apply_column_plans`), which give
every entry the same terms in the same order as `mat_mul`.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import GroupRingElement, LaurentRing, exact_divide, sum_of_products

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


def scalar_value(element: GroupRingElement):
    """The coefficient of a rank-0 ring element (a bare scalar)."""
    if element.ring.rank != 0:
        raise ValueError("not a scalar: lattice rank is nonzero")
    return element.coefficient(())


def specialize_matrix(a: Matrix, assignments: dict, target) -> list[list]:
    """Evaluate every entry at the given variable assignments.

    Returns raw coefficient values (Fractions, complex numbers, ...) ready
    for numeric linear algebra.
    """
    return [
        [scalar_value(x.specialize(assignments, target)) for x in row]
        for row in a
    ]


def rank_exact(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix of Fractions by Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def rank_numeric(rows: list[list[complex]], tolerance: float) -> int:
    """Numerical rank: singular values above tolerance * largest."""
    import numpy as np

    if not rows or not rows[0]:
        return 0
    singular = np.linalg.svd(np.array(rows, dtype=complex), compute_uv=False)
    if len(singular) == 0 or singular[0] == 0:
        return 0
    return int((singular > tolerance * singular[0]).sum())
