"""Exact-matrix helpers over a Laurent ring, and ranks over a field.

Matrices are immutable tuples of tuples of GroupRingElement, checked for one
ring once per matrix.  `mat_mul` refuses ragged factors, compiles the right one
into a column plan and applies it (`ring.column_plan`, `ring.apply_column_plans`),
the kernel that braid words and the braid relations use with cached plans and
that chain complexes run on term maps for their composite check; every plan is
compiled by `ring.plan_rows` from {column: element} rows, and the
`apply_column_plans` docstring states the term order every product keeps.
Fraction-free inversion updates each entry with the ring's `*` and `+`; the tests
keep it as the oracle of the braid layer's closed-form inverses.

`identity` and `specialize_matrix` are the functions of `ring` and `fields`,
under the same names here; the braid layer and the command line take them from
those modules, so a cold `braidhom rep` never loads this one.  The docstring of
`specialize_matrix` states the order of float operations: it evaluates a
matrix at a point in one pass, and its rows may be ragged, so a caller can
specialize only the nonzero entries of a matrix, as chain complexes do.
Specialized matrices are lists of
field values, and `rank` is the one Gaussian elimination over them, for every
field: on integer rows over Q (each cleared of denominators and divided by its
content), on residues mod p over F_p, on floats under complex-approx.  Its
rows are sequences of one length or maps from column to nonzero value, which is
how chain complexes pass them; `homology_ranks_at` leaves the refusal of a
non-finite value to it.
"""

from __future__ import annotations

from math import gcd, isfinite, lcm

from .fields import IntegersModP, Rationals, specialize_matrix
from .ring import (CoefficientRing, GroupRingElement, Integers, LaurentRing, apply_column_plans,
                   column_plan, exact_divide, identity, matrix_width)

Matrix = tuple[tuple[GroupRingElement, ...], ...]


def as_matrix(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def common_ring(ring: LaurentRing | None, *matrices: Matrix) -> LaurentRing | None:
    """The ring of every entry (and `ring`, if given); ValueError on a mix."""
    for m in matrices:
        for row in m:
            for x in row:
                if x.ring is ring:
                    continue
                if ring is None:
                    ring = x.ring
                elif x.ring != ring:
                    raise ValueError(f"ring context mismatch: {ring} vs {x.ring}")
    return ring


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    inner, width = matrix_width(a), matrix_width(b)
    if a and inner != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{inner} times {len(b)}x{width}")
    common_ring(None, a, b)
    if not (a and width):  # no rows, or no columns: nothing to plan
        return tuple(() for _ in a)
    return apply_column_plans(a, [column_plan(b)])


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
                entry = pivot * m[i][j] + minus_factor * m[k][j]
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


def rank(rows: list, k: CoefficientRing) -> int:
    """Rank of a matrix over the field k by Gaussian elimination; the integers count as Q.

    A row is a sequence of entries, each coerced into k and dropped when it is
    zero, or a map from column to entry that holds only nonzero values of k,
    which is copied with no coercion; it gives the rank its sequence would.
    `homology_ranks_at` passes maps.  Sequence rows of different lengths
    raise ValueError.

    Each step takes a pivot, clears its column from the rows still in play
    and drops the pivot's row and column.  Exact fields pivot on the first
    nonzero entry, column by column.  Under ComplexApprox the matrix is first
    scaled so its largest |entry| is 1, and complete pivoting stops at the
    first pivot k.is_zero calls zero: the rank counts pivots above tolerance
    times the largest entry.  A non-finite entry raises ValueError.

    Rows are kept as maps from column to entry, holding only the entries that
    are not zero (a complex zero of either sign included).  A row with no
    entry in the pivot column is left alone, and the others are updated at
    the pivot row's entries only, in one loop for every field.  Exact fields
    eliminate on Python ints.  Over Q a row is scaled by the lcm of its
    denominators and divided by its content, the gcd of its entries; with
    pivot t, a row whose entry in t's column is v becomes (t/g)*row -
    (v/g)*(pivot row), g = gcd(t, v), and is divided by its content again.
    Scaling a row by a nonzero integer makes no entry zero or nonzero, so the
    pivots, and the rank, are those of the elimination over Fractions, with
    no Fraction arithmetic and no growth of denominators.  Over F_p the
    residues are updated mod p, with one inverse per pivot.  Under
    ComplexApprox the update runs `+` and `*` inline, as `k.add` and `k.mul`
    would; one skipped because it would add an exact zero could differ from
    it at most in the sign of a zero part, which neither `abs` nor
    `k.is_zero` sees: every pivot, and so the rank, is the same.
    """
    if set(map(type, rows)) - {dict}:  # one pass in C when every row is a map
        matrix_width([row for row in rows if not isinstance(row, dict)])
    if isinstance(k, Integers):
        k = Rationals()
    p, exact = (k.p if isinstance(k, IntegersModP) else 0), k.is_exact
    if exact:
        m = []
        for row in rows:
            row = row.items() if isinstance(row, dict) else [
                (j, c) for j, v in enumerate(row) if (c := k.coerce(v))]
            if row and p:
                m.append(dict(row))
            elif row:  # over Q: cleared of denominators
                scale = lcm(*(v.denominator for _, v in row))
                m.append(_primitive({j: v.numerator * (scale // v.denominator) for j, v in row}))
    else:
        nonzero = [list(row.items()) if isinstance(row, dict) else
                   [(j, v) for j, v in enumerate(row) if v] for row in rows if row]
        if not all(isfinite(v.real) and isfinite(v.imag) for row in nonzero for _, v in row):
            raise ValueError("cannot take the rank of a matrix with non-finite entries")
        scale = max((abs(v) for row in nonzero for _, v in row), default=0)
        m = [{j: s for j, v in row if (s := v / scale)} for row in nonzero] if scale else []
        m = [row for row in m if row]
    count = 0
    while m:
        if exact:  # the first nonzero entry, column by column
            j = min(min(row) for row in m)
            i = next(i for i, row in enumerate(m) if j in row)
        else:  # the largest |entry|
            sizes = [max(map(abs, row.values())) for row in m]
            i = sizes.index(max(sizes))
            j = min(c for c, v in m[i].items() if abs(v) == sizes[i])
            if k.is_zero(m[i][j]):
                break
        pivot = m.pop(i)
        top = pivot.pop(j)
        pivot_entries = pivot.items()
        inverse = pow(top, -1, p) if p else (None if exact else -(1 / top))
        for row in m:
            v = row.pop(j, None)
            if v is None:
                continue
            if p:
                factor = v * inverse % p
                for c, w in pivot_entries:
                    s = (row.get(c, 0) - factor * w) % p
                    if s:
                        row[c] = s
                    else:
                        row.pop(c, None)
            elif exact:
                g = gcd(top, v)
                a, b = top // g, v // g
                if a != 1:
                    for c in row:
                        row[c] *= a
                for c, w in pivot_entries:
                    s = row.get(c, 0) - b * w
                    if s:
                        row[c] = s
                    else:
                        row.pop(c, None)
                if row:
                    _primitive(row)
            elif factor := v * inverse:  # inverse is minus the pivot's inverse
                for c, w in pivot_entries:
                    s = row[c] + factor * w if c in row else factor * w
                    if s:
                        row[c] = s
                    else:
                        row.pop(c, None)
        m = [row for row in m if row]
        count += 1
    return count


def _primitive(row: dict) -> dict:
    """Divide a row of nonzero ints by its content, in place; the row is returned."""
    g = gcd(*row.values())
    if g != 1:
        for c, v in row.items():
            row[c] = v // g
    return row


# Old names kept as aliases: the traced benchmark looks them up with getattr and no default.
rank_exact = rank_numeric = rank
