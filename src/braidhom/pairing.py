"""Intersection pairings between matched homology bases.

Two pairings are implemented.  The delta pairing is the non-degenerate
pairing of a locally finite basis against the relative basis on the same
side; in the matched bases it is literally the identity matrix, which is the
content of the Kronecker-delta lemmas.

The geometric pairing pairs the image class U~_e (or G~_e) against a
relative class and is computed the honest way, as a sum over intersection
points of sign times loop monodromy.  In the combinatorial arc model the
intersection points between the configurations over arc systems e and f are
exactly the tuples of per-arc bijections: arc i carries e_i points of one
class and f_i of the other, arcs meet pairwise once, so configurations in
the intersection match the points arcwise.  No points exist unless e = f
arcwise, and for e = f there are prod_i (e_i)! of them; each contributes
sign +1 and monodromy u^(number of inversions of its bijection).  A point's
inversion count is the sum of its per-arc counts, so the sum over points
factors as the product over arcs of per-arc sums, and each arc size r has
its r! bijections enumerated once (r at most MAX_ARC_POINTS = 9; more is a
ValueError before any enumeration).  Summing gives prod_i [e_i]_u!, and the
closed form via quantum factorials is kept as an independent oracle, never
substituted for the enumeration.  Pairing invariance fixes the dual braid
action, `dual_representation`, which alone imports `braid`, inside the function.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations

from .compositions import compositions
from .linalg import Matrix, identity, mat_alpha, transpose
from .ring import GroupRingElement, LaurentRing
from .surfaces import (BasisClass, LocalSystem, SurfaceTriad, check_homogeneity, check_side,
                       dimension, quantum_factorial_product)
from .values import value_class

MAX_ENTRIES = 10**7  # the largest pairing matrix built, as `braid.MAX_ENTRIES` for words


@value_class
class PairingMatrix:
    """A pairing in the fixed bases: rows pair the left family, columns the right."""

    triad: SurfaceTriad
    side: str
    left_flavour: str
    right_flavour: str
    ring: LaurentRing
    entries: Matrix

    def evaluate(self, left_coeffs, right_coeffs) -> GroupRingElement:
        """Pair two coordinate vectors; linear on the right, alpha-twisted on the left."""
        n = len(self.entries)
        if len(left_coeffs) != n or len(right_coeffs) != n:
            raise ValueError(f"coordinate vectors must have length {n}")
        total = self.ring.zero
        for i, left in enumerate(left_coeffs):
            twisted = left.alpha()
            for j, right in enumerate(right_coeffs):
                total = total + twisted * self.entries[i][j] * right
        return total


def delta_pairing(triad: SurfaceTriad, side: str, ring: LaurentRing | None = None) -> PairingMatrix:
    """The pairing of the locally finite basis against the relative basis.

    Non-degeneracy in its sharpest form: the matrix is the identity.  A side
    outside SIDES, or more than MAX_ENTRIES = 10^7 entries, is a ValueError
    before anything is built.
    """
    check_side(side)
    d = _dimension_within_bound(triad)
    if ring is None:
        from .surfaces import standard_local_system

        ring = standard_local_system(triad.points).ring
    return PairingMatrix(
        triad=triad,
        side=side,
        left_flavour="locally_finite",
        right_flavour="relative",
        ring=ring,
        entries=identity(ring, d),
    )


def _dimension_within_bound(triad: SurfaceTriad) -> int:
    """The dimension d of the triad's bases; ValueError if d * d passes MAX_ENTRIES."""
    if (d := dimension(triad)) ** 2 > MAX_ENTRIES:
        raise ValueError(f"a {d}x{d} pairing matrix exceeds the bound of {MAX_ENTRIES} entries")
    return d


def inversions(perm: tuple[int, ...]) -> int:
    return sum(1 for a, b in combinations(perm, 2) if a > b)


MAX_ARC_POINTS = 9  # 9! = 362,880 bijections on the largest arc


def local_intersection_sum(r: int, u: GroupRingElement) -> GroupRingElement:
    """Sum of u^inv(sigma) over all bijections of an r-point set with itself.

    This is the local computation on a single arc carrying r points of each
    class; it must agree with the quantum factorial [r]_u!.  The r!
    bijections are enumerated once and counted by inversion number, so each
    power u^w is computed once and weighted by its count.  r past
    MAX_ARC_POINTS is a ValueError before anything is enumerated.
    """
    if r < 0:
        raise ValueError("point count must be non-negative")
    if r > MAX_ARC_POINTS:
        raise ValueError(f"an arc with {r} points has {r}! bijections to enumerate;"
                         f" the bound is {MAX_ARC_POINTS} points per arc")
    counts = Counter(inversions(perm) for perm in permutations(range(r)))
    total = u.ring.zero
    for weight, count in counts.items():
        total = total + count * u ** weight
    return total


def _class_pairing(
    left: tuple[int, ...], right: tuple[int, ...], local_sums: dict, ring: LaurentRing
) -> GroupRingElement:
    """The pairing of the classes indexed by e = left and f = right.

    Both are compositions of the triad's points into its arcs.  The pairing
    is zero unless they agree arcwise: an arc carrying e_i points of one
    class and f_i != e_i of the other admits no bijection, hence no
    configuration lies on both classes.  Otherwise the intersection points
    are the tuples of per-arc bijections, and their sum is the product over
    arcs of local_sums[e_i], the per-arc sum for e_i points, from left to
    right.  Over an exact ring a sum equal to one (that of 0 or 1 points) is
    skipped, since a product with it changes no term; under complex-approx
    every sum is multiplied in, because a product with 1 can turn a -0.0
    imaginary part into 0.0.
    """
    if left != right:
        return ring.zero
    exact = ring.coefficients.is_exact
    ones = {r for r, s in local_sums.items() if exact and s == ring.one}
    factors = [local_sums[r] for r in left if r not in ones]
    total = factors[0] if factors else ring.one
    for factor in factors[1:]:
        total = total * factor
    return total


def geometric_pairing(
    triad: SurfaceTriad,
    side: str,
    left: BasisClass,
    right: BasisClass,
    system: LocalSystem,
) -> GroupRingElement:
    """Pair an lf-image class against a relative class by enumerating points.

    Computes sum over intersection points of sign * monodromy.  The closed
    form delta_{e,f} * prod_i [e_i]_u! is *not* used here; it is the oracle
    the tests compare against.  Refused, in this order: a system that is not
    homogeneous for the triad, a side outside SIDES, the wrong flavours, a
    class on another side, compositions of different lengths, and a class
    that is not in the triad's basis (wrong arc count or point count).
    """
    check_homogeneity(triad, system)
    check_side(side)
    if left.flavour != "lf_image":
        raise ValueError("left argument must be an lf-image class (U~ or G~)")
    if right.flavour != "relative":
        raise ValueError("right argument must be a relative class (U or G)")
    for c in (left, right):
        if c.side != side:
            raise ValueError(f"{c} lies on side {c.side!r}, not {side!r}")
    e, f = left.composition, right.composition
    if len(e) != len(f):
        raise ValueError(f"composition lengths differ: {len(e)} vs {len(f)}")
    for c in (left, right):
        if len(c.composition) != triad.arc_count or sum(c.composition) != triad.points:
            raise ValueError(f"{c} is not a basis class of the triad {triad}")
    local_sums = {r: local_intersection_sum(r, system.u) for r in set(e)} if e == f else {}
    return _class_pairing(e, f, local_sums, system.ring)


def geometric_pairing_matrix(
    triad: SurfaceTriad, side: str, system: LocalSystem
) -> PairingMatrix:
    """The geometric pairing over all pairs of basis classes.

    Diagonal entries are products of quantum factorials; off-diagonal
    entries vanish because the arc systems then share no configurations, so
    they share one zero, as in `linalg.identity`.  Each per-arc sum is
    enumerated once for the whole matrix.  More than MAX_ENTRIES = 10^7
    entries is a ValueError before anything is built.
    """
    d = _dimension_within_bound(triad)
    check_side(side)
    comps = compositions(triad.arc_count, triad.points)
    check_homogeneity(triad, system)
    local_sums = {r: local_intersection_sum(r, system.u) for r in {r for e in comps for r in e}}
    zero = system.ring.zero
    entries = tuple((zero,) * i + (_class_pairing(e, e, local_sums, system.ring),)
                    + (zero,) * (d - 1 - i) for i, e in enumerate(comps))
    return PairingMatrix(
        triad=triad,
        side=side,
        left_flavour="lf_image",
        right_flavour="relative",
        ring=system.ring,
        entries=entries,
    )


def closed_form_pairing(
    left: tuple[int, ...], right: tuple[int, ...], u: GroupRingElement
) -> GroupRingElement:
    """The oracle: delta_{e,f} * prod_i [e_i]_u! via quantum factorials."""
    if left != right:
        return u.ring.zero
    return quantum_factorial_product(left, u)


def dual_representation(word: BraidWord, m: int, side: str = "in") -> RepMatrix:
    """The dual action rho'(beta) = alpha(rho(beta^{-1}))^T.

    Pairing invariance against the identity pairing matrix,
    alpha(rho(beta))^T . rho'(beta) = 1, holds by construction; `side`
    labels which half of the pairing carries rho and is recorded in the
    convention tag.
    """
    from .braid import RepMatrix, evaluate_word

    check_side(side)
    base = evaluate_word(word.inverse(), m)
    entries = transpose(mat_alpha(base.entries))
    return RepMatrix(word.n, m, entries, f"{base.convention}/dual-{side}")
