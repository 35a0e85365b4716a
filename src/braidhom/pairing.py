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
sign +1 and monodromy u^(number of inversions of its bijection).  Summing
gives prod_i [e_i]_u!, and the closed form via quantum factorials is kept as
an independent oracle, never substituted for the enumeration.
"""

from __future__ import annotations

from itertools import permutations, product

from .linalg import Matrix, identity
from .ring import GroupRingElement, LaurentRing, quantum_factorial_product
from .surfaces import BasisClass, LocalSystem, SurfaceTriad, basis, check_homogeneity, dimension
from .values import value_class


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

    Non-degeneracy in its sharpest form: the matrix is the identity.
    """
    if ring is None:
        from .surfaces import standard_local_system

        ring = standard_local_system(triad.points).ring
    return PairingMatrix(
        triad=triad,
        side=side,
        left_flavour="locally_finite",
        right_flavour="relative",
        ring=ring,
        entries=identity(ring, dimension(triad)),
    )


def inversions(perm: tuple[int, ...]) -> int:
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


def local_intersection_sum(r: int, u: GroupRingElement) -> GroupRingElement:
    """Sum of u^inv(sigma) over all bijections of an r-point set with itself.

    This is the local computation on a single arc carrying r points of each
    class; it must agree with the quantum factorial [r]_u!.
    """
    if r < 0:
        raise ValueError("point count must be non-negative")
    total = u.ring.zero
    for perm in permutations(range(r)):
        total = total + u ** inversions(perm)
    return total


@value_class
class IntersectionPoint:
    """One transverse intersection point in the arc model.

    A point is a choice, for every arc, of a bijection between the e_i
    points of the left class and the e_i points of the right class on that
    arc.  The orientation conventions here make every sign +1; the field
    exists so that alternative conventions can be exercised in tests.
    """

    matchings: tuple[tuple[int, ...], ...]
    sign: int
    monodromy: GroupRingElement


def intersection_points(
    left: tuple[int, ...], right: tuple[int, ...], u: GroupRingElement
):
    """All intersection points of the classes indexed by e = left, f = right.

    Empty unless the compositions agree arcwise: an arc carrying e_i points
    of one class and f_i != e_i of the other admits no bijection, hence no
    configuration lies on both classes.
    """
    if len(left) != len(right):
        raise ValueError(
            f"composition lengths differ: {len(left)} vs {len(right)}"
        )
    if left != right:
        return
    for matching in product(*(permutations(range(r)) for r in left)):
        weight = sum(inversions(perm) for perm in matching)
        yield IntersectionPoint(
            matchings=matching,
            sign=1,
            monodromy=u ** weight,
        )


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
    the tests compare against.
    """
    check_homogeneity(triad, system)
    if left.flavour != "lf_image":
        raise ValueError("left argument must be an lf-image class (U~ or G~)")
    if right.flavour != "relative":
        raise ValueError("right argument must be a relative class (U or G)")
    total = system.ring.zero
    for point in intersection_points(left.composition, right.composition, system.u):
        contribution = point.monodromy if point.sign == 1 else -point.monodromy
        total = total + contribution
    return total


def geometric_pairing_matrix(
    triad: SurfaceTriad, side: str, system: LocalSystem
) -> PairingMatrix:
    """The geometric pairing over all pairs of basis classes.

    Diagonal entries are products of quantum factorials; off-diagonal
    entries vanish because the arc systems then share no configurations.
    """
    lf_images = basis(triad, side, "lf_image")
    relatives = basis(triad, side, "relative")
    entries = tuple(
        tuple(
            geometric_pairing(triad, side, left, right, system)
            for right in relatives
        )
        for left in lf_images
    )
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
