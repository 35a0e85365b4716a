"""Surface triads, local systems, and the labelled homology bases.

A triad is a compact orientable surface of genus g whose boundary is split
into n "inner" circles and a piece of the remaining outer circle cut into k
intervals.  Configurations of m points on such a surface carry four free
rank-C(m+l-1, m) modules of interest (l = n-1+k+2g is the number of arcs in
the standard pictures), one per choice of side (which boundary half the arcs
are pushed to) and flavour (relative vs locally finite homology).  Their
bases are indexed by weak compositions of m into l parts, and this module
produces exactly those labels; all geometric content lives in the pairing
and embedding modules.

The lf_image flavour labels the image of a relative class inside the
locally finite module on the other side, written with a tilde in print.
"""

from __future__ import annotations

from math import comb

from .compositions import compositions
from .ring import GroupRingElement, Integers, LaurentRing
from .values import value_class

SIDES = ("in", "out")
FLAVOURS = ("relative", "locally_finite", "lf_image")


def check_side(side: str):
    """Raise ValueError unless `side` is one of SIDES."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


# print symbols for (side, flavour); tildes mark images of relative classes
_SYMBOLS = {
    ("in", "relative"): "U",
    ("in", "locally_finite"): "D",
    ("in", "lf_image"): "G~",
    ("out", "locally_finite"): "V",
    ("out", "relative"): "G",
    ("out", "lf_image"): "U~",
}


@value_class
class SurfaceTriad:
    """(genus, inner circles, outer intervals) plus the number of moving points.

    The outer intervals all sit on a single boundary circle, so a triad is
    determined by these four numbers.
    """

    genus: int
    inner_circles: int
    outer_intervals: int
    points: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.inner_circles < 1:
            raise ValueError("need at least one inner boundary circle")
        if self.outer_intervals < 0:
            raise ValueError("outer interval count must be non-negative")
        if self.points < 1:
            raise ValueError("need at least one configuration point")
        if self.arc_count < 1:
            raise ValueError(
                "the triad carries no arcs (n-1+k+2g = 0); no bases exist"
            )

    @property
    def arc_count(self) -> int:
        """Number of arcs in the standard basis pictures: l = n-1+k+2g."""
        return self.inner_circles - 1 + self.outer_intervals + 2 * self.genus

    def __str__(self):
        return (
            f"(g={self.genus}, n={self.inner_circles}, "
            f"k={self.outer_intervals}, m={self.points})"
        )


@value_class
class BasisClass:
    """A labelled basis element of one of the six module flavours."""

    side: str
    flavour: str
    composition: tuple[int, ...]

    def __post_init__(self):
        check_side(self.side)
        if self.flavour not in FLAVOURS:
            raise ValueError(
                f"flavour must be one of {FLAVOURS}, got {self.flavour!r}"
            )
        object.__setattr__(self, "composition", tuple(self.composition))
        if any(p < 0 for p in self.composition) or not self.composition:
            raise ValueError(f"not a composition: {self.composition}")

    @property
    def symbol(self) -> str:
        return _SYMBOLS[(self.side, self.flavour)]

    def __str__(self):
        parts = ",".join(str(p) for p in self.composition)
        return f"{self.symbol}[{parts}]@{self.side}"


def dimension(triad: SurfaceTriad) -> int:
    """Common rank of all four modules: C(m + l - 1, m)."""
    return comb(triad.points + triad.arc_count - 1, triad.points)


def basis(triad: SurfaceTriad, side: str, flavour: str) -> list[BasisClass]:
    """The ordered basis for the given side and flavour.

    One class per composition, in colex enumeration order; every matrix in
    this package indexes its rows and columns this way.
    """
    return [
        BasisClass(side, flavour, e)
        for e in compositions(triad.arc_count, triad.points)
    ]


@value_class
class LocalSystem:
    """A rank-1 local system presented by its ground ring and swap unit u.

    The standard system for m points on the punctured disc has deck group
    generated by x (one point winding once around a puncture) and, for
    m >= 2, d (two points swapping inside a small disc); it is d-homogeneous.
    For m = 1 there are no swap loops and u = 1 by convention.
    """

    ring: LaurentRing
    u: GroupRingElement

    def __post_init__(self):
        if self.u.ring != self.ring:
            raise ValueError("homogeneity unit must live in the system's ring")
        if self.ring.coefficients.is_exact and not self.u.is_unit():
            raise ValueError(f"homogeneity unit must be a unit, got {self.u}")


def standard_local_system(m: int, coefficients=None) -> LocalSystem:
    """The d-homogeneous system over k[x^+-1, d^+-1] (x-only when m = 1)."""
    if m < 1:
        raise ValueError("need at least one configuration point")
    if coefficients is None:
        coefficients = Integers()
    if m == 1:
        ring = LaurentRing(1, coefficients, ("x",))
        return LocalSystem(ring, ring.one)
    ring = LaurentRing(2, coefficients, ("x", "d"))
    return LocalSystem(ring, ring.var("d"))


def check_homogeneity(triad: SurfaceTriad, system: LocalSystem):
    """Enforce the m = 1 convention: no swap loops, so u must be 1."""
    if triad.points == 1 and system.u != system.ring.one:
        raise ValueError("a one-point system is 1-homogeneous; u must equal 1")
