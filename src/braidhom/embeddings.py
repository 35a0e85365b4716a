"""Diagonal embeddings of relative modules into locally finite ones.

Pushing a relative class across the surface into the locally finite module
on the other side multiplies each basis class by a product of quantum
factorials: the image of the class at composition e is

    U~_e = prod_i [e_i]_u! * V_e        (in -> out-lf)
    G~_e = prod_i [e_i]_u! * D_e        (out -> in-lf)

so in the fixed bases the maps are diagonal with entries prod_i [e_i]_u!.
Injectivity reduces to those entries being non-zero-divisors, and for m > 1
any non-unit entry witnesses that the image is a proper submodule, i.e. the
locally finite representations are reducible.  On the disc the diagonal D
conjugates every braid generator into the ring (`diagonal_conjugation_integrality`,
which alone imports `braid`, inside the function).
"""

from __future__ import annotations

from .compositions import compositions
from .ring import GroupRingElement, exact_divide
from .surfaces import (BasisClass, LocalSystem, SurfaceTriad, check_homogeneity, disc_triad,
                       quantum_factorial_product)
from .values import value_class

DIRECTIONS = ("in", "out")

# side of the locally finite module the embedding lands in
_TARGET_SIDE = {"in": "out", "out": "in"}


@value_class
class EmbeddingMatrix:
    """A diagonal embedding matrix in basis order.

    `direction` names the source side: "in" maps the in-side relative module
    into the out-side locally finite one, "out" the reverse.  Off-diagonal
    entries are identically zero, so only the diagonal is stored.
    """

    triad: SurfaceTriad
    direction: str
    system: LocalSystem
    diagonal: tuple[GroupRingElement, ...]

    @property
    def compositions(self) -> list[tuple[int, ...]]:
        return compositions(self.triad.arc_count, self.triad.points)

    def target_class(self, e: tuple[int, ...]) -> BasisClass:
        return BasisClass(_TARGET_SIDE[self.direction], "locally_finite", e)

    def is_identity(self) -> bool:
        one = self.system.ring.one
        return all(entry == one for entry in self.diagonal)


def embedding_matrix(
    triad: SurfaceTriad, direction: str, system: LocalSystem
) -> EmbeddingMatrix:
    """The diagonal (prod_i [e_i]_u!)_e in composition order.

    For m = 1 every part of every composition is 0 or 1 and both factorials
    are empty or singleton products, so the matrix is the identity.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    check_homogeneity(triad, system)
    diagonal = tuple(quantum_factorial_product(e, system.u)
                     for e in compositions(triad.arc_count, triad.points))
    return EmbeddingMatrix(triad, direction, system, diagonal)


@value_class
class InjectivityCertificate:
    """Outcome of the non-zero-divisor test on the diagonal.

    `vanishing` lists every composition whose entry is zero (over an
    integral domain, zero is the only zero-divisor), so a failed
    certificate names its culprits.
    """

    injective: bool
    vanishing: tuple[tuple[tuple[int, ...], GroupRingElement], ...]

    def __bool__(self):
        return self.injective


def certify_injective(embedding: EmbeddingMatrix) -> InjectivityCertificate:
    """Injectivity of the embedding as a map of free modules.

    A diagonal map is injective exactly when every diagonal entry is a
    non-zero-divisor.  Refused over complex-approx coefficients, where the
    question has no tolerance-stable answer.
    """
    ring = embedding.system.ring
    if not ring.coefficients.is_exact:
        raise ValueError(
            "injectivity certification requires integral-domain coefficients, "
            f"not {ring.coefficients.name}"
        )
    vanishing = tuple(
        (e, entry)
        for e, entry in zip(embedding.compositions, embedding.diagonal)
        if not entry.is_non_zero_divisor()
    )
    return InjectivityCertificate(injective=not vanishing, vanishing=vanishing)


@value_class
class ReducibilityWitness:
    """A proper-submodule witness for a locally finite representation.

    The image of the embedding is the span of entry_e * (basis class e); the
    basis vector named here has a non-unit entry, so it cannot lie in the
    image: any preimage coordinate would have to be an inverse of the entry.
    """

    witness: BasisClass
    entry: GroupRingElement
    image_scalars: tuple[GroupRingElement, ...]


def reducibility_witness(
    triad: SurfaceTriad, system: LocalSystem, direction: str = "in"
) -> ReducibilityWitness | None:
    """A basis vector outside the embedding's image, or None.

    None is returned when m = 1 (the embedding is the identity; no claim is
    made) and when every diagonal entry is a unit (the image is everything,
    e.g. after specializing u to 1 over the rationals).
    """
    if triad.points == 1:
        return None
    embedding = embedding_matrix(triad, direction, system)
    for e, entry in zip(embedding.compositions, embedding.diagonal):
        if not entry.is_unit():
            return ReducibilityWitness(
                witness=embedding.target_class(e),
                entry=entry,
                image_scalars=embedding.diagonal,
            )
    return None


@value_class
class ConjugationCertificate:
    """Result of the diagonal conjugation integrality test.

    When `integral` is false, `generator`, `position` and `entry` name one
    offending matrix entry whose D-conjugate leaves the ring.
    """

    integral: bool
    generator: int | None = None
    position: tuple[int, int] | None = None
    entry: GroupRingElement | None = None

    def __bool__(self) -> bool:
        return self.integral


def diagonal_conjugation_integrality(n: int, m: int = 2) -> ConjugationCertificate:
    """Check that D^{-1} rho(sigma_i) D stays in R for every generator.

    D is the embedding diagonal diag(prod [e_i]_u!) of the disc triad; the
    check divides each entry rho_{ab} D_b by D_a exactly.  For m = 1 the
    diagonal is the identity and the answer is trivially true.
    """
    from .braid import _system, generator_matrix

    system = _system(m)  # an m outside {1, 2} is refused before anything else
    diagonal = embedding_matrix(disc_triad(n, m), "in", system).diagonal
    for value in diagonal:
        if value.is_zero():
            raise ValueError("zero diagonal entry, conjugation undefined")
    for i in range(1, n):
        rho = generator_matrix(n, i, m).entries
        for a, d_a in enumerate(diagonal):
            for b, d_b in enumerate(diagonal):
                if exact_divide(rho[a][b] * d_b, d_a) is None:
                    return ConjugationCertificate(False, i, (a, b), rho[a][b])
    return ConjugationCertificate(True)
