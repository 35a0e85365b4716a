"""Tests for the diagonal embeddings and their injectivity certificates."""

import pytest

from braidhom.compositions import compositions
from braidhom.embeddings import (
    certify_injective,
    embedding_matrix,
    reducibility_witness,
)
from braidhom.fields import ComplexApprox, IntegersModP, Rationals
from braidhom.pairing import local_intersection_sum
from braidhom.ring import LaurentRing
from braidhom.surfaces import (
    LocalSystem,
    SurfaceTriad,
    dimension,
    quantum_factorial,
    standard_local_system,
)

from test_surfaces import all_triads


def test_embedding_entries_are_quantum_factorial_products():
    for triad in all_triads(max_l=4, max_m=4):
        system = standard_local_system(triad.points)
        for direction in ("in", "out"):
            embedding = embedding_matrix(triad, direction, system)
            assert len(embedding.diagonal) == dimension(triad)
            for e, entry in zip(embedding.compositions, embedding.diagonal):
                expected = system.ring.one
                for part in e:
                    expected = expected * quantum_factorial(part, system.u)
                assert entry == expected


def test_embedding_entries_match_intersection_sums():
    # Each diagonal entry is the total intersection contribution of the
    # class against itself, arc by arc.
    triad = SurfaceTriad(0, 3, 0, 3)
    system = standard_local_system(3)
    embedding = embedding_matrix(triad, "in", system)
    for e, entry in zip(embedding.compositions, embedding.diagonal):
        expected = system.ring.one
        for part in e:
            if part > 0:
                expected = expected * local_intersection_sum(part, system.u)
        assert entry == expected


def test_one_point_embedding_is_the_identity():
    system = standard_local_system(1)
    for triad in all_triads(max_l=6, max_m=1):
        embedding = embedding_matrix(triad, "in", system)
        assert embedding.is_identity()
        assert certify_injective(embedding).injective


def test_target_classes_live_on_the_opposite_side():
    triad = SurfaceTriad(0, 3, 0, 2)
    system = standard_local_system(2)
    inward = embedding_matrix(triad, "in", system)
    outward = embedding_matrix(triad, "out", system)
    e = inward.compositions[0]
    assert inward.target_class(e).side == "out"
    assert outward.target_class(e).side == "in"
    assert inward.target_class(e).flavour == "locally_finite"
    with pytest.raises(ValueError):
        embedding_matrix(triad, "sideways", system)


def test_standard_system_embeddings_are_injective():
    for m in range(2, 5):
        system = standard_local_system(m)
        for triad in all_triads(max_l=4, max_m=m):
            if triad.points != m:
                continue
            certificate = certify_injective(embedding_matrix(triad, "in", system))
            assert certificate.injective
            assert certificate.vanishing == ()
            assert bool(certificate)


# (field, primitive root of unity omega, its order r): [r]_omega = 0, so the
# diagonal entry at e vanishes exactly when some part of e reaches r.
_ROOTS = [
    (Rationals(), -1, 2),
    (IntegersModP(7), 2, 3),
    (IntegersModP(5), 2, 4),
]


def test_injectivity_fails_at_roots_of_unity():
    for field, omega, r in _ROOTS:
        ring = LaurentRing(0, field)
        system = LocalSystem(ring, ring.scalar(omega))
        for m in range(r, 5):
            triad = SurfaceTriad(0, 3, 0, m)
            certificate = certify_injective(embedding_matrix(triad, "in", system))
            assert not certificate.injective
            vanished = {e for e, _ in certificate.vanishing}
            expected = {
                e
                for e in compositions(triad.arc_count, triad.points)
                if max(e) >= r
            }
            assert vanished == expected
            for _, entry in certificate.vanishing:
                assert entry.is_zero()


def test_injectivity_holds_below_the_root_order():
    for field, omega, r in _ROOTS:
        ring = LaurentRing(0, field)
        system = LocalSystem(ring, ring.scalar(omega))
        for m in range(2, r):
            triad = SurfaceTriad(0, 3, 0, m)
            assert certify_injective(embedding_matrix(triad, "in", system))


def test_certification_refuses_inexact_coefficients():
    ring = LaurentRing(0, ComplexApprox())
    system = LocalSystem(ring, ring.scalar(2.0))
    triad = SurfaceTriad(0, 3, 0, 2)
    embedding = embedding_matrix(triad, "in", system)
    with pytest.raises(ValueError):
        certify_injective(embedding)


def test_reducibility_witness_for_generic_systems():
    for m in (2, 3, 4):
        system = standard_local_system(m)
        for n in (3, 4):
            triad = SurfaceTriad(0, n, 0, m)
            witness = reducibility_witness(triad, system)
            assert witness is not None
            assert not witness.entry.is_unit()
            assert witness.witness.flavour == "locally_finite"
            assert witness.witness.side == "out"
            # the witness entry really is one of the image scalars
            assert witness.entry in witness.image_scalars


def test_no_reducibility_witness_for_one_point():
    system = standard_local_system(1)
    triad = SurfaceTriad(0, 4, 0, 1)
    assert reducibility_witness(triad, system) is None


def test_no_reducibility_witness_when_entries_are_units():
    # specializing u to 1 over the rationals makes every factorial a unit
    ring = LaurentRing(0, Rationals())
    system = LocalSystem(ring, ring.one)
    triad = SurfaceTriad(0, 3, 0, 3)
    assert reducibility_witness(triad, system) is None
