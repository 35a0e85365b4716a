"""Tests for the pairings between homology bases."""

import random
import re
from itertools import permutations

import pytest

from braidhom.compositions import compositions
from braidhom.pairing import (
    closed_form_pairing,
    delta_pairing,
    geometric_pairing,
    geometric_pairing_matrix,
    inversions,
    local_intersection_sum,
)
from braidhom.ring import Integers, LaurentRing, quantum_factorial
from braidhom.surfaces import (
    BasisClass,
    SurfaceTriad,
    basis,
    dimension,
    standard_local_system,
)

from test_surfaces import all_triads


def test_delta_pairing_is_the_identity():
    for triad in all_triads(max_l=5, max_m=4):
        matrix = delta_pairing(triad, "in")
        ring = matrix.ring
        d = dimension(triad)
        for i in range(d):
            for j in range(d):
                expected = ring.one if i == j else ring.zero
                assert matrix.entries[i][j] == expected


def test_delta_pairing_refuses_an_unknown_side():
    # the CLI's choices hide this; the function returned an identity matrix
    for side in ("sideways", "", "IN"):
        message = f"side must be one of ('in', 'out'), got {side!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            delta_pairing(SurfaceTriad(0, 3, 0, 2), side)


def test_delta_pairing_evaluates_coordinates():
    triad = SurfaceTriad(0, 3, 0, 2)
    matrix = delta_pairing(triad, "out")
    ring = matrix.ring
    x = ring.var("x")
    d = ring.var("d")
    left = (x, ring.zero, ring.one)
    right = (d, x + ring.one, ring.zero)
    # <v, w> = sum_i alpha(v_i) w_i for the identity matrix; the second and
    # third summands vanish against the zero coordinates.
    expected = x.alpha() * d
    assert matrix.evaluate(left, right) == expected
    with pytest.raises(ValueError):
        matrix.evaluate(left, (ring.one,))


def test_pairing_is_sesquilinear():
    triad = SurfaceTriad(0, 4, 0, 2)
    matrix = delta_pairing(triad, "in")
    ring = matrix.ring
    rng = random.Random(3)

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(-2, 2) for _ in range(ring.rank))
            terms[exps] = rng.randint(-4, 4)
        return ring.element(terms)

    d = dimension(triad)
    for _ in range(200):
        r = rand_elem()
        v = tuple(rand_elem() for _ in range(d))
        w = tuple(rand_elem() for _ in range(d))
        rv = tuple(r * entry for entry in v)
        rw = tuple(r * entry for entry in w)
        base = matrix.evaluate(v, w)
        assert matrix.evaluate(rv, w) == r.alpha() * base
        assert matrix.evaluate(v, rw) == r * base


def test_geometric_pairing_matches_closed_form():
    for triad in all_triads(max_l=4, max_m=4):
        system = standard_local_system(triad.points)
        for side in ("in", "out"):
            lf_images = basis(triad, side, "lf_image")
            relatives = basis(triad, side, "relative")
            for left in lf_images:
                for right in relatives:
                    geometric = geometric_pairing(triad, side, left, right, system)
                    closed = closed_form_pairing(
                        left.composition, right.composition, system.u
                    )
                    assert geometric == closed


def test_geometric_pairing_matrix_is_diagonal():
    triad = SurfaceTriad(0, 3, 0, 3)
    system = standard_local_system(triad.points)
    matrix = geometric_pairing_matrix(triad, "in", system)
    ring = system.ring
    u = system.u
    for i, e in enumerate(compositions(triad.arc_count, 3)):
        for j in range(dimension(triad)):
            if i != j:
                assert matrix.entries[i][j] == ring.zero
        product = ring.one
        for part in e:
            product = product * quantum_factorial(part, u)
        assert matrix.entries[i][i] == product


def test_geometric_pairing_rejects_wrong_flavours():
    triad = SurfaceTriad(0, 3, 0, 2)
    system = standard_local_system(triad.points)
    relative = basis(triad, "in", "relative")[0]
    lf_image = basis(triad, "in", "lf_image")[0]
    with pytest.raises(ValueError):
        geometric_pairing(triad, "in", relative, relative, system)
    with pytest.raises(ValueError):
        geometric_pairing(triad, "in", lf_image, lf_image, system)


def test_geometric_pairing_rejects_compositions_of_different_lengths():
    triad = SurfaceTriad(0, 3, 0, 2)
    system = standard_local_system(triad.points)
    lf_image = BasisClass("in", "lf_image", (1, 1))
    relative = BasisClass("in", "relative", (1, 1, 0))
    with pytest.raises(ValueError, match="^composition lengths differ: 2 vs 3$"):
        geometric_pairing(triad, "in", lf_image, relative, system)


TRIAD_0302 = "the triad (g=0, n=3, k=0, m=2)"


@pytest.mark.parametrize("side, left, right, message", [
    ("sideways", ("in", (1, 1)), ("in", (1, 1)),
     "side must be one of ('in', 'out'), got 'sideways'"),
    ("in", ("out", (1, 1)), ("in", (1, 1)), "U~[1,1]@out lies on side 'out', not 'in'"),
    ("out", ("out", (1, 1)), ("in", (1, 1)), "U[1,1]@in lies on side 'in', not 'out'"),
    ("in", ("in", (5, 0, 0, 0)), ("in", (5, 0, 0, 0)),
     f"G~[5,0,0,0]@in is not a basis class of {TRIAD_0302}"),
    ("in", ("in", (1, 0)), ("in", (1, 0)), f"G~[1,0]@in is not a basis class of {TRIAD_0302}"),
    ("out", ("out", (2, 0)), ("out", (2, 1)), f"G[2,1]@out is not a basis class of {TRIAD_0302}"),
], ids=["side", "left-side", "right-side", "arc-count", "point-count", "right-point-count"])
def test_geometric_pairing_refuses_classes_outside_the_triad_and_side(side, left, right, message):
    """A side outside SIDES, a class on another side, and a class of the wrong
    arc count or point count are refused, each naming the class at fault."""
    triad = SurfaceTriad(0, 3, 0, 2)
    system = standard_local_system(triad.points)
    lf_image = BasisClass(left[0], "lf_image", left[1])
    relative = BasisClass(right[0], "relative", right[1])
    with pytest.raises(ValueError) as refusal:
        geometric_pairing(triad, side, lf_image, relative, system)
    assert str(refusal.value) == message


def test_local_intersection_sum_is_the_quantum_factorial():
    ring = LaurentRing(1, Integers(), ("u",))
    u = ring.var("u")
    for r in range(1, 8):
        assert local_intersection_sum(r, u) == quantum_factorial(r, u)


def test_local_intersection_sum_refuses_more_than_nine_points_before_enumerating(monkeypatch):
    import braidhom.pairing

    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(braidhom.pairing, "permutations", refuse)
    u = LaurentRing(1, Integers(), ("u",)).var("u")
    with pytest.raises(ValueError) as refusal:
        local_intersection_sum(10, u)
    assert str(refusal.value) == ("an arc with 10 points has 10! bijections to enumerate;"
                                  " the bound is 9 points per arc")


def test_inversions_agrees_with_brute_force():
    for r in range(6):
        for perm in permutations(range(r)):
            expected = sum(
                1
                for i in range(r)
                for j in range(i + 1, r)
                if perm[i] > perm[j]
            )
            assert inversions(perm) == expected



def test_pairings_refuse_a_matrix_past_the_entry_bound_before_building(monkeypatch):
    import braidhom.pairing

    def refuse(*args):
        raise AssertionError("built")

    monkeypatch.setattr(braidhom.pairing, "identity", refuse)
    monkeypatch.setattr(braidhom.pairing, "compositions", refuse)
    triad = SurfaceTriad(0, 3, 0, 100000)  # two arcs: d = 100001
    for build in (lambda: delta_pairing(triad, "in"),
                  lambda: geometric_pairing_matrix(triad, "in", standard_local_system(100000))):
        with pytest.raises(ValueError) as refusal:
            build()
        assert str(refusal.value) == ("a 100001x100001 pairing matrix exceeds the bound of"
                                      " 10000000 entries")


def test_pairings_admit_a_matrix_at_the_entry_bound(monkeypatch):
    import braidhom.pairing

    monkeypatch.setattr(braidhom.pairing, "MAX_ENTRIES", 25)
    at, past = SurfaceTriad(0, 3, 0, 4), SurfaceTriad(0, 3, 0, 5)  # d = 5 and 6
    assert len(delta_pairing(at, "in").entries) == 5
    assert len(geometric_pairing_matrix(at, "in", standard_local_system(4)).entries) == 5
    with pytest.raises(ValueError, match="a 6x6 pairing matrix"):
        delta_pairing(past, "in")
    with pytest.raises(ValueError, match="a 6x6 pairing matrix"):
        geometric_pairing_matrix(past, "in", standard_local_system(5))
