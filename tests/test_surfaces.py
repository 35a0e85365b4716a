"""Surface triads, basis labels, local systems."""

from math import comb

import pytest

from braidhom.compositions import compositions
from braidhom.fields import IntegersModP
from braidhom.ring import LaurentRing
from braidhom.surfaces import (
    FLAVOURS,
    SIDES,
    BasisClass,
    LocalSystem,
    SurfaceTriad,
    basis,
    check_homogeneity,
    dimension,
    standard_local_system,
)


def all_triads(max_l, max_m, max_g=2, max_n=6, max_k=5):
    for g in range(max_g + 1):
        for n in range(1, max_n + 1):
            for k in range(max_k + 1):
                l = n - 1 + k + 2 * g
                if not 1 <= l <= max_l:
                    continue
                for m in range(1, max_m + 1):
                    yield SurfaceTriad(g, n, k, m)


def test_arc_count_formula():
    assert SurfaceTriad(0, 3, 0, 2).arc_count == 2
    assert SurfaceTriad(1, 2, 1, 1).arc_count == 4
    assert SurfaceTriad(2, 1, 0, 3).arc_count == 4


def test_degenerate_triads_rejected():
    with pytest.raises(ValueError):
        SurfaceTriad(0, 1, 0, 1)  # no arcs
    with pytest.raises(ValueError):
        SurfaceTriad(-1, 2, 0, 1)
    with pytest.raises(ValueError):
        SurfaceTriad(0, 0, 2, 1)
    with pytest.raises(ValueError):
        SurfaceTriad(0, 2, 0, 0)


def test_dimension_is_binomial():
    for triad in all_triads(6, 5):
        l, m = triad.arc_count, triad.points
        assert dimension(triad) == comb(m + l - 1, m)


def test_all_four_bases_share_the_dimension():
    for triad in all_triads(6, 5):
        sizes = {
            len(basis(triad, side, flavour))
            for side in SIDES
            for flavour in ("relative", "locally_finite")
        }
        assert sizes == {dimension(triad)}


def test_disc_dimensions_match_burau_and_lkb():
    for n in range(2, 13):
        assert dimension(SurfaceTriad(0, n, 0, 1)) == n - 1
        assert dimension(SurfaceTriad(0, n, 0, 2)) == n * (n - 1) // 2


def test_basis_is_in_composition_order():
    triad = SurfaceTriad(0, 3, 0, 2)
    classes = basis(triad, "in", "locally_finite")
    assert [c.composition for c in classes] == compositions(2, 2)


def test_class_labels():
    assert str(BasisClass("in", "locally_finite", (2, 0, 1))) == "D[2,0,1]@in"
    assert str(BasisClass("in", "relative", (1, 1))) == "U[1,1]@in"
    assert str(BasisClass("out", "relative", (0, 2))) == "G[0,2]@out"
    with pytest.raises(ValueError):
        BasisClass("in", "nonsense", (1,))
    with pytest.raises(ValueError):
        BasisClass("middle", "relative", (1,))


def test_standard_local_system_shapes():
    one_point = standard_local_system(1)
    assert one_point.ring.variables == ("x",)
    assert one_point.u == one_point.ring.one
    two_point = standard_local_system(2)
    assert two_point.ring.variables == ("x", "d")
    assert two_point.u == two_point.ring.var("d")


def test_homogeneity_guard():
    triad = SurfaceTriad(0, 3, 0, 1)
    bad_ring = LaurentRing(2, IntegersModP(5), ("x", "d"))
    bad = LocalSystem(bad_ring, bad_ring.var("d"))
    with pytest.raises(ValueError):
        check_homogeneity(triad, bad)
    check_homogeneity(triad, standard_local_system(1))


def test_local_system_requires_unit():
    ring = LaurentRing(2, IntegersModP(5), ("x", "d"))
    with pytest.raises(ValueError):
        LocalSystem(ring, ring.one + ring.var("d"))
