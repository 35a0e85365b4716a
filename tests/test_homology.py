"""Tests for twisted circle homology, specialization, and covering checks."""

import cmath
import random
from fractions import Fraction

import pytest

from braidhom.braid import disc_triad
from braidhom.homology import (
    FiniteChainComplex,
    SpecializationPoint,
    circle_cohomology,
    circle_complex,
    complex_from_json,
    complex_to_json,
    genericity_check,
    homology_ranks_at,
    shapiro_circle_check,
    shapiro_double_cover_check,
)
from braidhom.linalg import invert, mat_mul, specialize_matrix
from braidhom.ring import (
    ComplexApprox,
    Integers,
    IntegersModP,
    LaurentRing,
    Rationals,
)
from braidhom.surfaces import LocalSystem, SurfaceTriad, standard_local_system

from test_linalg import random_unimodular

ZZ = LaurentRing(2, Integers(), ("x", "d"))


def test_circle_cohomology_trivial_monodromy():
    # monodromy 1: the complex has zero differential, both groups are R
    h0, h1 = circle_cohomology(ZZ.one)
    assert not h0.is_zero()
    assert not h1.is_zero()
    assert h0.describe() == "R"
    assert h1.describe() == "R"


def test_circle_cohomology_unit_minus_one_monodromy():
    # monodromy 2 over Q: 1 - 2 = -1 is a unit, both groups vanish
    ring = LaurentRing(1, Rationals(), ("x",))
    h0, h1 = circle_cohomology(ring.scalar(2))
    assert h0.is_zero()
    assert h1.is_zero()
    assert h1.describe() == "0"


def test_circle_cohomology_generic_monodromy():
    # monodromy x: kernel of 1-x vanishes, cokernel is R/(1 - x)
    ring = LaurentRing(1, Integers(), ("x",))
    h0, h1 = circle_cohomology(ring.var("x"))
    assert h0.is_zero()
    assert not h1.is_zero()
    assert h1.describe() == "R/(1 - x)"


def test_circle_cohomology_requires_unit_monodromy():
    ring = LaurentRing(1, Integers(), ("x",))
    with pytest.raises(ValueError):
        circle_cohomology(ring.one + ring.var("x"))


def _random_unit(ring, rng):
    coeffs = ring.coefficients
    exps = tuple(rng.randint(-3, 3) for _ in range(ring.rank))
    if isinstance(coeffs, Integers):
        c = rng.choice((1, -1))
    elif isinstance(coeffs, Rationals):
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    else:
        c = rng.randint(1, coeffs.p - 1)
    return ring.element({exps: c})


def test_h1_vanishes_exactly_when_one_minus_monodromy_is_a_unit():
    rng = random.Random(12)
    rings = [
        LaurentRing(2, Integers(), ("x", "d")),
        LaurentRing(2, Rationals(), ("x", "d")),
        LaurentRing(1, IntegersModP(5), ("x",)),
    ]
    for ring in rings:
        for _ in range(100):
            monodromy = _random_unit(ring, rng)
            h0, h1 = circle_cohomology(monodromy)
            a = ring.one - monodromy
            assert h1.is_zero() == a.is_unit()
            # over these domains H^0 vanishes unless the monodromy is 1
            assert h0.is_zero() == (not a.is_zero())


def test_homology_ranks_at_rational_points():
    ring = LaurentRing(1, Rationals(), ("x",))
    cpx = circle_complex(ring.var("x"))
    at_two = SpecializationPoint({"x": Fraction(2)}, Rationals())
    assert homology_ranks_at(cpx, at_two) == (0, 0)
    at_one = SpecializationPoint({"x": Fraction(1)}, Rationals())
    assert homology_ranks_at(cpx, at_one) == (1, 1)


def test_homology_ranks_at_complex_points():
    field = ComplexApprox()
    ring = LaurentRing(1, Integers(), ("x",))
    cpx = circle_complex(ring.var("x"))
    generic = SpecializationPoint({"x": 0.3 + 0.4j}, field)
    assert homology_ranks_at(cpx, generic) == (0, 0)
    degenerate = SpecializationPoint({"x": 1.0 + 0.0j}, field)
    assert homology_ranks_at(cpx, degenerate) == (1, 1)


def test_specialized_composite_is_checked_relative_to_its_entries():
    cpx = complex_from_json({"schema": 1, "variables": ["x"], "ranks": [1, 2, 1],
                             "boundaries": [[["x^3 + x", "-x"]], [["1"], ["x^2 + 1"]]]})
    x = 12345.6789 + 0.123456789j
    assert homology_ranks_at(cpx, SpecializationPoint({"x": x}, ComplexApprox())) == (0, 0, 0)
    with pytest.raises(ValueError, match="no longer compose to zero"):
        homology_ranks_at(cpx, SpecializationPoint({"x": x}, ComplexApprox(1e-300)))


def test_homology_ranks_zero_maps():
    ring = LaurentRing(1, Rationals(), ("x",))
    z = ring.zero
    cpx = FiniteChainComplex(
        ring,
        (3, 2),
        (tuple((z, z) for _ in range(3)),),
        "homological",
    )
    point = SpecializationPoint({"x": Fraction(7)}, Rationals())
    assert homology_ranks_at(cpx, point) == (3, 2)


def test_homology_ranks_require_full_assignment():
    cpx = circle_complex(ZZ.var("x"))
    point = SpecializationPoint({"x": Fraction(2)}, Rationals())
    with pytest.raises(ValueError):
        homology_ranks_at(cpx, point)


def test_homology_ranks_are_chain_isomorphism_invariant():
    rng = random.Random(13)
    ring = LaurentRing(2, Integers(), ("x", "d"))
    x = ring.var("x")
    z = ring.zero
    # d1 . d2 = 0 by construction: d1 hits only coordinate 0, d2 only 1.
    d1 = ((x, z, z), (z, z, z), (z, z, z))
    d2 = ((z, z, z), (z, ring.one + x, z), (z, z, z))
    base = FiniteChainComplex(ring, (3, 3, 3), (d1, d2), "homological")
    point = SpecializationPoint(
        {"x": Fraction(2), "d": Fraction(3)}, Rationals()
    )
    expected = homology_ranks_at(base, point)
    assert expected == (2, 1, 2)
    for _ in range(50):
        u0 = random_unimodular(ring, 3, rng)
        u1 = random_unimodular(ring, 3, rng)
        u2 = random_unimodular(ring, 3, rng)
        moved = FiniteChainComplex(
            ring,
            (3, 3, 3),
            (
                tuple(map(tuple, mat_mul(mat_mul(u0, d1), invert(u1, ring)))),
                tuple(map(tuple, mat_mul(mat_mul(u1, d2), invert(u2, ring)))),
            ),
            "homological",
        )
        assert homology_ranks_at(moved, point) == expected


def _unitriangular(rng, size):
    """A sparse unit upper triangular integer matrix and its inverse (back substitution)."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.2:
                m[i][j] = rng.choice((-1, 1))
    inverse = [[0] * size for _ in range(size)]
    for col in range(size):
        for i in reversed(range(size)):
            inverse[i][col] = int(i == col) - sum(m[i][j] * inverse[j][col]
                                                  for j in range(i + 1, size))
    return m, inverse


def _int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _leu_complex(rng):
    """C2 -> C1 -> C0 over Z[x^+-1] with d1 = L E1 U and d2 = U^-1 E2 V, and its Betti numbers.

    L is unit lower and U, V unit upper triangular; E1 and E2 are 0/1 diagonal
    blocks with E1 E2 = 0, so d1 d2 = 0, rank d1 = r1 and rank d2 = r2 over
    every field.  Each entry (i, j) is then twisted by x^(t[i] - t'[j]), which
    keeps the composite zero and, at a nonzero point, the ranks.
    """
    a0, a2 = rng.randint(1, 7), rng.randint(1, 7)
    a1 = rng.randint(max(a0, a2), 10)
    r1 = rng.randint(0, min(a0, a1))
    r2 = rng.randint(0, min(a2, a1 - r1))
    e1 = [[int(i == j < r1) for j in range(a1)] for i in range(a0)]
    e2 = [[int(i - r1 == j < r2) for j in range(a2)] for i in range(a1)]
    lower = [list(col) for col in zip(*_unitriangular(rng, a0)[0])]
    u, u_inverse = _unitriangular(rng, a1)
    d1 = _int_mul(lower, _int_mul(e1, u))
    d2 = _int_mul(u_inverse, _int_mul(e2, _unitriangular(rng, a2)[0]))
    ring = LaurentRing(1, Integers(), ("x",))
    t = [[rng.randint(-2, 2) for _ in range(size)] for size in (a0, a1, a2)]
    boundaries = tuple(
        tuple(tuple(ring.monomial((t[k][i] - t[k + 1][j],), v) if v else ring.zero
                    for j, v in enumerate(row)) for i, row in enumerate(d))
        for k, d in enumerate((d1, d2))
    )
    return ring, (a0, a1, a2), boundaries, (a0 - r1, a1 - r1 - r2, a2 - r2)


LEU_POINTS = (
    SpecializationPoint({"x": Fraction(3, 2)}, Rationals()),
    SpecializationPoint({"x": 5}, IntegersModP(1_000_003)),
    SpecializationPoint({"x": cmath.exp(0.7j)}, ComplexApprox()),
)


@pytest.mark.parametrize("seed", range(40))
def test_homology_ranks_of_leu_complexes(seed):
    ring, ranks, boundaries, betti = _leu_complex(random.Random(seed))
    homological = FiniteChainComplex(ring, ranks, boundaries, "homological")
    # The transposed maps read cohomologically have the same Betti numbers.
    dual = tuple(tuple(zip(*d)) for d in boundaries)
    cohomological = FiniteChainComplex(ring, ranks, dual, "cohomological")
    for point in LEU_POINTS:
        assert homology_ranks_at(homological, point) == betti
        assert homology_ranks_at(cohomological, point) == betti


def _dense_composite_drifts(a, b, tolerance):
    """Whether some entry of a b, summed over every inner index, exceeds tolerance times the
    largest entries of a and b: the composite check entry by entry, as a test oracle."""
    scale = max(abs(v) for row in a for v in row) * max(abs(v) for row in b for v in row)
    return any(abs(sum(x * y for x, y in zip(row, col))) > tolerance * scale
               for row in a for col in zip(*b))


@pytest.mark.parametrize("seed", range(40))
def test_the_composite_check_agrees_with_a_dense_sum(seed):
    ring, ranks, boundaries, betti = _leu_complex(random.Random(seed))
    cpx = FiniteChainComplex(ring, ranks, boundaries, "homological")
    for tolerance in (1e-9, 1e-17, 1e-300):
        point = SpecializationPoint({"x": cmath.exp(0.7j)}, ComplexApprox(tolerance))
        a, b = (specialize_matrix(d, point.mapping, point.field) for d in boundaries)
        if _dense_composite_drifts(a, b, tolerance):
            with pytest.raises(ValueError, match="no longer compose to zero"):
                homology_ranks_at(cpx, point)
        elif tolerance == 1e-9:  # below rounding, rank itself counts noise as rank
            assert homology_ranks_at(cpx, point) == betti
        else:
            homology_ranks_at(cpx, point)


def test_complex_validation():
    ring = LaurentRing(1, Integers(), ("x",))
    one = ring.one
    z = ring.zero
    with pytest.raises(ValueError):
        FiniteChainComplex(ring, (1, 1, 1), (((one,),), ((one,),)), "homological")
    with pytest.raises(ValueError):
        FiniteChainComplex(ring, (2, 1), (((one,),),), "homological")
    with pytest.raises(ValueError):
        FiniteChainComplex(ring, (1, 1), (((one,),),), "diagonal")
    other = LaurentRing(1, Rationals(), ("x",))
    with pytest.raises(ValueError):
        FiniteChainComplex(ring, (1, 1), (((other.one,),),), "homological")
    # zero-dimensional middle degree: the composite is empty, not an error
    FiniteChainComplex(ring, (1, 0, 1), (((),), ()), "homological")


def test_direction_changes_which_map_is_which():
    ring = LaurentRing(1, Rationals(), ("x",))
    x = ring.var("x")
    boundary = (((ring.one - x,),),)
    point = SpecializationPoint({"x": Fraction(1)}, Rationals())
    homological = FiniteChainComplex(ring, (1, 1), boundary, "homological")
    cohomological = FiniteChainComplex(ring, (1, 1), boundary, "cohomological")
    # at x = 1 the map vanishes, so both readings give full ranks
    assert homology_ranks_at(homological, point) == (1, 1)
    assert homology_ranks_at(cohomological, point) == (1, 1)
    regular = SpecializationPoint({"x": Fraction(5)}, Rationals())
    assert homology_ranks_at(homological, regular) == (0, 0)
    assert homology_ranks_at(cohomological, regular) == (0, 0)


def test_specialization_point_behaviour():
    point = SpecializationPoint({"x": Fraction(2), "d": Fraction(0)}, Rationals())
    assert point.mapping == {"x": Fraction(2), "d": Fraction(0)}
    assert point.value("x") == Fraction(2)
    assert not point.is_unit_valued()
    assert SpecializationPoint({"x": Fraction(3)}, Rationals()).is_unit_valued()
    with pytest.raises(ValueError):
        SpecializationPoint((("x", Fraction(1)), ("x", Fraction(2))), Rationals())
    with pytest.raises(KeyError):
        point.value("y")


def test_complex_json_round_trip():
    cpx = circle_complex(ZZ.var("x"))
    data = complex_to_json(cpx)
    assert data["schema"] == 1
    back = complex_from_json(data)
    assert back.ring == cpx.ring
    assert back.ranks == cpx.ranks
    assert back.direction == cpx.direction
    assert back.boundaries == cpx.boundaries


def test_genericity_truth_table():
    triad = disc_triad(3, 2)
    system = standard_local_system(2)

    def check(x, d):
        point = SpecializationPoint(
            {"x": Fraction(x), "d": Fraction(d)}, Rationals()
        )
        return genericity_check(triad, system, point)

    assert check(2, 3)
    assert check(-1, 2)
    assert not check(1, 2)
    assert not check(0, 2)
    assert not check(2, 1)
    assert not check(2, 0)


def test_genericity_one_point_system():
    triad = disc_triad(3, 1)
    system = standard_local_system(1)
    good = SpecializationPoint({"x": Fraction(2)}, Rationals())
    bad = SpecializationPoint({"x": Fraction(1)}, Rationals())
    assert genericity_check(triad, system, good)
    assert not genericity_check(triad, system, bad)


def test_genericity_rejects_non_disc_triads():
    system = standard_local_system(1)
    with pytest.raises(ValueError):
        genericity_check(SurfaceTriad(1, 1, 0, 1), system,
                         SpecializationPoint({"x": Fraction(2)}, Rationals()))
    with pytest.raises(ValueError):
        genericity_check(SurfaceTriad(0, 2, 1, 1), system,
                         SpecializationPoint({"x": Fraction(2)}, Rationals()))


def test_shapiro_universal_cover():
    for k in (Integers(), Rationals(), IntegersModP(2), IntegersModP(3),
              IntegersModP(5)):
        verdict = shapiro_circle_check(k)
        assert verdict.matches
        assert bool(verdict)
        assert verdict.untwisted == ("k", "0")
        assert verdict.twisted == verdict.untwisted


def test_shapiro_double_cover():
    for k in (Integers(), Rationals(), IntegersModP(2), IntegersModP(3),
              IntegersModP(5)):
        verdict = shapiro_double_cover_check(k)
        assert verdict.matches
        assert verdict.untwisted == ("k", "k")
        assert verdict.twisted == verdict.untwisted
