"""Tests for twisted circle homology, specialization, and covering checks."""

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhom.fields import ComplexApprox, IntegersModP, Rationals
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
from braidhom.linalg import invert, mat_mul, rank, specialize_matrix
from braidhom.ring import Integers, LaurentRing
from braidhom.surfaces import LocalSystem, SurfaceTriad, disc_triad, standard_local_system

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


def test_large_rational_entries_rank_without_fraction_growth():
    """Entries x^(500000 - 7i - 3j) + (i + 2j + 1) at x = 1/3, each about 790,000 bits: the
    2x2 matrix is invertible.  Eliminating on Fractions took seconds; integer rows do not."""
    boundary = [[f"x^{500000 - 7 * i - 3 * j} + {i + 2 * j + 1}" for j in range(2)]
                for i in range(2)]
    cpx = complex_from_json({"schema": 1, "variables": ["x"], "ranks": [2, 2],
                             "boundaries": [boundary]})
    point = SpecializationPoint({"x": Fraction(1, 3)}, Rationals())
    assert homology_ranks_at(cpx, point) == (0, 0)


@pytest.mark.parametrize("direction", ["homological", "cohomological"])
def test_one_specialization_per_complex_refuses_the_first_power_past_the_budget(
        direction, monkeypatch):
    """Both boundaries go through one specialize_matrix call, in boundary order, so the
    refusal names the first boundary's power, as one call per boundary did."""
    x = LaurentRing(1, Integers(), ("x",)).var("x")
    a, b = x ** 2_000_000, x ** 3_000_000
    first, second = ((a, a),), ((b,), (-b,))  # first * second = 0
    if direction == "cohomological":
        first, second = tuple(zip(*first)), tuple(zip(*second))
    cpx = FiniteChainComplex(x.ring, (1, 2, 1), (first, second), direction)
    calls = []

    def counted(*args):
        calls.append(args)
        return specialize_matrix(*args)

    monkeypatch.setattr("braidhom.homology.specialize_matrix", counted)
    with pytest.raises(ValueError, match="the power 2000000 of 3/2 is past the work budget"):
        homology_ranks_at(cpx, SpecializationPoint({"x": Fraction(3, 2)}, Rationals()))
    assert homology_ranks_at(cpx, SpecializationPoint({"x": 5}, IntegersModP(7))) == (0, 0, 0)
    assert len(calls) == 2


@pytest.mark.parametrize("direction", ["homological", "cohomological"])
@pytest.mark.parametrize("row", [0, 1])
def test_a_non_finite_specialized_value_is_refused_by_rank(direction, row):
    """x^3 - x^2 at x = 1e200 is nan, in the given row of boundary 0; ranks come before
    the composite check, so `rank` refuses it whatever the composite check would say."""
    ring = LaurentRing(1, Integers(), ("x",))
    z, o, f = ring.zero, ring.one, ring.var("x") ** 3 - ring.var("x") ** 2
    first = tuple((f if r == row else z, z) for r in range(2))
    if direction == "homological":  # first * second = 0: f meets the 0 of second
        second = ((z,), (o,))
    else:  # second * first = 0: the 1 of second meets the zero row of first
        second = ((o, z) if row else (z, o),)
    cpx = FiniteChainComplex(ring, (2, 2, 1), (first, second), direction)
    point = SpecializationPoint({"x": 1e200 + 0j}, ComplexApprox())
    with pytest.raises(ValueError) as refusal:
        homology_ranks_at(cpx, point)
    assert str(refusal.value) == "cannot take the rank of a matrix with non-finite entries"


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


def _unitriangular(rng, size, density=0.2):
    """A sparse unit upper triangular integer matrix and its inverse (back substitution)."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < density:
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


# Each field's point, and probe entries over Z as {exponent: coefficient} with whether
# the entry vanishes there: exactly over Q and F_p, within tolerance at 1.5 + 1e-12j.
SPARSE_POINTS = {
    "Q": (SpecializationPoint({"x": Fraction(3, 2)}, Rationals()),
          (({1: 2, 0: -3}, True), ({1: 1}, False))),
    "F_p": (SpecializationPoint({"x": 5}, IntegersModP(1_000_003)),
            (({1: 1, 0: -5}, True), ({1: 1, 0: -4}, False))),
    "C near 3/2": (SpecializationPoint({"x": 1.5 + 1e-12j}, ComplexApprox()),
                   (({1: 2, 0: -3}, True), ({1: 1}, False))),
    "C on the circle": (SpecializationPoint({"x": cmath.exp(0.7j)}, ComplexApprox()),
                        (({1: 1, 0: -1}, False),)),
}
# At this point the cubic block's composite rounds to about 1e-4 against entries near
# 1e12 and 1e8, so a tolerance of 1e-300 refuses it whatever else the complex holds.
DRIFT_POINT = SpecializationPoint({"x": 12345.6789 + 0.123456789j}, ComplexApprox(1e-300))


def _dense_betti(cpx, point):
    """Betti numbers from the whole boundaries: every entry specialized, the composites
    summed over every index, ranks of dense rows."""
    k = point.field
    maps = [specialize_matrix(b, point.mapping, k) for b in cpx.boundaries]
    if not k.is_exact:
        for i in range(len(maps) - 1):
            a, b = maps[i], maps[i + 1]
            if cpx.direction == "cohomological":
                a, b = b, a
            if a and a[0] and b and b[0] and _dense_composite_drifts(a, b, k.tolerance):
                raise ValueError(f"specialized boundaries {i}, {i + 1} no longer compose to zero")
    ranks = [rank(m, k) for m in maps]
    return tuple(r - (ranks[i - 1] if i else 0) - (ranks[i] if i < len(ranks) else 0)
                 for i, r in enumerate(cpx.ranks))


def _block_sum(blocks, ring):
    """The block-diagonal matrix of integer-exponent blocks {(i, j): {e: c}} of given shapes."""
    rows = sum(h for h, _, _ in blocks)
    cols = sum(w for _, w, _ in blocks)
    out = [[ring.zero] * cols for _ in range(rows)]
    top = left = 0
    for h, w, entries in blocks:
        for (i, j), terms in entries.items():
            out[top + i][left + j] = ring.element({(e,): c for e, c in terms.items()})
        top, left = top + h, left + w
    return tuple(map(tuple, out))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(SPARSE_POINTS)),
       st.sampled_from(["homological", "cohomological"]), st.integers(0, 2**32))
def test_sparse_ranks_match_the_construction_and_a_dense_reference(data, field, direction, seed):
    """C2 -> C1 -> C0 as L E1 U and U^-1 E2 V, twisted (as `_leu_complex`, and as the
    membership-ranks benchmark builds them), sizes and ranks from 0, plus optional blocks:
    a probe R -> R in degrees 1 -> 0 whose entry may vanish at the point, and the cubic
    block whose specialized composite drifts, which must be refused."""
    rng = random.Random(seed)
    point, probes = SPARSE_POINTS[field]
    a0, a2 = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    a1 = data.draw(st.integers(max(a0, a2), 7))
    r1 = data.draw(st.integers(0, min(a0, a1)))
    r2 = data.draw(st.integers(0, min(a2, a1 - r1)))
    e1 = [[int(i == j < r1) for j in range(a1)] for i in range(a0)]
    e2 = [[int(i - r1 == j < r2) for j in range(a2)] for i in range(a1)]
    density = data.draw(st.sampled_from([0.15, 0.5]))  # the benchmark's, and rows of several
    lower = [list(col) for col in zip(*_unitriangular(rng, a0, density)[0])]
    u, u_inverse = _unitriangular(rng, a1, density)
    d1 = _int_mul(lower, _int_mul(e1, u))
    d2 = _int_mul(u_inverse, _int_mul(e2, _unitriangular(rng, a2, density)[0]))
    t = [[rng.randint(-3, 3) for _ in range(size)] for size in (a0, a1, a2)]
    blocks1 = [(a0, a1, {(i, j): {t[0][i] - t[1][j]: v} for i, row in enumerate(d1)
                         for j, v in enumerate(row) if v})]
    blocks2 = [(a1, a2, {(i, j): {t[1][i] - t[2][j]: v} for i, row in enumerate(d2)
                         for j, v in enumerate(row) if v})]
    ranks, betti = [a0, a1, a2], [a0 - r1, a1 - r1 - r2, a2 - r2]
    probe, vanishes = data.draw(st.sampled_from(((None, False),) + probes))
    if probe is not None:
        shift = rng.randint(-2, 2)
        blocks1.append((1, 1, {(0, 0): {e + shift: c for e, c in probe.items()}}))
        blocks2.append((1, 0, {}))
        ranks, betti = [ranks[0] + 1, ranks[1] + 1, ranks[2]], [betti[0] + vanishes,
                                                                 betti[1] + vanishes, betti[2]]
    drift = data.draw(st.booleans())
    if drift:
        point = DRIFT_POINT
        blocks1.append((1, 2, {(0, 0): {3: 1, 1: 1}, (0, 1): {1: -1}}))
        blocks2.append((2, 1, {(0, 0): {0: 1}, (1, 0): {2: 1, 0: 1}}))
        ranks = [ranks[0] + 1, ranks[1] + 2, ranks[2] + 1]
    ring = LaurentRing(1, Integers(), ("x",))
    boundaries = [_block_sum(blocks, ring) for blocks in (blocks1, blocks2)]
    if direction == "cohomological":  # the transposed maps, with the same Betti numbers
        boundaries = [tuple(zip(*b)) if b else ((),) * sum(w for _, w, _ in blocks)
                      for b, blocks in zip(boundaries, (blocks1, blocks2))]
    cpx = FiniteChainComplex(ring, ranks, boundaries, direction)
    if drift:
        with pytest.raises(ValueError, match="no longer compose to zero"):
            _dense_betti(cpx, point)
        with pytest.raises(ValueError, match="no longer compose to zero"):
            homology_ranks_at(cpx, point)
        return
    assert homology_ranks_at(cpx, point) == _dense_betti(cpx, point) == tuple(betti)


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


def test_construction_refuses_in_order_with_its_messages():
    """Each boundary's shape, then its ring, then the composites: the first fault is named."""
    ring, other = LaurentRing(1, Integers(), ("x",)), LaurentRing(1, Rationals(), ("x",))
    o, x = ring.one, ring.var("x")
    mismatch = f"ring context mismatch: {ring} vs {other}"
    cases = [
        ((1, 1), (), "homological", "expected 1 boundary matrices, got 0"),
        ((1, -1), (((o,),),), "homological", "negative rank"),
        ((1, 1), (((o,),),), "diagonal", f"direction must be one of {('homological', 'cohomological')}"),
        ((1, 1, 1), (((o, o),), ((other.one,),)), "homological", "boundary 0 is not 1x1"),
        ((1, 1, 1), (((other.zero,),), ((o, o),)), "homological", mismatch),
        ((1, 1, 1), (((o,),), ((o, o),)), "homological", "boundary 1 is not 1x1"),
        ((1, 1, 1), (((x,),), ((other.zero,),)), "homological", mismatch),
        ((1, 2, 1), (((o, x),), ((x,), (o,))), "homological",
         "boundaries 0 and 1 do not compose to zero"),
        ((1, 2, 1), (((x,), (o,)), ((o, x),)), "cohomological",
         "boundaries 0 and 1 do not compose to zero"),
    ]
    for ranks, boundaries, direction, message in cases:
        with pytest.raises(ValueError) as refusal:
            FiniteChainComplex(ring, ranks, boundaries, direction)
        assert str(refusal.value) == message


def test_the_nonzero_entries_are_not_a_field():
    ring = LaurentRing(1, Integers(), ("x",))
    x, z = ring.var("x"), ring.zero
    boundary = ((x, z), (z, z))
    cpx = FiniteChainComplex(ring, (2, 2), (boundary,))
    same = FiniteChainComplex(ring, [2, 2], [[list(row) for row in boundary]])
    assert cpx == same
    assert repr(cpx) == ("FiniteChainComplex(ring=" + repr(ring) + ", ranks=(2, 2), boundaries="
                         + repr((boundary,)) + ", direction='homological')")
    assert complex_to_json(cpx) == complex_to_json(same) == {
        "schema": 1, "direction": "homological", "coefficients": "integers",
        "variables": ["x"], "ranks": [2, 2], "boundaries": [[["x", "0"], ["0", "0"]]]}


@pytest.mark.parametrize("k", [Integers(), Rationals(), IntegersModP(7)])
def test_composites_are_checked_over_each_exact_ring(k):
    """d1 d2 cancels everywhere (x - x, x^2 - x^2) but, once d2 gains a last entry, in its
    last row and last column, where the composite is 1: refused in both directions."""
    ring = LaurentRing(1, k, ("x",))
    x, o, z = ring.var("x"), ring.one, ring.zero
    d1 = ((o, -x, z), (x, -x * x, z), (z, z, o))
    d2 = ((x, z, z), (o, z, z), (z, z, z))
    FiniteChainComplex(ring, (3, 3, 3), (d1, d2), "homological")
    FiniteChainComplex(ring, (3, 3, 3), (d2, d1), "cohomological")
    d2 = ((x, z, z), (o, z, z), (z, z, o))
    with pytest.raises(ValueError, match="boundaries 0 and 1 do not compose to zero"):
        FiniteChainComplex(ring, (3, 3, 3), (d1, d2), "homological")
    with pytest.raises(ValueError, match="boundaries 0 and 1 do not compose to zero"):
        FiniteChainComplex(ring, (3, 3, 3), (d2, d1), "cohomological")
    if isinstance(k, IntegersModP):  # 7 = 0 mod 7: the composite 7 vanishes
        d2 = ((x, z, z), (o, z, z), (z, z, ring.scalar(7)))
        FiniteChainComplex(ring, (3, 3, 3), (d1, d2), "homological")


@pytest.mark.parametrize("ranks", [(2, 0, 3), (0, 2, 3), (2, 3, 0), (0, 0, 0)])
def test_boundaries_with_no_rows_or_no_columns_are_accepted(ranks):
    ring = LaurentRing(1, Integers(), ("x",))

    def full(rows, cols):
        return tuple(tuple(ring.var("x") for _ in range(cols)) for _ in range(rows))

    a0, a1, a2 = ranks
    for direction, d1, d2 in (("homological", full(a0, a1), full(a1, a2)),
                              ("cohomological", full(a1, a0), full(a2, a1))):
        cpx = FiniteChainComplex(ring, ranks, (d1, d2), direction)
        point = SpecializationPoint({"x": Fraction(2)}, Rationals())
        nonzero = [int(bool(d and d[0])) for d in (d1, d2)]
        assert homology_ranks_at(cpx, point) == (a0 - nonzero[0], a1 - sum(nonzero),
                                                 a2 - nonzero[1])


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
