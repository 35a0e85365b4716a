"""Tests for the completed group ring and helix classes."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhom import completion
from braidhom.completion import (
    RAY_DIRECTIONS,
    SCAN_BUDGET,
    CompletedElement,
    CompletedVector,
    Ray,
    completed_from_json,
    completed_to_json,
    equal,
    helix_class,
    include_group_ring,
    is_in_group_ring,
    is_zero,
    left_circle_helix,
    module_action,
    to_group_ring,
)
from braidhom.compositions import compositions
from braidhom.fields import IntegersModP, Rationals
from braidhom.ring import EXPONENT_BOUND, Integers, LaurentRing
from braidhom.surfaces import disc_triad

RING = LaurentRing(2, Integers(), ("y", "z"))
Y = RING.var("y")
Z = RING.var("z")


def _full_spiral():
    # the two bi-infinite ray families of a helix coordinate: +1 along
    # i*(y+z), -1 along y + i*(y+z)
    one = RING.coefficients.one
    return CompletedElement(
        RING,
        RING.zero,
        (
            Ray(base=(0, 0), step=(1, 1), pattern=(one,), direction="bi"),
            Ray(base=(1, 0), step=(1, 1), pattern=(-one,), direction="bi"),
        ),
    )


def test_include_finite_support():
    a = RING.one + Y
    c = include_group_ring(a)
    assert c.rays == ()
    assert c.coefficient_at((0, 0)) == 1
    assert c.coefficient_at((1, 0)) == 1
    assert c.coefficient_at((0, 1)) == 0
    zero = include_group_ring(RING.zero)
    assert zero.coefficient_at((5, -3)) == 0
    assert is_in_group_ring(zero)


def test_include_round_trips_through_recovery():
    rng = random.Random(21)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exps = (rng.randint(-4, 4), rng.randint(-4, 4))
            terms[exps] = rng.randint(-5, 5)
        a = RING.element(terms)
        c = include_group_ring(a)
        assert is_in_group_ring(c)
        assert to_group_ring(c) == a


def test_include_is_a_module_map():
    rng = random.Random(22)
    for _ in range(200):
        def rand():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = (rng.randint(-3, 3), rng.randint(-3, 3))
                terms[exps] = rng.randint(-4, 4)
            return RING.element(terms)

        r, a = rand(), rand()
        assert equal(include_group_ring(r * a),
                     module_action(r, include_group_ring(a)))


def test_module_action_identity_and_translation():
    c = _full_spiral()
    assert equal(module_action(RING.one, c), c)
    assert equal(module_action(Y, include_group_ring(RING.one)),
                 include_group_ring(Y))


def test_module_action_matches_convolution_coefficients():
    # coefficient_at(g) of r*c is sum_h r_h * c(g - h)
    rng = random.Random(23)
    c = _full_spiral()
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(-2, 2), rng.randint(-2, 2))
            terms[exps] = rng.randint(-3, 3)
        r = RING.element(terms)
        moved = module_action(r, c)
        for _ in range(10):
            g = (rng.randint(-6, 6), rng.randint(-6, 6))
            expected = sum(
                coeff * c.coefficient_at((g[0] - h[0], g[1] - h[1]))
                for h, coeff in r.items()
            )
            assert moved.coefficient_at(g) == expected


def test_one_minus_y_times_full_ray_is_the_spiral():
    # (1 - y) . sum_i (yz)^i has +1 on the diagonal lattice line and -1 on
    # its y-translate; it does not vanish
    one = RING.coefficients.one
    diagonal = CompletedElement(
        RING, RING.zero, (Ray((0, 0), (1, 1), (one,), "bi"),)
    )
    moved = module_action(RING.one - Y, diagonal)
    for i in range(-10, 11):
        assert moved.coefficient_at((i, i)) == 1
        assert moved.coefficient_at((i + 1, i)) == -1
    assert moved.coefficient_at((2, 0)) == 0
    assert not is_in_group_ring(moved)
    assert equal(moved, _full_spiral())


def test_helix_coefficients():
    triad = disc_triad(3, 1)
    e = compositions(triad.arc_count, 1)[0]
    vector = helix_class(triad, e, (1, 0), (0, 1))
    coordinate = vector.entries[0]
    for i in range(-20, 21):
        assert coordinate.coefficient_at((i, i)) == 1
        assert coordinate.coefficient_at((1 + i, i)) == -1
    assert coordinate.coefficient_at((0, 1)) == 0
    assert coordinate.coefficient_at((-1, 1)) == 0


def test_helix_matches_brute_force_window():
    # truncated expansion sum_{|i| <= N} (1-y)(yz)^i agrees on the box
    # ||g||_inf <= N-1
    n = 20
    truncated = RING.zero
    for i in range(-n, n + 1):
        monomial = RING.element({(i, i): 1})
        truncated = truncated + (RING.one - Y) * monomial
    triad = disc_triad(3, 1)
    e = compositions(triad.arc_count, 1)[0]
    coordinate = helix_class(triad, e, (1, 0), (0, 1)).entries[0]
    for a in range(-(n - 1), n):
        for b in range(-(n - 1), n):
            assert coordinate.coefficient_at((a, b)) == \
                truncated.coefficient((a, b))


def test_helix_is_not_in_the_group_ring():
    triad = disc_triad(3, 1)
    for e in compositions(triad.arc_count, 1):
        vector = helix_class(triad, e, (1, 0), (0, 1))
        for idx, coordinate in enumerate(vector.entries):
            expected = compositions(triad.arc_count, 1)[idx] != e
            assert is_in_group_ring(coordinate) == expected


def test_helix_rejects_degenerate_monodromies():
    triad = disc_triad(3, 1)
    e = compositions(triad.arc_count, 1)[0]
    with pytest.raises(ValueError):
        helix_class(triad, e, (0, 0), (0, 1))
    with pytest.raises(ValueError):
        helix_class(triad, e, (1, 0), (-1, 0))
    with pytest.raises(ValueError):
        helix_class(triad, (5, 5), (1, 0), (0, 1))


def test_left_circle_helix_is_zero():
    triad = disc_triad(3, 1)
    vector = left_circle_helix(triad)
    assert len(vector.entries) == 2
    for coordinate in vector.entries:
        assert is_in_group_ring(coordinate)
        assert is_zero(coordinate)


def test_ray_cancellation_reaches_the_group_ring():
    one = RING.coefficients.one
    ray = Ray((0, 0), (2, 1), (one, -one), "bi")
    c = CompletedElement(RING, RING.one + Y, (ray,))
    d = CompletedElement(RING, RING.zero, (ray,))
    difference = c - d
    assert is_in_group_ring(difference)
    assert to_group_ring(difference) == RING.one + Y


def test_forward_rays_glue_to_a_two_sided_one():
    # a fwd ray from 0 plus a fwd ray running backwards from -step together
    # equal the bi ray: their difference has empty support
    one = RING.coefficients.one
    fwd = Ray((0, 0), (1, 1), (one,), "fwd")
    backward = Ray((-1, -1), (-1, -1), (one,), "fwd")
    bi = Ray((0, 0), (1, 1), (one,), "bi")
    glued = CompletedElement(RING, RING.zero, (fwd, backward))
    whole = CompletedElement(RING, RING.zero, (bi,))
    assert equal(glued, whole)
    assert is_zero(glued - whole)
    assert not is_in_group_ring(glued)


def test_forward_ray_contributes_only_forward():
    one = RING.coefficients.one
    c = CompletedElement(RING, RING.zero, (Ray((0, 0), (1, 0), (one,), "fwd"),))
    assert c.coefficient_at((0, 0)) == 1
    assert c.coefficient_at((3, 0)) == 1
    assert c.coefficient_at((-1, 0)) == 0


def test_overlapping_rays_sum():
    one = RING.coefficients.one
    c = CompletedElement(
        RING,
        RING.one,
        (
            Ray((0, 0), (1, 0), (one,), "bi"),
            Ray((0, 0), (2, 0), (one,), "bi"),
        ),
    )
    # at the origin: finite 1 + both rays
    assert c.coefficient_at((0, 0)) == 3
    assert c.coefficient_at((1, 0)) == 1
    assert c.coefficient_at((2, 0)) == 2


def test_to_group_ring_refuses_infinite_support():
    with pytest.raises(ValueError):
        to_group_ring(_full_spiral())


def test_ray_validation():
    one = RING.coefficients.one
    with pytest.raises(ValueError):
        Ray((0, 0), (0, 0), (one,), "bi")
    with pytest.raises(ValueError):
        Ray((0, 0), (1, 0), (), "bi")
    with pytest.raises(ValueError):
        Ray((0, 0), (1, 0), (one,), "sideways")
    with pytest.raises(ValueError):
        Ray((0,), (1, 0), (one,), "bi")


def test_completed_element_validation():
    other = LaurentRing(1, Integers(), ("x",))
    with pytest.raises(ValueError):
        CompletedElement(RING, other.one, ())
    one = RING.coefficients.one
    with pytest.raises(ValueError):
        CompletedElement(RING, RING.zero, (Ray((0,), (1,), (one,), "bi"),))


def test_completed_vector_validation():
    triad = disc_triad(3, 1)
    entries = (include_group_ring(RING.one), include_group_ring(RING.zero))
    vector = CompletedVector(triad, "in", entries)
    assert vector.side == "in"
    with pytest.raises(ValueError):
        CompletedVector(triad, "middle", entries)
    with pytest.raises(ValueError):
        CompletedVector(triad, "in", entries[:1])
    other = LaurentRing(1, Integers(), ("x",))
    mixed = (include_group_ring(RING.one), include_group_ring(other.one))
    with pytest.raises(ValueError):
        CompletedVector(triad, "in", mixed)


def test_completion_works_over_other_coefficients():
    ring = LaurentRing(2, IntegersModP(3), ("y", "z"))
    one = ring.coefficients.one
    c = CompletedElement(ring, ring.zero, (Ray((0, 0), (1, 1), (one, one, one), "bi"),))
    tripled = module_action(ring.scalar(2), c)
    assert tripled.coefficient_at((4, 4)) == 2
    doubled = c + c
    total = doubled + c
    assert is_in_group_ring(total)  # 3 = 0 mod 3
    assert is_zero(total)


def test_json_round_trip():
    for element in (_full_spiral(), include_group_ring(RING.one + Y * Z)):
        data = completed_to_json(element)
        assert data["schema"] == 1
        assert set(data) >= {"finite", "rays"}
        back = completed_from_json(RING, data)
        assert equal(back, element)
        assert back.rays == element.rays


def test_json_round_trip_rationals():
    ring = LaurentRing(2, Rationals(), ("y", "z"))
    from fractions import Fraction

    c = CompletedElement(
        ring,
        ring.scalar(Fraction(1, 2)),
        (Ray((0, 0), (1, 1), (Fraction(2, 3),), "fwd"),),
    )
    back = completed_from_json(ring, completed_to_json(c))
    assert equal(back, c)


_RAY = {"base": [0, 0], "step": [1, 1], "pattern": ["1"]}


@pytest.mark.parametrize("data, field", [
    ({"schema": 1}, "'finite'"),
    ({"schema": 1, "finite": []}, "'rays'"),
    ({"schema": 1, "finite": [], "rays": [{"base": [0, 0], "pattern": ["1"]}]}, "'step'"),
    ({"schema": 1, "finite": [], "rays": [{**_RAY, "base": ["0", 0]}]}, "'base'"),
    ({"schema": 1, "finite": [], "rays": [{**_RAY, "pattern": ["one"]}]}, "'pattern'"),
    ({"schema": 1, "finite": [], "rays": [{**_RAY, "pattern": [1]}]}, "'pattern'"),
    ({"schema": 1, "finite": [{"exponents": [0, 0]}], "rays": []}, "'coeff'"),
    ({"schema": 1, "finite": [{"coeff": "1"}], "rays": []}, "'exponents'"),
    ({"schema": 1, "finite": {}, "rays": []}, "'finite'"),
    ([], "schema"),
    (None, "schema"),
])
def test_malformed_completed_json_is_a_value_error_naming_the_field(data, field):
    # These raised KeyError, AttributeError or TypeError before the reader checked its fields.
    with pytest.raises(ValueError, match=field):
        completed_from_json(RING, data)


# ---------------------------------------------------------------------------
# the residue test against the period scan
# ---------------------------------------------------------------------------

COEFFICIENTS = (Integers(), Rationals(), IntegersModP(5), IntegersModP(7))
UNITS = ((1, 0), (0, 1), (1, 1), (2, -1))


def _scan_verdict(c):
    k = c.ring.coefficients
    return all(completion._scan_vanishes(k, line) for line in completion._lines(c))


@st.composite
def _ray_family(draw, values=st.integers(-3, 3), line=None, cancel=False):
    """A ray, and partners that cancel it or nearly do, all on one line.

    Partners are shifted by whole periods or by part of one, with the
    pattern rotated to match or not, split into two rays of twice the
    stride, or glued from a "fwd" ray each way and a "bi" one; strides 5 and
    7 make F_5 and F_7 fall back to the scan.  `line` is a (unit, anchor)
    pair, drawn when not given; pattern entries are drawn from `values`.
    With `cancel`, one partner shifted by whole periods or split makes the
    family a member.
    """
    unit, anchor = line or (draw(st.sampled_from(UNITS)),
                            draw(st.sampled_from(((0, 0), (0, 1), (3, -2)))))
    stride = draw(st.sampled_from((1, 2, 3, 5, 7))) * draw(st.sampled_from((1, -1)))
    pattern = draw(st.lists(values, min_size=1, max_size=3))
    direction = draw(st.sampled_from(RAY_DIRECTIONS))
    length = len(pattern)

    def ray(offset, step, values, kind=direction):
        base = tuple(a + offset * u for a, u in zip(anchor, unit))
        return Ray(base, tuple(step * u for u in unit), tuple(values), kind)

    offset = draw(st.integers(-4, 4))
    rays = [ray(offset, stride, pattern)]
    kinds = ("whole", "split") if cancel else ("whole", "part", "unrotated", "split", "glued")
    for how in draw(st.lists(st.sampled_from(kinds), min_size=cancel, max_size=2 - cancel)):
        j = draw(st.integers(-3, 3))
        if how == "whole":
            rays.append(ray(offset + j * length * stride, stride, [-v for v in pattern]))
        elif how == "part":
            rotated = [-pattern[(i + j) % length] for i in range(length)]
            rays.append(ray(offset + j * stride, stride, rotated))
        elif how == "unrotated":
            rays.append(ray(offset + j * stride, stride, [-v for v in pattern]))
        elif how == "split":
            for parity in (0, 1):
                halves = [-pattern[(2 * i + parity) % length] for i in range(length)]
                rays.append(ray(offset + parity * stride, 2 * stride, halves))
        else:  # the ray's "fwd" half from offset, and the other half running backwards
            sign = -1 if direction == "bi" else 1
            backwards = [sign * pattern[(-1 - i) % length] for i in range(length)]
            rays.append(ray(offset - stride, -stride, backwards, "fwd"))
            rays.append(ray(offset, stride, [-sign * v for v in pattern],
                            "fwd" if direction == "bi" else "bi"))
    if not cancel and draw(st.booleans()):  # perturb one coefficient
        last = rays[-1]
        rays[-1] = Ray(last.base, last.step, (last.pattern[0] + 1,) + last.pattern[1:],
                       direction)
    return rays


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COEFFICIENTS), st.lists(_ray_family(), min_size=1, max_size=3))
def test_residue_test_agrees_with_the_scan(k, families):
    ring = LaurentRing(2, k, ("y", "z"))
    elements = [CompletedElement(ring, ring.zero, tuple(rays)) for rays in families]
    elements.append(CompletedElement(ring, ring.one, tuple(r for rays in families for r in rays)))
    for c in elements:
        assert is_in_group_ring(c) == _scan_verdict(c)


# one line per (unit, anchor) pair: no two of these anchors share a line along any unit
LINES = tuple((unit, anchor) for unit in UNITS for anchor in ((0, 0), (1, 3), (3, -2)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_residue_test_on_stored_values_agrees_with_the_scan(data):
    """Fraction patterns over Q, and over F_p entries stored outside [0, p), on 2-3 lines.

    The residue test sums pattern entries as stored and reduces mod p only at
    its zero tests; the scan coerces every entry first.
    """
    k = data.draw(st.sampled_from((Rationals(), IntegersModP(5), IntegersModP(7))))
    rational = isinstance(k, Rationals)
    values = st.fractions(-3, 3, max_denominator=4) if rational else st.integers(-3, 3)
    lines = data.draw(st.lists(st.sampled_from(LINES), min_size=2, max_size=3, unique=True))
    members = data.draw(st.booleans())  # every line a member, or all but the last one
    rays = [ray for i, line in enumerate(lines)
            for ray in data.draw(_ray_family(values, line, members or i < len(lines) - 1))]
    if not rational:  # the same element, each entry moved by a multiple of p
        lift = st.integers(-3, 3).map(lambda j: j * k.p)
        rays = [Ray(r.base, r.step, tuple(v + data.draw(lift) for v in r.pattern), r.direction)
                for r in rays]
    ring = LaurentRing(2, k, ("y", "z"))
    c = CompletedElement(ring, ring.zero, tuple(rays))
    assert len(completion._lines(c)) == len(lines)
    assert is_in_group_ring(c) == _scan_verdict(c)


def _prime_stride_rays(perturb: bool):
    # six bi-infinite rays with prime strides 7..23, each with its negative one
    # stride further on: lcm 7436429, out of reach of a scan
    rays = []
    for i, q in enumerate((7, 11, 13, 17, 19, 23)):
        step = (q, 2 * q)
        rays.append(Ray((i, 2 * i), step, (i + 1,), "bi"))
        negative = -(i + 1) + (perturb and q == 13)
        rays.append(Ray((i + q, 2 * (i + q)), step, (negative,), "bi"))
    return CompletedElement(RING, RING.zero, tuple(rays))


def test_prime_stride_rays_with_their_negatives_are_members_at_once():
    c = _prime_stride_rays(perturb=False)
    start = time.perf_counter()
    assert is_in_group_ring(c)
    assert time.perf_counter() - start < 0.1
    assert to_group_ring(c) == RING.zero


def test_prime_stride_rays_with_one_pattern_perturbed_are_not():
    c = _prime_stride_rays(perturb=True)
    start = time.perf_counter()
    assert not is_in_group_ring(c)
    assert time.perf_counter() - start < 0.1


def test_scan_fallback_refuses_past_its_budget():
    # over F_5 a period divisible by 5 needs the scan, here 2 * 5*10^6 * 2 lookups
    stride = 5 * 10**6
    assert 2 * stride * 2 > SCAN_BUDGET
    for p, verdict in ((5, None), (7, True)):
        ring = LaurentRing(2, IntegersModP(p), ("y", "z"))
        c = CompletedElement(ring, ring.zero, (Ray((0, 0), (stride, 0), (1,), "bi"),
                                               Ray((stride, 0), (stride, 0), (p - 1,), "bi")))
        if verdict is None:
            with pytest.raises(ValueError, match="budget"):
                is_in_group_ring(c)
        else:  # p divides no period: the residue test decides
            assert is_in_group_ring(c) is verdict


def test_a_ray_step_beyond_the_exponent_bound_is_refused_at_once():
    # trial division of a 2^61 - 1 period ran past 20 s; the bound stops it first
    step = (2**61 - 1, 0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="beyond"):
        Ray((0, 0), step, (1,), "bi")
    data = {"schema": 1, "finite": [],
            "rays": [{"base": [0, 0], "step": list(step), "pattern": ["1"]},
                     {"base": list(step), "step": list(step), "pattern": ["-1"]}]}
    with pytest.raises(ValueError, match="beyond"):
        completed_from_json(RING, data)
    assert time.perf_counter() - start < 0.1


def test_a_ray_step_at_the_exponent_bound_is_still_decided():
    step = (EXPONENT_BOUND, 0)
    for last, member in ((-1, True), (-2, False)):
        c = CompletedElement(RING, RING.zero, (Ray((0, 0), step, (1,), "bi"),
                                               Ray(step, (-EXPONENT_BOUND, 0), (last,), "bi")))
        start = time.perf_counter()
        assert is_in_group_ring(c) is member
        assert time.perf_counter() - start < 1.0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COEFFICIENTS), st.lists(_ray_family(), min_size=1, max_size=3))
def test_recovery_and_zero_test_agree_with_the_coefficients(k, families):
    ring = LaurentRing(2, k, ("y", "z"))
    rays = tuple(r for rays in families for r in rays)
    c = CompletedElement(ring, ring.one - ring.var("y"), rays)
    if not _scan_verdict(c):
        with pytest.raises(ValueError, match="infinite"):
            to_group_ring(c)
        assert not is_zero(c)
        return
    a = to_group_ring(c)
    points = {tuple(b + i * s for b, s in zip(r.base, r.step)) for r in rays for i in range(-30, 31)}
    for point in points | {(0, 0), (1, 0)}:
        assert c.coefficient_at(point) == a.coefficient(point)
    assert is_zero(c) is a.is_zero()
    assert equal(c, include_group_ring(a))


def test_is_zero_and_equal_build_the_lines_once(monkeypatch):
    calls = []
    lines = completion._lines
    monkeypatch.setattr(completion, "_lines", lambda c: calls.append(c) or lines(c))
    spiral = _full_spiral()
    assert not is_zero(spiral) and equal(spiral, spiral)
    a = include_group_ring(RING.one + Y)
    assert equal(a, module_action(RING.one, a)) and not is_zero(a)
    assert len(calls) == 4


def test_a_period_is_factored_once_per_line_and_only_for_a_tail_that_runs(monkeypatch):
    factored = []
    period_divisors = completion._period_divisors
    monkeypatch.setattr(completion, "_period_divisors",
                        lambda n: factored.append(n) or period_divisors(n))
    # both tails of a member line run: its one period is factored once
    assert is_in_group_ring(CompletedElement(RING, RING.zero, (
        Ray((0, 0), (3, 0), (1,), "bi"), Ray((3, 0), (3, 0), (-1,), "bi"))))
    assert factored == [3]
    # the upper tail fails, so the lower-only ray's 2^31 - 1 period is never factored
    factored.clear()
    assert not is_in_group_ring(CompletedElement(RING, RING.zero, (
        Ray((0, 0), (1, 0), (1,), "bi"), Ray((0, 0), (-EXPONENT_BOUND, 0), (1,), "fwd"))))
    assert factored == [1]


def test_every_membership_verdict_refuses_past_the_scan_budget():
    stride = 5 * 10**6
    ring = LaurentRing(2, IntegersModP(5), ("y", "z"))
    c = CompletedElement(ring, ring.zero, (Ray((0, 0), (stride, 0), (1,), "bi"),
                                           Ray((stride, 0), (stride, 0), (4,), "bi")))
    for decide in (is_zero, to_group_ring, lambda c: equal(c, include_group_ring(ring.zero))):
        with pytest.raises(ValueError, match="budget"):
            decide(c)
