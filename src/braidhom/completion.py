"""The completed group ring k[[G]] and the helix classes living in it.

An element of the completion is a function G -> k with no support
restriction, which is not finitely describable in general.  Everything the
covering-space computations produce, however, is a finite sum plus finitely
many periodic rays, so that is the representation: a group-ring element for
the finite part and a list of Ray families, each contributing a repeating
coefficient pattern along an arithmetic progression of lattice points.
This subclass is closed under the k[G]-module action and large enough for
every inclusion image and helix class; in exchange, membership in the image
of k[G] -> k[[G]] stays decidable.

The decision procedure groups ray families by the affine line they sweep.
On one line, each family is an eventually periodic function of the integer
position, so the total is periodic beyond the last ray basepoint in each
direction.  The support is finite exactly when both tails vanish, and in that
case the leftover middle is an honest group-ring element again.

A tail is a sum of series P_r(x) / (1 - x^p_r), one per ray reaching it, with
p_r = |stride| * len(pattern).  Over the integers, the rationals, and F_p
with p dividing no ray period of the line, it vanishes exactly when its
residue at every root of unity of order d dividing some p_r does: one check
modulo the cyclotomic polynomial Phi_d per such d.  That costs about
(pattern entries) * 2^(primes of d) additions of Python numbers per d,
whatever the least common multiple of the periods, and each period of a
line is factored at most once, when a tail first needs it.  Under
complex-approx coefficients, or over F_p with p dividing a period, roots of
unity do not separate the tails, and a scan evaluates one full period of
each instead: 2 * lcm(p_r) * rays coefficient lookups, refused with
ValueError past SCAN_BUDGET.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .compositions import compositions
from .fields import IntegersModP
from .ring import (EXPONENT_BOUND, GroupRingElement, Integers, LaurentRing, json_coefficient,
                   json_list)
from .surfaces import SurfaceTriad, check_side, dimension
from .values import value_class

RAY_DIRECTIONS = ("fwd", "bi")


@value_class
class Ray:
    """A repeating coefficient pattern along an arithmetic progression.

    The ray places pattern[i mod len(pattern)] at base + i*step, for i >= 0
    when the direction is "fwd" and for all integers i when it is "bi".
    The step must be a nonzero lattice vector with coordinates within
    +-EXPONENT_BOUND, as every exponent on input is, so that factoring a ray
    period by trial division stays bounded.  The base is not bounded:
    `module_action` shifts it by monomials, and valid inputs can take it past
    the bound.  The pattern coefficients live in the coefficient ring of the
    ambient element.
    """

    base: tuple[int, ...]
    step: tuple[int, ...]
    pattern: tuple
    direction: str = "bi"

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(int(v) for v in self.base))
        object.__setattr__(self, "step", tuple(int(v) for v in self.step))
        object.__setattr__(self, "pattern", tuple(self.pattern))
        if len(self.base) != len(self.step):
            raise ValueError("base and step have different lattice ranks")
        if not any(self.step):
            raise ValueError("ray step must be nonzero")
        if any(abs(v) > EXPONENT_BOUND for v in self.step):
            raise ValueError(f"ray step {self.step} has a coordinate beyond {EXPONENT_BOUND}")
        if not self.pattern:
            raise ValueError("ray pattern must be nonempty")
        if self.direction not in RAY_DIRECTIONS:
            raise ValueError(f"direction must be one of {RAY_DIRECTIONS}")


@value_class
class CompletedElement:
    """An element of k[[G]] with finite-plus-rays support.

    finite is a plain group-ring element; rays is a tuple of Ray families
    over the same lattice.  Overlaps are allowed and sum: coefficient_at
    adds every contribution.  Equality is semantic (same coefficient
    function), decided through the difference's support analysis.
    """

    ring: LaurentRing
    finite: GroupRingElement
    rays: tuple[Ray, ...] = ()

    __eq__ = object.__eq__  # identity: `equal` decides semantic equality
    __hash__ = object.__hash__

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))
        if self.finite.ring != self.ring:
            raise ValueError("finite part lives in a different ring")
        k = self.ring.coefficients
        for ray in self.rays:
            if len(ray.base) != self.ring.rank:
                raise ValueError("ray lattice rank mismatch")
            for value in ray.pattern:
                k.coerce(value)

    def coefficient_at(self, exponents) -> object:
        g = tuple(int(v) for v in exponents)
        if len(g) != self.ring.rank:
            raise ValueError("wrong lattice rank")
        k = self.ring.coefficients
        total = self.finite.coefficient(g)
        for ray in self.rays:
            i = _progression_index(g, ray.base, ray.step)
            if i is None:
                continue
            if ray.direction == "fwd" and i < 0:
                continue
            total = k.add(total, k.coerce(ray.pattern[i % len(ray.pattern)]))
        return total

    # -- k[G]-module structure ------------------------------------------------

    def __add__(self, other: CompletedElement) -> CompletedElement:
        if not isinstance(other, CompletedElement):
            return NotImplemented
        if other.ring != self.ring:
            raise ValueError("elements from different completions")
        return CompletedElement(self.ring, self.finite + other.finite, self.rays + other.rays)

    def __neg__(self) -> CompletedElement:
        k = self.ring.coefficients
        rays = tuple(
            Ray(r.base, r.step, tuple(k.neg(k.coerce(p)) for p in r.pattern), r.direction)
            for r in self.rays
        )
        return CompletedElement(self.ring, -self.finite, rays)

    def __sub__(self, other: CompletedElement) -> CompletedElement:
        if not isinstance(other, CompletedElement):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar) -> CompletedElement:
        if isinstance(scalar, GroupRingElement):
            return module_action(scalar, self)
        return NotImplemented

    def __repr__(self):
        return f"CompletedElement(finite={self.finite!r}, rays={len(self.rays)})"


def include_group_ring(a: GroupRingElement) -> CompletedElement:
    """The natural inclusion k[G] -> k[[G]]: finite support, no rays."""
    return CompletedElement(a.ring, a, ())


def module_action(r: GroupRingElement, c: CompletedElement) -> CompletedElement:
    """Multiply a completed element by a group-ring element.

    Each term h of r translates the support by h and scales by the
    coefficient, so the finite part multiplies as usual and every ray is
    translated and rescaled once per term.  The sum over terms is finite
    because r is.
    """
    if r.ring != c.ring:
        raise ValueError("scalar from a different ring")
    k = c.ring.coefficients
    rays = []
    for exps, coeff in r.items():
        for ray in c.rays:
            pattern = tuple(k.mul(coeff, k.coerce(p)) for p in ray.pattern)
            if all(k.is_zero(p) for p in pattern):
                continue
            base = tuple(b + e for b, e in zip(ray.base, exps))
            rays.append(Ray(base, ray.step, pattern, ray.direction))
    return CompletedElement(c.ring, r * c.finite, tuple(rays))


# ---------------------------------------------------------------------------
# support analysis along affine lines
# ---------------------------------------------------------------------------


def _progression_index(g, base, step):
    """The integer i with g = base + i*step, or None."""
    diff = tuple(a - b for a, b in zip(g, base))
    pivot = next(j for j, s in enumerate(step) if s != 0)
    if diff[pivot] % step[pivot] != 0:
        return None
    i = diff[pivot] // step[pivot]
    if any(d != i * s for d, s in zip(diff, step)):
        return None
    return i


def _primitive(step):
    """step = multiplier * unit with unit primitive and lex-positive."""
    g = gcd(*step)
    if next(filter(None, step)) < 0:
        g = -g
    return tuple([v // g for v in step]), g


@value_class
class _Line:
    """All rays of one element sweeping a common affine line.

    Positions are measured along the primitive direction from a canonical
    anchor point, so each ray becomes (offset, stride, pattern, direction)
    with stride the signed number of positions per pattern entry.
    """

    anchor: tuple[int, ...]
    unit: tuple[int, ...]
    rays: tuple[tuple[int, int, tuple, str], ...]

    def value(self, k, position: int):
        total = k.zero
        for offset, stride, pattern, direction in self.rays:
            if (position - offset) % stride != 0:
                continue
            i = (position - offset) // stride
            if direction == "fwd" and i < 0:
                continue
            total = k.add(total, k.coerce(pattern[i % len(pattern)]))
        return total

    def period(self) -> int:
        return lcm(*(abs(stride) * len(pattern) for _, stride, pattern, _ in self.rays))

    def offsets(self) -> tuple[int, int]:
        values = [offset for offset, _, _, _ in self.rays]
        return min(values), max(values)


def _lines(c: CompletedElement) -> list[_Line]:
    grouped: dict[tuple, list] = {}
    for ray in c.rays:
        unit, multiplier = _primitive(ray.step)
        pivot = unit.index(next(filter(None, unit)))
        shift = ray.base[pivot] // unit[pivot]
        anchor = tuple([b - shift * u for b, u in zip(ray.base, unit)])
        key = (unit, anchor)
        grouped.setdefault(key, []).append((shift, multiplier, ray.pattern, ray.direction))
    return [
        _Line(anchor, unit, tuple(rays))
        for (unit, anchor), rays in sorted(grouped.items())
    ]


def is_in_group_ring(c: CompletedElement) -> bool:
    """Whether the element is an image point of k[G] -> k[[G]].

    True exactly when the total support is finite.  The finite part always
    is, so each swept line decides: both of its tails, beyond the extreme
    ray offsets, must vanish.  Over the integers, the rationals and F_p with
    p dividing no ray period of the line, the residue test decides a tail
    in time polynomial in the ray periods (`_tail_vanishes`).  For other
    lines (complex-approx coefficients, or F_p with p dividing a period) the
    scan evaluates one full period of each tail, about 2 * lcm(periods) *
    rays coefficient lookups, and refuses past SCAN_BUDGET (`_scan_vanishes`).
    """
    k = c.ring.coefficients
    return all(_line_vanishes(k, line) for line in _lines(c))


def _line_vanishes(k, line: _Line) -> bool:
    modulus = k.p if isinstance(k, IntegersModP) else None
    if not k.is_exact or (modulus and any(abs(stride) * len(pattern) % modulus == 0
                                          for _, stride, pattern, _ in line.rays)):
        return _scan_vanishes(k, line)
    divisors: dict[int, list] = {}  # period -> _period_divisors(period), filled on first use
    # negating every position turns the lower tail into an upper one
    lower = tuple((-offset, -stride, pattern, d) for offset, stride, pattern, d in line.rays)
    return (_tail_vanishes(line.rays, modulus, divisors)
            and _tail_vanishes(lower, modulus, divisors))


def _tail_vanishes(rays, modulus, divisors) -> bool:
    """Whether the rays sum to zero at every position above their largest offset.

    The rays reaching that tail are the "bi" ones and the "fwd" ones with
    positive stride.  Counted from the tail's first position, ray r repeats
    with period p_r = |stride| * len(pattern), so its series is
    Q_r(x) / (1 - x^p_r), where Q_r holds its values on the first p_r
    positions.  The sum is a proper rational function whose denominator
    divides x^M - 1, M = lcm(p_r), so it vanishes exactly when, for every d
    dividing some p_r, the residue V_d = sum over r with d | p_r of
    (M / p_r) Q_r(x) is 0 mod the cyclotomic polynomial Phi_d: modulo Phi_d,
    (1 - x^M) / (1 - x^p_r) is M / p_r when d | p_r and 0 otherwise.  This
    needs x^M - 1 squarefree, so k has characteristic 0 or one dividing no
    p_r.  Phi_d divides V_d exactly when x^d - 1 divides V_d times the
    product of x^(d/q) - 1 over the primes q dividing d, as x^d - 1 is the
    product of the coprime Phi_e over e | d and that product has every
    Phi_e with e < d as a factor and shares no root with Phi_d.

    The arithmetic is on Python numbers: pattern values as stored (ints over
    Z and F_p, ints or Fractions over Q), weights M / p_r as ints, and `+`,
    `-` and `*` inline.  Over F_p (`modulus` p) a coefficient is reduced mod
    p only where it is tested for zero, which is sound because Z -> F_p is a
    ring map.  So each d costs (terms of V_d) * 2^(primes of d) additions,
    with no polynomial division.  `divisors`, shared by the line's two tails,
    maps each p_r to `_period_divisors(p_r)` and is filled on first use: a
    period is factored once per line, and only if a tail reaching it runs.
    """
    start = max([offset for offset, _, _, _ in rays]) + 1
    # every position of a "fwd" ray with negative stride is at or below its offset
    reaching = [(offset, stride, pattern) for offset, stride, pattern, direction in rays
                if direction == "bi" or stride > 0]
    if not reaching:
        return True
    whole = lcm(*[abs(stride) * len(pattern) for _, stride, pattern in reaching])
    # d -> (primes dividing d, {exponent mod d: coefficient of V_d})
    residues: dict[int, tuple[tuple[int, ...], dict]] = {}
    for offset, stride, pattern in reaching:
        step, length = abs(stride), len(pattern)
        period = step * length
        weight = whole // period
        first = start + (offset - start) % step
        values = [(position - start, weight * pattern[(position - offset) // stride % length])
                  for position in range(first, start + period, step)]
        if period not in divisors:
            divisors[period] = _period_divisors(period)
        for d, primes in divisors[period]:
            residue = residues.setdefault(d, (primes, {}))[1]
            for u, v in values:
                u %= d
                residue[u] = residue.get(u, 0) + v
    for d, (primes, residue) in residues.items():
        for q in primes:  # times x^(d/q) - 1, modulo x^d - 1
            shift = d // q
            shifted = {u: -v for u, v in residue.items()}
            for u, v in residue.items():
                u = (u + shift) % d
                shifted[u] = shifted.get(u, 0) + v
            residue = shifted
        if any(v % modulus for v in residue.values()) if modulus else any(residue.values()):
            return False
    return True


def _period_divisors(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The divisors d of n >= 1, each with the primes dividing d, by trial division."""
    divisors, q = [(1, ())], 2
    while n > 1:
        if q * q > n:
            q = n  # what is left is prime
        if n % q == 0:
            powers = []
            while n % q == 0:
                n //= q
                powers.append(q ** (len(powers) + 1))
            divisors += [(d * p, primes + (q,)) for d, primes in divisors for p in powers]
        q += 1
    return divisors


SCAN_BUDGET = 10**7


def _scan_vanishes(k, line: _Line) -> bool:
    """Whether both tails of the line vanish, by evaluating one full period of each.

    The tails are periodic with the line's period, so this is exact for
    every coefficient ring, and under complex-approx it applies the ring's
    tolerance to each coefficient.  It costs 2 * period * rays coefficient
    lookups (0.16-0.19 us each on one x86-64 core under CPython 3.11, so
    the budget is about 2 s); past SCAN_BUDGET = 10**7 lookups it raises
    ValueError before evaluating anything.
    """
    period = line.period()
    cost = 2 * period * len(line.rays)
    if cost > SCAN_BUDGET:
        raise ValueError(
            f"membership scan needs {cost} coefficient lookups, over the budget of {SCAN_BUDGET}"
        )
    low, high = line.offsets()
    upper, lower = range(high + 1, high + 1 + period), range(low - period, low)
    return all(k.is_zero(line.value(k, position)) for position in chain(upper, lower))


def to_group_ring(c: CompletedElement) -> GroupRingElement:
    """Recover the group-ring element an inclusion image came from.

    Raises if the support is infinite.  Otherwise the rays contribute only
    between their extreme basepoints, and those finitely many values merge
    into the finite part.
    """
    if (a := _group_ring_part(c)) is None:
        raise ValueError("support is infinite; not in the group ring")
    return a


def _group_ring_part(c: CompletedElement) -> GroupRingElement | None:
    """`to_group_ring(c)`, or None for infinite support; the lines are built once."""
    k = c.ring.coefficients
    lines = _lines(c)
    if not all(_line_vanishes(k, line) for line in lines):
        return None
    terms = dict(c.finite.items())
    for line in lines:
        low, high = line.offsets()
        for position in range(low, high + 1):
            value = line.value(k, position)
            if k.is_zero(value):
                continue
            point = tuple(a + position * u for a, u in zip(line.anchor, line.unit))
            total = k.add(terms.get(point, k.zero), value)
            if k.is_zero(total):
                terms.pop(point, None)
            else:
                terms[point] = total
    return c.ring.element(terms)


def is_zero(c: CompletedElement) -> bool:
    return (a := _group_ring_part(c)) is not None and a.is_zero()


def equal(a: CompletedElement, b: CompletedElement) -> bool:
    """Semantic equality: the same coefficient function on all of G."""
    return is_zero(a - b)


# ---------------------------------------------------------------------------
# vectors over a basis and the helix classes
# ---------------------------------------------------------------------------


@value_class
class CompletedVector:
    """A vector of completed elements indexed by the basis of one side."""

    triad: SurfaceTriad
    side: str
    entries: tuple[CompletedElement, ...]

    __eq__ = object.__eq__  # identity, as for CompletedElement
    __hash__ = object.__hash__

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        check_side(self.side)
        if len(self.entries) != dimension(self.triad):
            raise ValueError(
                f"expected {dimension(self.triad)} coordinates, got {len(self.entries)}"
            )
        rings = {entry.ring for entry in self.entries}
        if len(rings) > 1:
            raise ValueError("coordinates live in different completions")


def helix_class(
    triad: SurfaceTriad,
    e: tuple[int, ...],
    y: tuple[int, ...],
    z: tuple[int, ...],
    ring: LaurentRing | None = None,
) -> CompletedVector:
    """The locally-finite class of the helix over an embedded torus.

    For one point circling two boundary components with covering
    monodromies y and z, the class is supported on the single basis
    coordinate e and equals the two-sided sum of (1-y)(yz)^i over all
    integers i: coefficient +1 at every multiple of y+z and -1 at y plus
    every multiple.  The no-lift condition of the construction needs the
    circle's own monodromy to have infinite order, so y = 0 is rejected,
    and y + z = 0 would pile infinitely many terms on one lattice point,
    so it is rejected too.
    """
    y = tuple(int(v) for v in y)
    z = tuple(int(v) for v in z)
    if len(y) != len(z):
        raise ValueError("y and z have different lattice ranks")
    if not any(y):
        raise ValueError("the circle lifts to a loop: y must be nonzero")
    step = tuple(a + b for a, b in zip(y, z))
    if not any(step):
        raise ValueError("y + z = 0 gives no completed element: torus monodromy has finite order")
    if ring is None:
        ring = LaurentRing(len(y), Integers())
    if ring.rank != len(y):
        raise ValueError("ring lattice rank does not match the vectors")
    origin = (0,) * len(y)
    k = ring.coefficients
    spiral = CompletedElement(
        ring,
        ring.zero,
        (
            Ray(origin, step, (k.one,), "bi"),
            Ray(y, step, (k.neg(k.one),), "bi"),
        ),
    )
    zero = include_group_ring(ring.zero)
    entries = [
        spiral if composition == tuple(e) else zero
        for composition in compositions(triad.arc_count, triad.points)
    ]
    if spiral not in entries:
        raise ValueError(f"no basis coordinate {e} for this triad")
    return CompletedVector(triad, "in", tuple(entries))


def left_circle_helix(triad: SurfaceTriad, ring: LaurentRing | None = None) -> CompletedVector:
    """The helix over a circle around a single boundary component.

    Such a circle can be pushed toward the non-compact end it encircles,
    so its preimage is nullhomologous as a locally-finite cycle: the class
    is the zero vector.
    """
    if ring is None:
        ring = LaurentRing(2, Integers())
    zero = include_group_ring(ring.zero)
    return CompletedVector(triad, "in", tuple(zero for _ in range(dimension(triad))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def completed_to_json(c: CompletedElement) -> dict:
    k = c.ring.coefficients
    return {
        "schema": 1,
        "finite": c.finite.to_json_terms(),
        "rays": [
            {
                "base": list(ray.base),
                "step": list(ray.step),
                "pattern": [k.to_str(k.coerce(p)) for p in ray.pattern],
                "direction": ray.direction,
            }
            for ray in c.rays
        ],
    }


def completed_from_json(ring: LaurentRing, data: dict) -> CompletedElement:
    """Read what completed_to_json writes; a missing or ill-typed field is a ValueError."""
    if not isinstance(data, dict) or data.get("schema") != 1:
        raise ValueError("unsupported schema version")
    k = ring.coefficients
    finite = ring.from_json_terms(json_list(data.get("finite"), dict, "field 'finite'"))
    rays = tuple(
        Ray(
            tuple(json_list(entry.get("base"), int, "ray field 'base'")),
            tuple(json_list(entry.get("step"), int, "ray field 'step'")),
            tuple(json_coefficient(k, p, "an entry of ray field 'pattern'")
                  for p in json_list(entry.get("pattern"), str, "ray field 'pattern'")),
            entry.get("direction", "bi"),
        )
        for entry in json_list(data.get("rays"), dict, "field 'rays'")
    )
    return CompletedElement(ring, finite, rays)
