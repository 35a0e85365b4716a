"""Homology of finite chain complexes with rank-1 local coefficients.

Every complex that arises here is desk scale: the cellular complex of a
circle, a two-sheeted cover of it, small synthetic examples in the test
suite.  Two computations are offered.  Over the Laurent ring itself the
differentials are 1x1, so kernels and cokernels are reported as
presentations by a single ring element; the vanishing tests behind
genericity need nothing finer, and classifying modules over k[Z^2] is out
of scope.  After specializing the variables at a numeric point the
boundaries become matrices over a field and homology reduces to rank
counting by one Gaussian elimination (`linalg.rank`): exact over the
rationals or finite fields, and with complete pivoting and a tolerance
relative to the largest entry over complex floats.  Boundaries are sparse
(about one entry in eight of a benchmark complex is nonzero), so a complex
finds each row's nonzero entries once, in the pass that checks their ring,
and keeps them in a private attribute that is not a field: equality, repr
and `complex_to_json` see the boundaries only.  Everything after that pass
visits only those entries, with the values and verdicts of a pass over every
entry.  Over R a composite is decided on term maps: the first factor's
nonzero rows go through the column plan of the second, built from its
entries (`ring.plan_columns`, and `ring.plan_term_rows`, the kernel of every
matrix product), and the check asks only whether any result is non-empty,
building no ring element.  `homology_ranks_at` specializes the entries with
one `specialize_matrix` call per boundary on the ragged rows, pairs each
value with its column and drops the zero values; the float composite check
(relative to the largest entries) and `linalg.rank` read these
{column: value} rows.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .linalg import Matrix, as_matrix, rank, specialize_matrix
from .ring import (
    CoefficientRing,
    GroupRingElement,
    Integers,
    LaurentRing,
    Rationals,
    exact_divide,
    plan_columns,
    plan_term_rows,
)
from .surfaces import LocalSystem, SurfaceTriad, check_homogeneity
from .values import value_class

DIRECTIONS = ("homological", "cohomological")

PRESENTATION_KINDS = ("kernel", "cokernel")


@value_class
class ModulePresentation:
    """Kernel or cokernel of multiplication by one element on R.

    A degree-one complex R -> R has a single multiplication map, so one
    ring element presents both of its homology modules.  Deciding whether
    the module vanishes is a unit test (cokernel) or a zero-divisor test
    (kernel); describe() prints the module without classifying it.
    """

    kind: str
    element: GroupRingElement

    def __post_init__(self):
        if self.kind not in PRESENTATION_KINDS:
            raise ValueError(f"unknown presentation kind: {self.kind!r}")

    def is_zero(self) -> bool:
        if self.element.is_zero():
            return False
        if self.kind == "kernel":
            return self.element.is_non_zero_divisor()
        return self.element.is_unit()

    def describe(self) -> str:
        a = self.element
        if a.is_zero():
            return "R"
        if self.kind == "kernel":
            return "0" if a.is_non_zero_divisor() else f"ker({a.to_text()})"
        return "0" if a.is_unit() else f"R/({a.to_text()})"

    def __repr__(self):
        return f"{self.kind}: {self.describe()}"


def circle_cohomology(monodromy: GroupRingElement):
    """H^0 and H^1 of the circle whose holonomy is the given unit.

    The cellular cochain complex is R -> R with the copy in degree 0 and
    differential multiplication by 1 - monodromy, so H^0 is its kernel and
    H^1 its cokernel.  H^1 vanishes exactly when 1 - monodromy is a unit.
    """
    if not monodromy.is_unit():
        raise ValueError(f"monodromy must be a unit, got {monodromy}")
    a = monodromy.ring.one - monodromy
    return ModulePresentation("kernel", a), ModulePresentation("cokernel", a)


def circle_complex(monodromy: GroupRingElement) -> FiniteChainComplex:
    """The same complex as an explicit one-differential chain complex."""
    ring = monodromy.ring
    return FiniteChainComplex(
        ring, (1, 1), (((ring.one - monodromy,),),), "cohomological"
    )


# ---------------------------------------------------------------------------
# finite chain complexes and specialization
# ---------------------------------------------------------------------------


@value_class
class FiniteChainComplex:
    """A finite complex of free R-modules with explicit boundary matrices.

    ranks[i] is the rank in degree i.  boundaries[i] is the matrix of the
    map between degrees i and i+1: it goes i+1 -> i when the direction is
    homological and i -> i+1 when cohomological.  Matrices act on column
    vectors, so each has shape (target rank) x (source rank).  Consecutive
    composites must vanish; construction checks this over R, where it is
    exact, on term maps (module docstring).
    """

    ring: LaurentRing
    ranks: tuple[int, ...]
    boundaries: tuple[Matrix, ...]
    direction: str = "homological"

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "boundaries", tuple(as_matrix(b) for b in self.boundaries))
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if not self.ranks:
            raise ValueError("a complex needs at least one degree")
        if any(r < 0 for r in self.ranks):
            raise ValueError("negative rank")
        if len(self.boundaries) != len(self.ranks) - 1:
            raise ValueError(
                f"expected {len(self.ranks) - 1} boundary matrices, got {len(self.boundaries)}"
            )
        nonzero = []
        for i, b in enumerate(self.boundaries):
            target, source = self._shape(i)
            if len(b) != target or any(len(row) != source for row in b):
                raise ValueError(f"boundary {i} is not {target}x{source}")
            nonzero.append(_nonzero_entries(self.ring, b))
        # Each row's nonzero entries as (columns, elements), found once; not a field.
        object.__setattr__(self, "_nonzero", nonzero)
        for i in range(len(nonzero) - 1):
            a, b = (i, i + 1) if self.direction == "homological" else (i + 1, i)
            rows = [(cols, elements) for cols, elements in nonzero[a] if cols]
            if not (rows and any(cols for cols, _ in nonzero[b])):  # the composite is zero
                continue
            height, width = self._shape(b)
            first = []
            for cols, elements in rows:
                terms = [{}] * height
                for j, x in zip(cols, elements):
                    terms[j] = x.terms
                first.append(terms)
            columns = [[] for _ in range(width)]
            for r, (cols, elements) in enumerate(nonzero[b]):
                for j, x in zip(cols, elements):
                    columns[j].append((r, x.terms))
            plan = plan_columns(self.ring, height, columns)
            if any(terms for row in plan_term_rows(self.ring, first, [plan]) for terms in row):
                raise ValueError(f"boundaries {i} and {i + 1} do not compose to zero")

    def _shape(self, i: int) -> tuple[int, int]:
        if self.direction == "homological":
            return self.ranks[i], self.ranks[i + 1]
        return self.ranks[i + 1], self.ranks[i]

    @property
    def degrees(self) -> int:
        return len(self.ranks)


def _nonzero_entries(ring: LaurentRing, matrix: Matrix) -> list[tuple[list, list]]:
    """Each row's nonzero entries as (their columns, the elements); ValueError on an entry
    of another ring."""
    rows = []
    for row in matrix:
        columns, elements = [], []
        for j, x in enumerate(row):
            if x.ring is not ring and x.ring != ring:
                raise ValueError(f"ring context mismatch: {ring} vs {x.ring}")
            if x.terms:
                columns.append(j)
                elements.append(x)
        rows.append((columns, elements))
    return rows


@value_class
class SpecializationPoint:
    """A numeric evaluation point for the Laurent variables.

    assignments sends variable names to values of the target field; values
    are coerced at construction.  Monodromies of an honest local system are
    units, so zero values are degenerate, but they are stored rather than
    rejected: the genericity truth table is defined (and false) at zero.
    """

    assignments: tuple[tuple[str, object], ...]
    field: CoefficientRing

    def __post_init__(self):
        pairs = self.assignments
        if isinstance(pairs, dict):
            pairs = sorted(pairs.items())
        coerced = tuple((str(name), self.field.coerce(value)) for name, value in pairs)
        if len({name for name, _ in coerced}) != len(coerced):
            raise ValueError("a variable is assigned twice")
        object.__setattr__(self, "assignments", coerced)

    @property
    def mapping(self) -> dict:
        return dict(self.assignments)

    def value(self, name: str):
        for var, val in self.assignments:
            if var == name:
                return val
        raise KeyError(f"no value assigned to {name!r}")

    def is_unit_valued(self) -> bool:
        return all(not self.field.is_zero(v) for _, v in self.assignments)


def homology_ranks_at(
    cpx: FiniteChainComplex, point: SpecializationPoint
) -> tuple[int, ...]:
    """Betti numbers of the complex specialized at a point, degree by degree.

    Over a field, rank H_i = ranks[i] - rank(map into i) - rank(map out of
    i), the two maps being the boundaries adjacent to degree i; which one is
    in and which is out depends on the direction, but the formula does not.
    Over complex floats a composite of specialized boundaries beyond tolerance
    times the largest entries of its factors is a ValueError.  Each composite
    entry sums only the products of two nonzero entries, in ascending inner
    index: a product with an exact zero is a zero, and adding it changes a
    finite sum at most in the sign of a zero part, which `abs` does not see, so
    the verdict is the one a sum over every index gives.
    """
    k = point.field
    assignments = point.mapping
    missing = set(cpx.ring.variables) - set(assignments)
    if missing:
        raise ValueError(f"unassigned variables: {sorted(missing)}")
    zero = k.zero  # specialize_matrix gives every zero value as k.zero
    specialized = []  # each boundary as maps from column to nonzero value, one per row
    for rows in cpx._nonzero:
        values = specialize_matrix([elements for _, elements in rows], assignments, k)
        specialized.append([{j: v for j, v in zip(cols, vs) if v is not zero} if vs else {}
                            for (cols, _), vs in zip(rows, values)])
    if not k.is_exact:
        # Rounding could make a composite drift from zero; refuse to count
        # ranks of something that is no longer a complex.  Like `rank`, the
        # test is relative: to the largest entries of the two factors.
        for i in range(len(specialized) - 1):
            a, b = specialized[i], specialized[i + 1]
            if cpx.direction == "cohomological":
                a, b = b, a
            if not a or not b:
                continue
            scale = _largest(a) * _largest(b)
            for row in a:
                products: dict[int, list] = {}  # column -> its nonzero products, in index order
                for inner, x in row.items():
                    for j, v in b[inner].items():
                        if j in products:
                            products[j].append(x * v)
                        else:
                            products[j] = [x * v]
                if any(abs(sum(p)) > k.tolerance * scale for p in products.values()):
                    raise ValueError(
                        f"specialized boundaries {i}, {i + 1} no longer compose to zero")
    boundary_ranks = [rank(values, k) for values in specialized]
    out = []
    for degree in range(cpx.degrees):
        below = boundary_ranks[degree - 1] if degree >= 1 else 0
        above = boundary_ranks[degree] if degree < len(boundary_ranks) else 0
        out.append(cpx.ranks[degree] - below - above)
    return tuple(out)


def _largest(rows: list[dict]):
    """The largest |entry| of a matrix held as maps of its nonzero entries, as `max` reads
    it over every entry in row order: from 0.0 when the first entry is zero, which a later
    nan cannot replace."""
    first = () if 0 in rows[0] else (0.0,)
    return max(chain(first, (abs(v) for row in rows for v in row.values())))


# ---------------------------------------------------------------------------
# genericity of a specialized local system
# ---------------------------------------------------------------------------


def genericity_check(
    triad: SurfaceTriad, system: LocalSystem, point: SpecializationPoint
) -> bool:
    """Whether the disc system specialized at the point is generic.

    For m points on a disc with n inner circles the loops escaping every
    compact set wind only the x- and d-monodromies, so 1 - theta(gamma)
    stays a unit for all of them exactly when theta keeps every variable of
    the system away from {0, 1}.  True means ordinary and locally-finite
    homology agree through the specialized pairing.  Zero assignments are
    degenerate, not an error: the answer there is false.  Triads with genus
    or outer intervals carry escaping loops this bookkeeping does not
    cover, so they are rejected.
    """
    if triad.genus != 0 or triad.outer_intervals != 0:
        raise ValueError(
            "genericity test supports only disc triads (genus 0, no outer intervals)"
        )
    check_homogeneity(triad, system)
    k = point.field
    for name in system.ring.variables:
        value = point.value(name)
        if k.is_zero(value):
            return False
        if k.is_zero(k.add(value, k.neg(k.one))):
            return False
    return True


# ---------------------------------------------------------------------------
# Shapiro checks: twisted homology downstairs vs plain homology upstairs
# ---------------------------------------------------------------------------


@value_class
class ShapiroVerdict:
    """Both sides of a covering-space comparison, plus whether they agree.

    twisted holds (H_0, H_1) of the base circle computed with k[G]
    coefficients; untwisted holds the reference (H_0, H_1) of the covering
    space with plain k coefficients.  Entries are printed module
    descriptions like "k" or "0".
    """

    matches: bool
    twisted: tuple[str, str]
    untwisted: tuple[str, str]

    def __bool__(self):
        return self.matches


def shapiro_circle_check(k: CoefficientRing) -> ShapiroVerdict:
    """Compare H_*(circle; k[Z]) with H_* of its universal cover over k.

    The twisted side is the complex k[x^+-1] --(1-x)--> k[x^+-1].  H_1 is
    the kernel: 1 - x keeps its lowest term under multiplication, so the
    kernel vanishes over any coefficient ring we support.  H_0 is the
    cokernel, and the augmentation map identifies it with k: x^a - 1 is
    divisible by 1 - x for every exponent a, while 1 itself is not.  Both
    facts are checked by genuine division on a window of exponents rather
    than assumed.  The untwisted side is the line, contractible, with
    homology (k, 0).
    """
    ring = LaurentRing(1, k, ("x",))
    a = ring.one - ring.var("x")
    h1_vanishes = a.is_non_zero_divisor()
    # Cokernel = k via augmentation: kill x^a - 1 for a window of exponents,
    # keep the constants.  Any f - aug(f) is a k-combination of these.
    onto_scalars = all(
        exact_divide(ring.monomial((e,)) - ring.one, a) is not None
        for e in range(-6, 7)
        if e != 0
    )
    scalars_survive = exact_divide(ring.one, a) is None
    h0 = "k" if onto_scalars and scalars_survive else "?"
    h1 = "0" if h1_vanishes else "?"
    twisted = (h0, h1)
    untwisted = ("k", "0")
    return ShapiroVerdict(twisted == untwisted, twisted, untwisted)


def shapiro_double_cover_check(k: CoefficientRing) -> ShapiroVerdict:
    """Compare H_*(circle; k[Z/2]) with H_* of the double cover over k.

    With G = Z/2 the group ring is k^2, x acts by swapping coordinates, and
    the differential 1 - x is the 2x2 matrix ((1,-1),(-1,1)).  Its kernel
    and cokernel both have rank 1, matching the double cover, which is
    again a circle with homology (k, k).  Over the integers the Smith
    divisors of the matrix are (gcd of entries, 0), so the cokernel is
    torsion-free exactly when that gcd is 1; the verdict checks this too.
    """
    scalars = LaurentRing(0, k)
    one, minus = scalars.one, -scalars.one
    d = as_matrix([[one, minus], [minus, one]])
    cpx = FiniteChainComplex(scalars, (2, 2), (d,), "homological")
    point = SpecializationPoint((), k)
    h0_rank, h1_rank = homology_ranks_at(cpx, point)
    torsion_free = True
    if isinstance(k, Integers):
        entries = [entry.coefficient(()) for row in d for entry in row]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        first_divisor = gcd(*(abs(e) for e in entries))
        torsion_free = det == 0 and first_divisor == 1
    twisted = (_rank_name(h0_rank), _rank_name(h1_rank))
    untwisted = ("k", "k")
    return ShapiroVerdict(twisted == untwisted and torsion_free, twisted, untwisted)


def _rank_name(rank: int) -> str:
    if rank == 0:
        return "0"
    return "k" if rank == 1 else f"k^{rank}"


# ---------------------------------------------------------------------------
# serialized complexes (consumed by the command line)
# ---------------------------------------------------------------------------

_COEFFICIENTS = {
    "integers": Integers,
    "rationals": Rationals,
}


def complex_to_json(cpx: FiniteChainComplex) -> dict:
    return {
        "schema": 1,
        "direction": cpx.direction,
        "coefficients": cpx.ring.coefficients.name,
        "variables": list(cpx.ring.variables),
        "ranks": list(cpx.ranks),
        "boundaries": [
            [[entry.to_text() for entry in row] for row in boundary]
            for boundary in cpx.boundaries
        ],
    }


def complex_from_json(data: dict) -> FiniteChainComplex:
    """Read what complex_to_json writes; a missing or ill-typed field is a ValueError."""
    if not isinstance(data, dict) or data.get("schema") != 1:
        raise ValueError("unsupported schema version")
    name = data.get("coefficients", "integers")
    if not isinstance(name, str) or name not in _COEFFICIENTS:
        raise ValueError(f"unsupported coefficients: {name!r}")
    for field, kind in (("variables", str), ("ranks", int), ("boundaries", list)):
        value = data.get(field)
        if not isinstance(value, list) or not all(isinstance(x, kind) for x in value):
            raise ValueError(f"complex field {field!r} must be a list of {kind.__name__}")
    rows = [row for boundary in data["boundaries"] for row in boundary]
    if not all(isinstance(row, list) and all(isinstance(t, str) for t in row) for row in rows):
        raise ValueError("complex field 'boundaries' must hold rows of strings")
    variables = tuple(data["variables"])
    ring = LaurentRing(len(variables), _COEFFICIENTS[name](), variables)
    boundaries = tuple(
        tuple(tuple(ring.parse(text) for text in row) for row in boundary)
        for boundary in data["boundaries"]
    )
    return FiniteChainComplex(
        ring, tuple(data["ranks"]), boundaries, data.get("direction", "homological")
    )
