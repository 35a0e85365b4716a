"""Exact arithmetic in group rings of free abelian groups.

The ring R = k[Z^d] of Laurent polynomials in d commuting variables is the
coefficient ring underlying every other module in this package: group rings of
deck transformation groups, scalars of intersection pairings, entries of braid
matrices.  Elements are stored sparsely as a map from packed integer keys to
nonzero coefficients: exponent vector e in Z^d has key sum_i e_i * 2^(64*(d-1-i)),
which is linear (monomial products add keys) and ordered as the vectors in lex
order.  `element`, `monomial`, `parse` and `from_json_terms` reject exponents
beyond EXPONENT_BOUND = 2^31 - 1, and `**` rejects powers beyond it (for an element
with several terms, result exponents too).  Arithmetic is exact while exponents stay
within +-(2^63 - 1); `*` raises ValueError for a product that would leave that range,
while the matrix kernels (`sum_of_products`, and the column plans that every matrix
product goes through) trust their inputs and keep the term order stated in
`apply_column_plans`.  A product with a one-term factor (most braid generator entries)
is one shift and scale.  Over Z and Q a column plan lists only the columns its matrix
changes, leaving out each column whose one nonzero is a 1 in its own row, and the
kernel does their arithmetic with Python's operators inline.  Other modules see exponents as tuples (`coefficient`,
`support`, `items`).  No code mutates an element's term map after construction,
so elements and term maps are shared freely: `plan_term_rows` returns term maps
of its input rows, and `linalg.identity` and the braid tables reuse one element
for many entries.

Supported coefficient rings k: the integers, the rationals, the integers mod a
prime, and tolerance-based complex floats.  One flag, `is_exact`, tells them
apart: the three exact rings are integral domains, which makes R an integral
domain as well; this is what the unit and zero-divisor tests rely on.  Complex
coefficients are honest about rounding: equality means "difference within
tolerance", and the ill-posed predicates (is_unit, is_non_zero_divisor, exact
division) refuse to answer.

The canonical anti-automorphism alpha sends a group element to its inverse,
i.e. negates every exponent vector; since R is commutative it is a ring
involution.  Quantum integers [n]_u = 1 + u + ... + u^(n-1) and their
factorials live here too, because they are plain ring elements once u is
chosen.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, lru_cache

from .values import value_class

Exponents = tuple[int, ...]

EXPONENT_BOUND = 2**31 - 1
_WIDTH = 64  # bits per coordinate of a packed key
_HALF, _MASK = 1 << (_WIDTH - 1), (1 << _WIDTH) - 1  # centred digits lie in [-_HALF, _HALF)
_LIMIT = _HALF - 1  # products are exact while every exponent stays within +-_LIMIT


@lru_cache(maxsize=None)
def _small_key_masks(rank: int) -> tuple[int, int]:
    """(offset, spill): (key + offset) & spill == 0 iff every coordinate is in [-2^61, 2^61)."""
    places = [1 << (_WIDTH * j) for j in range(rank)]
    return sum(p << 61 for p in places), ~sum(p * ((1 << 62) - 1) for p in places)


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class CoefficientRing:
    """Interface for the supported coefficient rings k.

    Concrete subclasses are frozen value classes (`values.value_class`), so two ring
    descriptions compare equal exactly when they denote the same ring.
    """

    name: str = "?"
    is_exact: bool = True

    @cached_property
    def zero(self):
        return self.coerce(0)

    @cached_property
    def one(self):
        return self.coerce(1)

    def coerce(self, value):
        raise NotImplementedError

    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    is_zero = staticmethod(operator.not_)

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def power(self, a, n: int):
        if n >= 0:
            result = self.one
            for _ in range(n):
                result = self.mul(result, a)
            return result
        return self.power(self.invert(a), -n)

    # (sign, magnitude) split used only for printing "a - b" instead of "a + -b"
    def split_sign(self, a):
        return 1, a

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        raise NotImplementedError


@value_class
class Integers(CoefficientRing):
    name = "integers"

    def coerce(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"not an integer: {value!r}")
        return value

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def invert(self, a):
        if a not in (1, -1):
            raise ValueError(f"{a} is not a unit of the integers")
        return a

    def split_sign(self, a):
        return (-1, -a) if a < 0 else (1, a)

    def from_str(self, s: str):
        return int(s)


@value_class
class Rationals(CoefficientRing):
    name = "rationals"

    def coerce(self, value):
        if type(value) is Fraction:  # immutable, so returned as it is
            return value
        if isinstance(value, bool):
            raise TypeError(f"not a rational: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"not a rational: {value!r}")

    def is_unit(self, a) -> bool:
        return a != 0

    def invert(self, a):
        if a == 0:
            raise ValueError("0 is not a unit of the rationals")
        return 1 / Fraction(a)

    def power(self, a, n: int):
        if n >= 0:
            return Fraction(a) ** n
        return self.power(self.invert(a), -n)

    def split_sign(self, a):
        return (-1, -a) if a < 0 else (1, a)

    def from_str(self, s: str):
        return Fraction(s)


# Miller-Rabin with the first 13 prime bases is deterministic below the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
# The first 12 bases alone pass 318665857834031151167461 = 399165290221 * 798330580441.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p >= _PRIME_BOUND:
        raise ValueError(f"modulus {p} is beyond the primality bound {_PRIME_BOUND}")
    if p < 2 or any(p % q == 0 for q in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


@value_class
class IntegersModP(CoefficientRing):
    """The field Z/pZ for a prime p, residues stored in [0, p)."""

    p: int
    name = "integers-mod-p"

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def coerce(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"not an integer: {value!r}")
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def invert(self, a):
        if a % self.p == 0:
            raise ValueError(f"0 is not a unit mod {self.p}")
        return pow(a, -1, self.p)

    def power(self, a, n: int):
        if n >= 0:
            return pow(a, n, self.p)
        return self.power(self.invert(a), -n)

    def from_str(self, s: str):
        return int(s) % self.p


@value_class
class ComplexApprox(CoefficientRing):
    """Complex floats with an explicit comparison tolerance.

    Not an integral domain as far as this package is concerned: rounding makes
    "is this element a unit / a zero-divisor" ill-posed, so those predicates
    are refused rather than answered unreliably.
    """

    tolerance: float = 1e-9
    name = "complex-approx"
    is_exact = False

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")

    def coerce(self, value):
        if isinstance(value, bool):
            raise TypeError(f"not a number: {value!r}")
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        raise TypeError(f"not a number: {value!r}")

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tolerance

    def is_unit(self, a) -> bool:
        raise ValueError("is_unit is ill-posed over complex-approx coefficients")

    def invert(self, a):
        if self.is_zero(a):
            raise ValueError("cannot invert a coefficient within tolerance of 0")
        return 1 / a

    def to_str(self, a) -> str:
        return repr(a)

    def from_str(self, s: str):
        return complex(s)


# ---------------------------------------------------------------------------
# the Laurent ring R = k[Z^d]
# ---------------------------------------------------------------------------

def _default_variables(rank: int) -> tuple[str, ...]:
    if rank == 0:
        return ()
    if rank == 1:
        return ("x",)
    if rank == 2:
        return ("x", "d")
    return tuple(f"x{i + 1}" for i in range(rank))


@value_class
class LaurentRing:
    """The group ring k[Z^rank], with named variables for printing/parsing."""

    rank: int
    coefficients: CoefficientRing
    variables: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.variables is None:
            object.__setattr__(self, "variables", _default_variables(self.rank))
        else:
            object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != self.rank:
            raise ValueError("need exactly one variable name per lattice rank")
        if len(set(self.variables)) != self.rank:
            raise ValueError("variable names must be distinct")
        for v in self.variables:
            if not v.isidentifier():
                raise ValueError(f"bad variable name: {v!r}")

    # -- constructors -------------------------------------------------------

    def element(self, terms: dict) -> GroupRingElement:
        """Build an element from {exponent tuple: coefficient}, canonicalizing."""
        k = self.coefficients
        clean = {self._pack(exps): k.coerce(coeff) for exps, coeff in terms.items()}
        return GroupRingElement(self, {e: c for e, c in clean.items() if not k.is_zero(c)})

    def _pack(self, exps, bound: int = EXPONENT_BOUND) -> int:
        exps = tuple(exps)
        key = 0
        for e in exps:
            if not (isinstance(e, int) and -bound <= e <= bound):
                break
            key = (key << _WIDTH) + e
        else:
            if len(exps) == self.rank:
                return key
        raise ValueError(f"bad exponent vector {exps!r} for rank {self.rank} (bound {bound})")

    def _check_product_range(self, f: dict, g: dict) -> None:
        """ValueError unless every exponent of f*g lies within +-(2^63 - 1).

        Over a domain each coordinate's extremes of f*g are the sums of those
        of f and g.
        """
        if f and g:
            for a, b in zip(zip(*map(self._unpack, f)), zip(*map(self._unpack, g))):
                if max(a) + max(b) > _LIMIT or min(a) + min(b) < -_LIMIT:
                    raise ValueError("a product exponent would leave +-(2^63 - 1)")

    def _unpack(self, key: int) -> Exponents:
        low = []  # centred digits, last coordinate first
        for _ in range(self.rank - 1):
            low.append(((key + _HALF) & _MASK) - _HALF)
            key = (key - low[-1]) >> _WIDTH
        return (key, *reversed(low)) if self.rank else ()

    @property
    def zero(self) -> GroupRingElement:
        return GroupRingElement(self, {})

    @property
    def one(self) -> GroupRingElement:
        return self.scalar(1)

    def scalar(self, coeff) -> GroupRingElement:
        return self.element({(0,) * self.rank: coeff})

    def monomial(self, exponents: Exponents, coeff=1) -> GroupRingElement:
        return self.element({tuple(exponents): coeff})

    def gen(self, i: int) -> GroupRingElement:
        """The i-th lattice generator as a ring element (the variable itself)."""
        if not 0 <= i < self.rank:
            raise ValueError(f"no generator {i} in rank {self.rank}")
        exps = tuple(1 if j == i else 0 for j in range(self.rank))
        return self.monomial(exps)

    def var(self, name: str) -> GroupRingElement:
        return self.gen(self.variables.index(name))

    # -- serialization ------------------------------------------------------

    def from_json_terms(self, data: list) -> GroupRingElement:
        k = self.coefficients
        return self.element(
            {tuple(item["exponents"]): k.from_str(item["coeff"]) for item in data}
        )

    def parse(self, text: str) -> GroupRingElement:
        """Parse the canonical text form produced by GroupRingElement.to_text."""
        return _parse_element(self, text)


class GroupRingElement:
    """A finitely supported function Z^d -> k, i.e. a sparse Laurent polynomial.

    Immutable after construction.  Use LaurentRing.element / monomial / scalar
    to build instances; the constructor trusts its input to be canonical.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: LaurentRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: Exponents):
        return self.terms.get(self.ring._pack(exponents, _HALF - 1), self.ring.coefficients.zero)

    def support(self) -> list[Exponents]:
        return [self.ring._unpack(e) for e in sorted(self.terms)]

    def items(self) -> list[tuple[Exponents, object]]:
        """(exponent tuple, coefficient) pairs in ascending lex order."""
        return [(self.ring._unpack(e), c) for e, c in sorted(self.terms.items())]

    def _check_context(self, other: GroupRingElement):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(
                f"ring context mismatch: {self.ring} vs {other.ring}"
            )

    def _coerce_operand(self, other):
        if isinstance(other, GroupRingElement):
            self._check_context(other)
            return other
        if isinstance(other, (int, Fraction, float, complex)):
            return self.ring.scalar(other)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        terms = _accumulate(self.ring.coefficients, dict(self.terms), other.terms)
        return GroupRingElement(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        k = self.ring.coefficients
        return GroupRingElement(self.ring, {e: k.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        offset, spill = _small_key_masks(self.ring.rank)
        for e in (*self.terms, *other.terms):
            if (e + offset) & spill:  # a coordinate beyond 2^61: check exactly
                self.ring._check_product_range(self.terms, other.terms)
                break
        terms = _product(self.ring.coefficients, self.terms, other.terms)
        return GroupRingElement(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        # The power of a one-term element is a shift, which `*` range-checks, so
        # only n is bounded; other powers keep every result exponent in bound.
        if len(self.terms) == 1:
            largest = 1
        else:
            largest = max((abs(e) for key in self.terms for e in self.ring._unpack(key)), default=0)
        if largest * abs(n) > EXPONENT_BOUND:
            raise ValueError(f"power {n} takes an exponent beyond {EXPONENT_BOUND}")
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:  # an unused last square could leave the range
                square = square * square
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = self.ring.scalar(other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        if self.ring.coefficients.is_exact:
            return self.terms == other.terms
        return (self - other).is_zero()

    __hash__ = None  # mutable dict inside; elements are not dict keys

    # -- structure ----------------------------------------------------------

    def alpha(self) -> GroupRingElement:
        """The canonical involution: negate every exponent vector (g -> g^-1)."""
        return GroupRingElement(self.ring, {-e: c for e, c in self.terms.items()})

    def is_unit(self) -> bool:
        """Whether this element is invertible in k[Z^d].

        Over an integral domain k the units of k[Z^d] are exactly the single
        monomials with unit coefficient.  Refused over complex-approx.
        """
        k = self.ring.coefficients
        if not k.is_exact:
            raise ValueError(
                f"is_unit is not supported over {k.name} coefficients"
            )
        if len(self.terms) != 1:
            return False
        (coeff,) = self.terms.values()
        return k.is_unit(coeff)

    def is_non_zero_divisor(self) -> bool:
        """Whether multiplication by this element is injective.

        k[Z^d] over an integral domain is itself an integral domain, so this
        just means "nonzero".  Refused over complex-approx.
        """
        k = self.ring.coefficients
        if not k.is_exact:
            raise ValueError(
                f"is_non_zero_divisor is not supported over {k.name} coefficients"
            )
        return bool(self.terms)

    def inverse(self) -> GroupRingElement:
        """Invert a unit (a single monomial with unit coefficient)."""
        if not self.is_unit():
            raise ValueError(f"not a unit: {self}")
        ((key, coeff),) = self.terms.items()
        return GroupRingElement(self.ring, {-key: self.ring.coefficients.invert(coeff)})

    def specialize(self, assignments: dict, target: CoefficientRing) -> GroupRingElement:
        """Substitute a numeric value for every variable (`specialize_rows` on one entry).

        `assignments` maps variable names to values coercible into `target`;
        the result lives in the rank-0 Laurent ring over `target`.  Values
        must be invertible in `target` whenever negative exponents occur.
        """
        ((total,),) = specialize_rows([(self,)], assignments, target)
        return GroupRingElement(LaurentRing(0, target), {} if target.is_zero(total) else {0: total})

    # -- printing and parsing -------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms in ascending lex order of exponents."""
        if not self.terms:
            return "0"
        k = self.ring.coefficients
        pieces: list[tuple[int, str]] = []
        for exps, coeff in self.items():
            sign, mag = k.split_sign(coeff)
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.ring.variables, exps)
                if e != 0
            )
            if not mono:
                body = k.to_str(mag)
            elif mag == k.one:
                body = mono
            else:
                body = f"{k.to_str(mag)}*{mono}"
            pieces.append((sign, body))
        sign, body = pieces[0]
        out = ("-" if sign < 0 else "") + body
        for sign, body in pieces[1:]:
            out += (" - " if sign < 0 else " + ") + body
        return out

    def to_json_terms(self) -> list:
        k = self.ring.coefficients
        return [
            {"exponents": list(exps), "coeff": k.to_str(coeff)}
            for exps, coeff in self.items()
        ]

    def __repr__(self):
        return self.to_text()


def _parse_element(ring: LaurentRing, text: str) -> GroupRingElement:
    text = text.strip()
    if text == "0":
        return ring.zero
    chunks = text.replace(" - ", " + -").split(" + ")
    k = ring.coefficients
    terms: dict[Exponents, object] = {}
    for chunk in chunks:
        chunk = chunk.strip()
        negate = False
        coeff = None
        exps = [0] * ring.rank
        if chunk.startswith("-") and not _looks_numeric(chunk, k):
            negate = True
            chunk = chunk[1:]
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"cannot parse term {chunk!r}")
            name, _, power = factor.partition("^")
            if name in ring.variables:
                exps[ring.variables.index(name)] += int(power) if power else 1
            elif coeff is None:
                coeff = k.from_str(factor)
            else:
                raise ValueError(f"cannot parse factor {factor!r} in {chunk!r}")
        if coeff is None:
            coeff = k.one
        if negate:
            coeff = k.neg(coeff)
        e = tuple(exps)
        terms[e] = k.add(terms.get(e, k.zero), coeff)
    return ring.element(terms)


def _looks_numeric(chunk: str, k: CoefficientRing) -> bool:
    # "-2*x" starts with a numeric factor carrying its own sign; "-x" does not
    head = chunk.split("*", 1)[0]
    try:
        k.from_str(head)
        return True
    except (ValueError, TypeError):
        return False


def _product(k: CoefficientRing, f: dict, g: dict) -> dict:
    """The term map of a product, a sum that reaches zero dropped as it does.

    Over an integral domain a one-term factor only shifts and scales the other.
    """
    mul = k.mul
    if k.is_exact and min(len(f), len(g)) == 1:
        if len(f) != 1:
            f, g = g, f
        ((e1, c1),) = f.items()
        return {e1 + e2: mul(c1, c2) for e2, c2 in g.items()}
    add, is_zero, zero = k.add, k.is_zero, k.zero
    terms: dict[int, object] = {}
    g_terms = g.items()
    for e1, c1 in f.items():
        for e2, c2 in g_terms:
            e = e1 + e2
            s = add(terms.get(e, zero), mul(c1, c2))
            if is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
    return terms


def _accumulate(k: CoefficientRing, acc: dict, terms: dict) -> dict:
    """Add the term map `terms` into `acc` in place, dropping zero sums."""
    add, is_zero, zero = k.add, k.is_zero, k.zero
    for e, c in terms.items():
        s = add(acc.get(e, zero), c)
        if is_zero(s):
            acc.pop(e, None)
        else:
            acc[e] = s
    return acc


def sum_of_products(ring: LaurentRing, pairs) -> GroupRingElement:
    """Sum of f*g over (f, g) pairs from `ring`; callers check the ring once per matrix.

    Products merge by the term-order rule of `apply_column_plans`.
    """
    k = ring.coefficients
    acc: dict[int, object] = {}
    for f, g in pairs:
        if f.terms and g.terms:
            product = _product(k, f.terms, g.terms)
            acc = _accumulate(k, acc, product) if acc else product
    return GroupRingElement(ring, acc)


def _native(k: CoefficientRing) -> bool:
    """Whether k's add, mul and is_zero are Python's operators (Z and Q)."""
    return (k.add, k.mul, k.is_zero) == (operator.add, operator.mul, operator.not_)


def column_plan(matrix) -> tuple:
    """Compile a matrix, with at least one row and column, for `apply_column_plans`.

    The matrix's columns go to `plan_columns`, each as its nonzero entries.
    """
    columns = [[(i, x.terms) for i, x in enumerate(col) if x.terms] for col in zip(*matrix)]
    return plan_columns(matrix[0][0].ring, len(matrix), columns)


def plan_columns(ring: LaurentRing, height: int, columns: list) -> tuple:
    """The column plan of a `height`-row matrix given as `columns`: for each column,
    its nonzero entries as (row, term map) in ascending row order.

    The plan is (ring, number of rows, number of columns, columns); a column is
    (index, entries) and lists its nonzero entries in ascending row order as
    (row, 0, 1, term map), a full product.  Over Z and Q, whose add, mul and
    is_zero are Python's operators, a product with 1 changes nothing and one of
    nonzero terms is never zero, so a column whose one nonzero entry is a 1 in
    its own row is left out (the kernel keeps that entry of the row), a one-term
    entry is (row, shift, coefficient, None), and both keep the term order
    stated in `apply_column_plans`.  F_p must reduce mod p, and under
    complex-approx a product with 1 turns a -0.0 imaginary part into 0.0, so
    every column of theirs is listed, as full products.
    """
    native = _native(ring.coefficients)
    planned = []
    for j, entries in enumerate(columns):
        if native and entries == [(j, {0: 1})]:
            continue
        planned.append((j, tuple([
            (i, *next(iter(g.items())), None) if native and len(g) == 1 else (i, 0, 1, g)
            for i, g in entries
        ])))
    return ring, height, len(columns), tuple(planned)


def apply_column_plans(start, plans) -> tuple[tuple[GroupRingElement, ...], ...]:
    """The product of `start` (entries from one ring) with the planned matrices, in order.

    The rows of `start` go through `plan_term_rows` as term maps.  Term order:
    an entry's products arrive in ascending inner index, and a product that
    lands on an empty accumulator becomes it (the rest merge by `_accumulate`).
    So an entry has the terms, in dict order, of the ring operators' sum over
    the inner index, which is what float specializations depend on.
    """
    ring = start[0][0].ring
    rows = plan_term_rows(ring, [[x.terms for x in row] for row in start], plans)
    return tuple(tuple(GroupRingElement(ring, terms) for terms in row) for row in rows)


def plan_term_rows(ring: LaurentRing, rows: list, plans) -> list:
    """The kernel of `apply_column_plans`: `rows`, term maps of `ring`, times the plans.

    Each output row starts as its input row, cut or padded with empty maps to
    the plan's width, and only the listed columns are written: each sums its
    entries' products, a shift and scale by a one-term entry or a full
    product.  Over Z and Q the products and merges run `_product`'s and
    `_accumulate`'s loops inline with Python's operators, and a one-term entry
    with coefficient 1 or -1 merges by adding or subtracting, with no product;
    over F_p and complex-approx they call `_product` and `_accumulate`.  The
    rows (at least one) are replaced in place and returned; an entry of the
    result may be a term map of `rows`.
    """
    k = ring.coefficients
    native = _native(k)
    for plan_ring, height, width, columns in plans:
        if plan_ring is not ring and plan_ring != ring:
            raise ValueError(f"ring context mismatch: {ring} vs {plan_ring}")
        if height != len(rows[0]):
            raise ValueError(f"shape mismatch: {len(rows[0])} columns times {height} rows")
        pad = [{}] * (width - height)
        for r, row in enumerate(rows):
            out = row[:width] + pad
            for j, col in columns:
                acc = {}
                for i, shift, c, g in col:
                    f = row[i]
                    if not f:
                        continue
                    if g is not None:
                        if not native:
                            product = _product(k, f, g)
                            acc = _accumulate(k, acc, product) if acc else product
                            continue
                        product, f = f, {}
                        for e1, c1 in product.items():
                            for e2, c2 in g.items():
                                e = e1 + e2
                                s = f.get(e, 0) + c1 * c2
                                if s:
                                    f[e] = s
                                else:
                                    del f[e]
                    if not acc:
                        acc = (f if g is not None else dict(f) if c == 1 and not shift else
                               {e + shift: v for e, v in f.items()} if c == 1 else
                               {e + shift: c * v for e, v in f.items()})
                    elif c == -1:
                        for e, v in f.items():
                            e += shift
                            s = acc.get(e, 0) - v
                            if s:
                                acc[e] = s
                            else:
                                del acc[e]
                    elif c == 1:
                        for e, v in f.items():
                            e += shift
                            s = acc.get(e, 0) + v
                            if s:
                                acc[e] = s
                            else:
                                del acc[e]
                    else:
                        for e, v in f.items():
                            e += shift
                            s = acc.get(e, 0) + c * v
                            if s:
                                acc[e] = s
                            else:
                                del acc[e]
                out[j] = acc
            rows[r] = out
    return rows


POWER_BITS_BUDGET = 10**6  # bits of an exact power value^e, estimated before computing it
POWER_CHAIN_LIMIT = 10**6  # products in a power that `CoefficientRing.power` takes as a chain


def _exponent_limit(target: CoefficientRing, value) -> float:
    """The largest |e| for which `specialize_rows` computes value^e in `target`.

    Over Z and Q, value^e has about |e| * max(bit lengths of the numerator and
    denominator) bits, which may not pass POWER_BITS_BUDGET (0, 1 and -1,
    whose powers are themselves, have no limit).  Where `target.power` is the
    chain of |e| products of `CoefficientRing.power` (complex-approx, Z), |e|
    may not pass POWER_CHAIN_LIMIT either.  F_p takes powers with `pow` and
    has no limit.
    """
    limit = float("inf")
    if target.is_exact and not isinstance(target, IntegersModP):
        n, d = value.numerator, value.denominator
        if d > 1 or not -1 <= n <= 1:
            limit = POWER_BITS_BUDGET // max(n.bit_length(), d.bit_length())
    if type(target).power is CoefficientRing.power:
        limit = min(limit, POWER_CHAIN_LIMIT)
    return limit


def specialize_rows(rows, assignments: dict, target: CoefficientRing) -> list[list]:
    """The value in `target` of every entry of `rows` (all in one ring) at the assignments.

    Once per call: the variables are checked, the values coerced and each power
    value^e computed by `target.power` (by squaring over Q and F_p, left to
    right under complex-approx); a power whose |e| is past `_exponent_limit`
    is a ValueError, before any arithmetic.  Rows may have different lengths.
    Each entry keeps one order of float operations: a term is
    coerce(coefficient) times the powers in variable order, the terms are
    summed in dict order, and a total target.is_zero calls zero becomes
    target.zero.  Under complex-approx the sum starts from
    target.zero, since 0j + t can turn a -0.0 part of t into 0.0; over an exact
    target it starts from the first term, since there 0 + t is t.  An entry
    with no terms is target.zero at once, which is what summing no terms from
    target.zero gives.  When the ring's coefficients are exact, the value of a
    one-term entry is kept per (packed key, coefficient) for the rest of the
    call; complex coefficients are not, because equal keys such as
    complex(0.0, 1) and complex(-0.0, 1) are different values.
    """
    ring = next((x.ring for row in rows for x in row), None)
    variables = ring.variables if ring else ()
    missing = set(variables) - set(assignments)
    if missing:
        raise ValueError(f"unassigned variables: {sorted(missing)}")
    values = [target.coerce(assignments[v]) for v in variables]
    limits = [_exponent_limit(target, value) for value in values]
    coerce, add, mul, is_zero, zero = (target.coerce, target.add, target.mul, target.is_zero,
                                       target.zero)
    start = None if target.is_exact else zero  # None: the sum starts from its first term
    powers, factors = {}, {}  # (variable index, e) -> value^e; packed key -> its powers
    memo = {} if ring and ring.coefficients.is_exact else None  # (key, coeff) -> value

    def power(i, e):
        if (i, e) not in powers:
            if abs(e) > limits[i]:
                raise ValueError(
                    f"the power {e} of {target.to_str(values[i])} is past the work budget"
                    f" ({POWER_BITS_BUDGET} bits of an exact result, {POWER_CHAIN_LIMIT}"
                    f" products in a chain), which admits |e| <= {limits[i]} here")
            powers[i, e] = target.power(values[i], e)
        return powers[i, e]

    def evaluate(terms):
        total = start
        for key, coeff in terms.items():
            term = coerce(coeff)
            pows = factors.get(key)
            if pows is None:
                pows = factors[key] = [power(i, e) for i, e in enumerate(ring._unpack(key))]
            for p in pows:
                term = mul(term, p)
            total = term if total is None else add(total, term)
        return zero if is_zero(total) else total

    out = []
    for row in rows:
        out_row = []
        for x in row:
            if x.ring is not ring and x.ring != ring:
                raise ValueError(f"ring context mismatch: {ring} vs {x.ring}")
            terms = x.terms
            if not terms:
                out_row.append(zero)
            elif memo is not None and len(terms) == 1:
                (pair,) = terms.items()
                value = memo.get(pair)
                if value is None:
                    value = memo[pair] = evaluate(terms)
                out_row.append(value)
            else:
                out_row.append(evaluate(terms))
        out.append(out_row)
    return out


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def exact_divide(f: GroupRingElement, g: GroupRingElement) -> GroupRingElement | None:
    """Return q with f = q*g if one exists in the same Laurent ring, else None.

    Works over integral-domain coefficients only.  Division is by leading
    terms in lex order; termination is guaranteed because the support of any
    true quotient is confined to the per-coordinate box
    [min(f) - min(g), max(f) - max(g)] (supports add when polynomials
    multiply), so a candidate quotient exponent escaping the box proves
    non-divisibility.  Over the integers every leading coefficient must
    divide exactly, since the remainder stays a multiple of g.
    """
    if f.ring is not g.ring and f.ring != g.ring:
        raise ValueError("ring context mismatch")
    k = f.ring.coefficients
    if not k.is_exact:
        raise ValueError(f"exact division is not supported over {k.name} coefficients")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero element")
    if f.is_zero():
        return f.ring.zero

    rank, unpack = f.ring.rank, f.ring._unpack
    f_exps, g_exps = [unpack(e) for e in f.terms], [unpack(e) for e in g.terms]
    lo = tuple(
        min(e[i] for e in f_exps) - min(e[i] for e in g_exps) for i in range(rank)
    )
    hi = tuple(
        max(e[i] for e in f_exps) - max(e[i] for e in g_exps) for i in range(rank)
    )
    if any(a > b for a, b in zip(lo, hi)):
        return None

    g_lead = max(g.terms)
    g_lead_coeff = g.terms[g_lead]
    inverse = None if isinstance(k, Integers) else k.invert(g_lead_coeff)
    remainder = dict(f.terms)
    quotient: dict[int, object] = {}
    while remainder:
        r_lead = max(remainder)
        q_exp = r_lead - g_lead
        if q_exp in quotient or any(q < a or q > b for q, a, b in zip(unpack(q_exp), lo, hi)):
            return None
        if inverse is None:
            q_coeff, rest = divmod(remainder[r_lead], g_lead_coeff)
            if rest:
                return None
        else:
            q_coeff = k.mul(remainder[r_lead], inverse)
        quotient[q_exp] = q_coeff
        _accumulate(k, remainder, _product(k, {q_exp: k.neg(q_coeff)}, g.terms))
    return GroupRingElement(f.ring, quotient)


# ---------------------------------------------------------------------------
# quantum integers and factorials
# ---------------------------------------------------------------------------

def quantum_integer(n: int, u: GroupRingElement) -> GroupRingElement:
    """[n]_u = 1 + u + u^2 + ... + u^(n-1), defined for n >= 1."""
    if n < 1:
        raise ValueError(f"quantum integers are defined for n >= 1, got {n}")
    total = u.ring.one
    power = u.ring.one
    for _ in range(n - 1):
        power = power * u
        total = total + power
    return total


def quantum_factorial(n: int, u: GroupRingElement) -> GroupRingElement:
    """[n]_u! = [1]_u [2]_u ... [n]_u, with the empty-product convention [0]_u! = 1.

    The n = 0 case is what makes compositions with zero parts contribute a
    factor 1 to diagonal embedding entries.
    """
    if n < 0:
        raise ValueError(f"quantum factorials are defined for n >= 0, got {n}")
    result = u.ring.one
    for j in range(2, n + 1):
        result = result * quantum_integer(j, u)
    return result


def quantum_factorial_product(parts, u: GroupRingElement) -> GroupRingElement:
    """prod_i [e_i]_u! over the parts e_i of a composition, multiplied left to right.

    This is the diagonal entry of an embedding matrix and the closed form of
    the geometric pairing of a class with itself.
    """
    result = u.ring.one
    for part in parts:
        result = result * quantum_factorial(part, u)
    return result
