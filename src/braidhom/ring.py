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
while the column plans that every matrix product goes through trust their inputs and
keep the term order stated in `apply_column_plans`.  A product with a one-term factor
is one shift and scale.  One function compiles plans, `plan_rows`, from a matrix's rows
as {column: nonzero element}, the sparse form braid letters and chain complexes keep
(`column_plan` is it on a dense matrix).  The plan kernel holds a matrix by columns, as
lists of term maps: it carries over the columns a plan leaves out and decides each
entry's kind once per column, not per row; over Z and Q products and merges run with
Python's operators inline.  Each column has a frame (offset, sign), +-1: its true maps
are its stored maps with keys shifted by the packed key `offset` and values times
`sign`.  A column whose first entry is +-x^e shares its source's maps under a shifted
frame, with no per-row work; later entries merge into it translated into its frame,
and a shared map is copied just before the first merge into it (copy before merge).
Frames are applied once, when the kernel returns.  Other modules see exponents as
tuples (`coefficient`, `support`, `items`).  No code mutates an element's term map
after construction, so elements and term maps are shared freely.

Supported coefficient rings k: the integers, defined here, and in `fields` the
rationals, the integers mod a prime and tolerance-based complex floats.  One
flag, `is_exact`, tells them apart: the three exact rings are integral domains,
which makes R an integral domain as well; this is what the unit and zero-divisor
tests rely on.  Complex coefficients are honest about rounding: equality means
"difference within tolerance", and the ill-posed predicates (is_unit,
is_non_zero_divisor, exact division) refuse to answer.  An element takes an int,
float, complex or Fraction as a scalar; one its coefficients refuse is a
TypeError in arithmetic and unequal to every element.  A bool is no scalar:
arithmetic with one is a TypeError and an element never equals one.

The canonical anti-automorphism alpha sends a group element to its inverse,
i.e. negates every exponent vector; since R is commutative it is a ring
involution.

Text.  `matrix_text` is the one formatter from elements to text: it prints a
matrix, builds each monomial's text once per call and leaves the sign split
and the printing of a coefficient to its ring (`split_sign`, `to_str`);
`GroupRingElement.to_text` is it on one element.  `LaurentRing.parse` reads
that text back, and its docstring states the term grammar.

Imports.  A cold `braidhom rep` needs nothing of the package beyond this module,
`braid`, `compositions` and `values` (and the command line's own two modules), so
what a word's evaluation starts from lives here: the identity matrix and the
standard local system (the (x, d) convention, which `surfaces` exports under its
public name as well).  A plain `rep` computes over the integers alone, so the
other coefficient rings and the evaluator at a point, `specialize_matrix`, live
in `fields`, and the quantum integers and factorials in `surfaces`; a plain `rep`
loads neither, and this module does not import `fractions`.
"""

from __future__ import annotations

import operator
import sys
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
        if n < 0:
            a, n = self.invert(a), -n
        return self.coerce(a) ** n

    # (sign, magnitude) split used only for printing "a - b" instead of "a + -b"
    def split_sign(self, a):
        return 1, a

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        """The coefficient that `to_str` writes as `s`; anything but a string is a TypeError."""
        if not isinstance(s, str):
            raise TypeError(f"a coefficient is read from a string, got {s!r}")
        return self._read(s)

    def _read(self, s: str):
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

    def _read(self, s: str):
        return int(s)


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
        """Read what `to_json_terms` writes; a missing or ill-typed field is a ValueError."""
        k = self.coefficients
        return self.element({tuple(json_list(item.get("exponents"), int, "term field 'exponents'")):
                             json_coefficient(k, item.get("coeff"), "term field 'coeff'")
                             for item in json_list(data, dict, "the terms")})

    def parse(self, text: str) -> GroupRingElement:
        """Parse the text form that GroupRingElement.to_text prints; terms may repeat.

        The grammar, after stripping surrounding whitespace:

            element     := "0" | term (separator term)*
            separator   := " + " | " - "
            term        := ["-"] factor ("*" factor)*      (spaces around a factor are dropped)
            factor      := variable ["^" exponent] | coefficient
            exponent    := ["+" | "-"] digit+               (ASCII digits)
            coefficient := what the coefficient ring's from_str reads: an integer over
                           Z and F_p, p or p/q over Q, a complex literal under complex-approx

        A variable is one of the ring's variable names and may repeat in a term
        (exponents add); a term holds at most one coefficient (1 if none).  A
        leading "-" negates the term unless the term's first factor is a
        coefficient, which then carries the sign.  Anything else is a
        ValueError that names the term, after any leading "-".
        """
        return _parse_element(self, text)


def _is_scalar(value) -> bool:
    """Whether elements take `value` as a scalar: an int (not a bool), float, complex or Fraction.

    A Fraction exists only once `fractions` is loaded, so the test does not load it.
    """
    if isinstance(value, (int, float, complex)):
        return not isinstance(value, bool)
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


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

    def _coerce_operand(self, other):
        if isinstance(other, GroupRingElement):
            if self.ring is not other.ring and self.ring != other.ring:
                raise ValueError(f"ring context mismatch: {self.ring} vs {other.ring}")
            return other
        if _is_scalar(other):
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
        k = self.ring.coefficients
        return GroupRingElement(self.ring, _product(k, self.terms, other.terms, _native(k)))

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
        if _is_scalar(other):
            try:
                other = self.ring.scalar(other)
            except TypeError:  # a scalar the coefficients refuse; Python then answers False
                return NotImplemented
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

    # -- printing and parsing -------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms in ascending lex order of exponents (`matrix_text`)."""
        return matrix_text(((self,),))[0][0]

    def to_json_terms(self) -> list:
        k = self.ring.coefficients
        return [
            {"exponents": list(exps), "coeff": k.to_str(coeff)}
            for exps, coeff in self.items()
        ]

    def __repr__(self):
        return self.to_text()


def matrix_text(rows) -> list[list[str]]:
    """The canonical text of every entry of `rows` (all in one ring; rows may be ragged).

    An entry with no terms is "0".  Otherwise its terms come in ascending lex
    order of exponents, each as coefficient*monomial, joined by " + " or by
    " - " with the coefficient's magnitude after it (the ring's `split_sign`;
    a leading negative term starts with "-").  A monomial is its variables with
    nonzero exponents, "v" or "v^e", joined by "*"; the coefficient is left
    out when its magnitude is one, and a term with no variables is the
    coefficient alone, printed by the ring's `to_str`.  Each monomial's text is
    built once per call, keyed by its packed key.
    """
    ring = next((x.ring for row in rows for x in row), None)
    if ring is None:
        return [["0"] * len(row) for row in rows]
    k = ring.coefficients
    split_sign, to_str, one = k.split_sign, k.to_str, k.one
    variables, unpack = ring.variables, ring._unpack
    monomials: dict[int, str] = {}
    out = []
    for row in rows:
        cells = []
        for x in row:
            if x.ring is not ring and x.ring != ring:
                raise ValueError(f"ring context mismatch: {ring} vs {x.ring}")
            terms = x.terms
            if not terms:
                cells.append("0")
                continue
            text = ""
            for key, coeff in sorted(terms.items()):
                sign, mag = split_sign(coeff)
                mono = monomials.get(key)
                if mono is None:
                    mono = monomials[key] = "*".join(
                        v if e == 1 else f"{v}^{e}" for v, e in zip(variables, unpack(key)) if e)
                if not mono:
                    body = to_str(mag)
                elif mag == one:
                    body = mono
                else:
                    body = f"{to_str(mag)}*{mono}"
                if text:
                    text += (" - " if sign < 0 else " + ") + body
                else:
                    text = "-" + body if sign < 0 else body
            cells.append(text)
        out.append(cells)
    return out


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
            name, caret, power = factor.partition("^")
            if name in ring.variables:
                if caret:
                    if not power:
                        raise ValueError(f"cannot parse term {chunk!r}: '^' without an exponent")
                    digits = power[1:] if power[0] in "+-" else power
                    if not (digits.isascii() and digits.isdigit()):
                        raise ValueError(f"cannot parse term {chunk!r}: the exponent {power!r}"
                                         " is not an integer")
                exps[ring.variables.index(name)] += int(power) if caret else 1
                continue
            value = None if caret else _coefficient(k, factor)
            if value is None:
                if caret or factor.isidentifier():
                    raise ValueError(f"cannot parse term {chunk!r}: unknown variable {name!r};"
                                     f" the variables are {ring.variables}")
                raise ValueError(f"cannot parse term {chunk!r}: {factor!r} is neither a variable"
                                 f" of {ring.variables} nor a coefficient over {k.name}")
            if coeff is not None:
                raise ValueError(f"cannot parse term {chunk!r}: a second coefficient {factor!r}")
            coeff = value
        if coeff is None:
            coeff = k.one
        if negate:
            coeff = k.neg(coeff)
        e = tuple(exps)
        terms[e] = k.add(terms.get(e, k.zero), coeff)
    return ring.element(terms)


def _coefficient(k: CoefficientRing, text: str):
    """k.from_str(text), or None where k reads no coefficient there."""
    try:
        return k.from_str(text)
    except (ValueError, TypeError, ZeroDivisionError):
        return None


def json_list(value, kind: type, name: str) -> list:
    """`value`, a list of `kind` read from json; anything else is a ValueError naming it."""
    if not isinstance(value, list) or not all(isinstance(x, kind) for x in value):
        raise ValueError(f"{name} must be a list of {kind.__name__}")
    return value


def json_coefficient(k: CoefficientRing, text, name: str):
    """The coefficient over k that `to_str` wrote as `text`; anything else is a ValueError."""
    value = _coefficient(k, text) if isinstance(text, str) else None
    if value is None:
        raise ValueError(f"{name} must be a coefficient over {k.name} in a string, got {text!r}")
    return value


def _looks_numeric(chunk: str, k: CoefficientRing) -> bool:
    # "-2*x" starts with a numeric factor carrying its own sign; "-x" does not
    return _coefficient(k, chunk.split("*", 1)[0]) is not None


def _product(k: CoefficientRing, f: dict, g: dict, native: bool = False) -> dict:
    """The term map of a product, a sum that reaches zero dropped as it does.

    Over an integral domain a one-term factor only shifts and scales the other.
    `native` is `_native(k)`, decided by the caller: then Python's operators run inline.
    """
    mul = k.mul
    if k.is_exact and min(len(f), len(g)) == 1:
        if len(f) != 1:
            f, g = g, f
        ((e1, c1),) = f.items()
        return {e1 + e2: mul(c1, c2) for e2, c2 in g.items()}
    terms: dict[int, object] = {}
    g_terms = g.items()
    if not native:  # the same sums, one row of f's terms at a time
        for e1, c1 in f.items():
            _accumulate(k, terms, {e1 + e2: mul(c1, c2) for e2, c2 in g_terms})
        return terms
    for e1, c1 in f.items():
        for e2, c2 in g_terms:
            e = e1 + e2
            s = terms.get(e, 0) + c1 * c2
            if s:
                terms[e] = s
            else:
                del terms[e]
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


def _native(k: CoefficientRing) -> bool:
    """Whether k's add, mul and is_zero are Python's operators (Z and Q)."""
    return (k.add, k.mul, k.is_zero) == (operator.add, operator.mul, operator.not_)


def identity(ring: LaurentRing, size: int) -> tuple[tuple[GroupRingElement, ...], ...]:
    """The identity matrix; its entries share one `one` and one `zero`."""
    one, zero = ring.one, ring.zero
    return tuple(tuple(one if i == j else zero for j in range(size)) for i in range(size))


def matrix_width(matrix) -> int:
    """The common length of the rows of `matrix`, 0 with no rows; ValueError if ragged."""
    if len(widths := {len(row) for row in matrix} or {0}) > 1:
        raise ValueError(f"ragged matrix: rows of lengths {sorted(widths)}")
    return widths.pop()


def column_plan(matrix) -> tuple:
    """`plan_rows` of a matrix with at least one row and column (ValueError if ragged)."""
    width = matrix_width(matrix)
    return plan_rows(matrix[0][0].ring, [{j: x for j, x in enumerate(row) if x.terms}
                                         for row in matrix], width)


def plan_rows(ring: LaurentRing, rows: list, width: int) -> tuple:
    """The column plan of the `width`-column matrix whose rows are `rows`, each given as
    {column: element} over its nonzero entries: the one compiler of plans, for dense
    matrices (`column_plan`), braid letters and chain-complex composites.

    The plan is (ring, number of rows, number of columns, columns); a column is
    (index, entries) and lists its nonzero entries in ascending row order, each
    a full product (row, 0, 1, term map) or a shift (row, shift, 1 or -1, None)
    by the one-term entry x^shift or -x^shift.  Only over Z and Q, whose add,
    mul and is_zero are Python's operators, is a product with 1 a no-op and one
    of nonzero terms never zero: there the +-1 one-term entries are shifts, and
    a column whose one nonzero is a 1 in its own row is left out (the kernel
    carries that column over), both keeping the term order of `apply_column_plans`.
    Over F_p (which reduces mod p) and complex-approx (where a product with 1
    turns a -0.0 imaginary part into 0.0) every column is listed, as products.
    """
    columns = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j].append((i, x.terms))
    native = _native(ring.coefficients)
    planned = []
    for j, entries in enumerate(columns):
        if native and entries == [(j, {0: 1})]:
            continue
        planned.append((j, tuple([
            (i, *term, None)
            if native and len(g) == 1 and (term := next(iter(g.items())))[1] in (1, -1)
            else (i, 0, 1, g) for i, g in entries
        ])))
    return ring, len(rows), width, tuple(planned)


def apply_column_plans(start, plans) -> tuple[tuple[GroupRingElement, ...], ...]:
    """The product of `start` (entries from one ring) with the planned matrices, in order.

    `start` (ValueError if ragged) goes to `plan_term_columns` as columns of term maps.
    Term order: an entry's products arrive in ascending inner index, and the first
    nonempty one becomes its accumulator (the rest merge by `_accumulate`), so an
    entry has the terms, in dict order, of the ring operators' sum, on which float
    specializations depend.  The kernel's column frames (a shift of every key and a
    sign) are bijections applied to whole maps, so they keep this order; it copies a
    shared map before it merges into it, so no map of `start` or of a plan changes.
    An entry with no terms is a zero shared within the call.
    """
    ring = start[0][0].ring
    matrix_width(start)
    columns = plan_term_columns(ring, [[x.terms for x in col] for col in zip(*start)], plans)
    zero = GroupRingElement(ring, {})
    return tuple(tuple(GroupRingElement(ring, terms) if terms else zero for terms in row)
                 for row in zip(*columns))


def plan_term_columns(ring: LaurentRing, columns: list, plans) -> list:
    """The kernel of `apply_column_plans`: `columns` (at least one, each a list of term
    maps of `ring`, one per row) times the plans; returns the product's columns.

    Every column has a frame (offset, sign): its true maps are its stored maps with
    every key shifted by the packed key `offset` and every value multiplied by `sign`
    (+-1).  Input columns, and columns over F_p and complex-approx (whose plans hold
    no shifts), stay in frame (0, 1).  A column the plan leaves out is carried over
    as the same list, in its frame.  A listed one is built entry by entry, each
    entry's kind (+-x^shift, or a product by `_product`) decided once.  A first entry
    +-x^shift shares its source's list under the frame (source offset + shift,
    source sign * c), with no per-row work; a first product lands row by row in its
    source's frame.  A later entry merges into the column's stored maps translated by
    its frame offset + shift - the column's offset, with coefficient its sign * c *
    the column's sign (inline over Z and Q, else by `_accumulate`); a product factor
    is translated so before `_product`, and on an empty accumulator a row lands as a
    new map.  Copy before merge: a shared list is copied before the first merge into
    the column, and a shared map just before the first merge into it, so no map of
    `columns`, of a plan or of an earlier product is changed.  Translation and sign
    are bijections on whole maps, so each map sees the inserts and deletes, values
    and types of the product taken without frames.  Frames are applied once, one
    column at a time, when the kernel returns; a column in frame (0, 1) is returned
    as it is.  Result maps may be maps of `columns`.
    """
    k = ring.coefficients
    native = _native(k)
    frames = [(0, 1)] * len(columns)
    for plan_ring, height, width, planned in plans:
        if plan_ring is not ring and plan_ring != ring:
            raise ValueError(f"ring context mismatch: {ring} vs {plan_ring}")
        if height != len(columns):
            raise ValueError(f"shape mismatch: {len(columns)} columns times {height} rows")
        empty = [{}] * len(columns[0])
        out = columns[:width] + [empty] * (width - height)
        out_frames = frames[:width] + [(0, 1)] * (width - height)
        for j, entries in planned:
            acc, offset, sign = empty, 0, 1
            shared = empty  # the source list whose maps acc may still share
            for i, shift, c, g in entries:
                src = columns[i]
                src_offset, src_sign = frames[i]
                if c != 1:  # -x^shift; c is -1 or, over Q, Fraction(-1): signs stay ints
                    src_sign = -src_sign
                if acc is empty:  # the first entry (a product's shift is 0)
                    offset, sign = src_offset + shift, src_sign
                    if g is None:
                        acc = shared = src
                    else:
                        acc = [_product(k, f, g, native) if f else f for f in src]
                    continue
                if acc is shared:
                    acc = acc.copy()
                if g is not None and not native:
                    for r, f in enumerate(src):
                        if f:
                            product = _product(k, f, g)
                            acc[r] = _accumulate(k, acc[r], product) if acc[r] else product
                    continue
                delta, c = src_offset + shift - offset, src_sign * sign
                if g is not None:  # over Z and Q: a product, landing in the column's frame
                    if delta or c != 1:
                        g = {e + delta: c * v for e, v in g.items()}
                    src = [_product(k, f, g, True) if f else f for f in src]
                    delta, c = 0, 1
                if not delta and c == 1:
                    for r, f in enumerate(src):
                        if f:
                            a = acc[r]
                            if not a:
                                acc[r] = f.copy()
                                continue
                            if a is shared[r]:
                                a = acc[r] = a.copy()
                            for e, v in f.items():
                                s = a.get(e, 0) + v
                                if s:
                                    a[e] = s
                                else:
                                    del a[e]
                else:  # a shift by +-x^shift, translated into the column's frame
                    for r, f in enumerate(src):
                        if f:
                            a = acc[r]
                            if not a:
                                acc[r] = {e + delta: c * v for e, v in f.items()}
                                continue
                            if a is shared[r]:
                                a = acc[r] = a.copy()
                            for e, v in f.items():
                                e += delta
                                s = a.get(e, 0) + c * v
                                if s:
                                    a[e] = s
                                else:
                                    del a[e]
            out[j], out_frames[j] = acc, (offset, sign)
        columns, frames = out, out_frames
    for j, (offset, sign) in enumerate(frames):
        if offset or sign != 1:
            columns[j] = ([{e + offset: v for e, v in f.items()} if f else f for f in columns[j]]
                          if sign == 1 else
                          [{e + offset: -v for e, v in f.items()} if f else f for f in columns[j]])
    return columns


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
        raise ValueError(f"ring context mismatch: {f.ring} vs {g.ring}")
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
# local systems
# ---------------------------------------------------------------------------

@value_class
class LocalSystem:
    """A rank-1 local system presented by its ground ring and swap unit u.

    The standard system for m points on the punctured disc has deck group
    generated by x (one point winding once around a puncture) and, for
    m >= 2, d (two points swapping inside a small disc); it is d-homogeneous.
    For m = 1 there are no swap loops and u = 1 by convention.
    """

    ring: LaurentRing
    u: GroupRingElement

    def __post_init__(self):
        if self.u.ring != self.ring:
            raise ValueError("homogeneity unit must live in the system's ring")
        if self.ring.coefficients.is_exact and not self.u.is_unit():
            raise ValueError(f"homogeneity unit must be a unit, got {self.u}")


def standard_local_system(m: int, coefficients=None) -> LocalSystem:
    """The d-homogeneous system over k[x^+-1, d^+-1] (x-only when m = 1)."""
    if m < 1:
        raise ValueError("need at least one configuration point")
    if coefficients is None:
        coefficients = Integers()
    if m == 1:
        ring = LaurentRing(1, coefficients, ("x",))
        return LocalSystem(ring, ring.one)
    ring = LaurentRing(2, coefficients, ("x", "d"))
    return LocalSystem(ring, ring.var("d"))
