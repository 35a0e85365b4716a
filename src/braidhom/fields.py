"""The coefficient fields beyond the integers, and the evaluator at a point.

`Rationals`, `IntegersModP` (the field Z/pZ, its modulus checked prime by a
deterministic Miller-Rabin test) and `ComplexApprox` (complex floats compared
within a tolerance) are the coefficient rings of `ring.CoefficientRing` other
than `ring.Integers`.  `specialize_matrix` substitutes numbers for the variables
of a matrix of ring elements, each power within a work budget
(`POWER_BITS_BUDGET`, `POWER_CHAIN_LIMIT`).

They live apart from `ring` because a plain `braidhom rep` computes over the
integers alone: it never loads this module, nor `fractions`.  `ring` resolves
these names too, loading this module on first use, so `from braidhom.ring
import Rationals` and the like work as well.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import CoefficientRing
from .values import value_class


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
        if not a:
            raise ValueError("0 is not a unit of the rationals")
        return Fraction(a.denominator, a.numerator)

    def split_sign(self, a):
        return (-1, -a) if a < 0 else (1, a)

    def _read(self, s: str):
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
        if isinstance(self.p, bool) or not isinstance(self.p, int):
            raise TypeError(f"the modulus must be an int, got {self.p!r}")
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

    def _read(self, s: str):
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
        if self.tolerance == float("inf"):  # every finite value would test as zero
            raise ValueError("tolerance must be finite")

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

    def power(self, a, n: int):
        if n >= 0:
            result = self.one
            for _ in range(n):
                result = self.mul(result, a)
            return result
        return self.power(self.invert(a), -n)

    def to_str(self, a) -> str:
        return repr(a)

    def _read(self, s: str):
        return complex(s)


POWER_BITS_BUDGET = 10**6  # bits of an exact power value^e, estimated before computing it
POWER_CHAIN_LIMIT = 10**6  # products in a power that `ComplexApprox.power` takes as a chain


def _exponent_limit(target: CoefficientRing, value) -> float:
    """The largest |e| for which `specialize_matrix` computes value^e in `target`.

    Over Z and Q, value^e has about |e| * max(bit lengths of the numerator and
    denominator) bits, which may not pass POWER_BITS_BUDGET (0, 1 and -1,
    whose powers are themselves, have no limit); they take powers with Python's
    exact `**`.  Under complex-approx a power is the chain of |e| products,
    and |e| may not pass POWER_CHAIN_LIMIT.  F_p takes powers with `pow` and
    has no limit.
    """
    limit = float("inf")
    if target.is_exact and not isinstance(target, IntegersModP):
        n, d = value.numerator, value.denominator
        if d > 1 or not -1 <= n <= 1:
            limit = POWER_BITS_BUDGET // max(n.bit_length(), d.bit_length())
    if not target.is_exact:
        limit = min(limit, POWER_CHAIN_LIMIT)
    return limit


def specialize_matrix(rows, assignments: dict, target: CoefficientRing) -> list[list]:
    """The value in `target` of every entry of `rows` (all in one ring) at the assignments.

    The one evaluator at a point, which `linalg` exports.  Once per call: the
    variables are checked, the values coerced and each power value^e computed
    by `target.power` (Python's exact `**` over Z and Q, `pow` over F_p, the
    chain under complex-approx); a power whose |e| is past `_exponent_limit` is a
    ValueError, before any arithmetic.  Rows may have different lengths.
    Each entry keeps one order of float operations: a term is
    coerce(coefficient) times the powers in variable order, and the terms are
    summed in dict order, from target.zero under complex-approx (0j + t can
    turn a -0.0 part of t into 0.0) and from the first term over an exact
    target (where 0 + t is t); a total that target.is_zero calls zero, and an
    entry with no terms, is target.zero.  When the ring's coefficients are
    exact, the value of a one-term entry is kept per (packed key, coefficient)
    for the rest of the call; complex coefficients are not, because equal keys
    such as complex(0.0, 1) and complex(-0.0, 1) are different values.
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
