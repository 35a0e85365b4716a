"""Laurent ring arithmetic, the involution, units, division, q-analogs."""

import math
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from braidhom.ring import (
    EXPONENT_BOUND,
    ComplexApprox,
    Integers,
    IntegersModP,
    LaurentRing,
    Rationals,
    exact_divide,
    quantum_factorial,
    quantum_integer,
)

ZZ = LaurentRing(2, Integers(), ("x", "d"))


def random_element(ring, rng, terms=4, span=5, coeff=6):
    out = ring.zero
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(-span, span) for _ in range(ring.rank))
        out = out + ring.monomial(exps, rng.randint(-coeff, coeff))
    return out


def test_ring_axioms_on_random_elements():
    rng = random.Random(1)
    for _ in range(200):
        a = random_element(ZZ, rng)
        b = random_element(ZZ, rng)
        c = random_element(ZZ, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + ZZ.zero == a
        assert a * ZZ.one == a
        assert a - a == ZZ.zero


def test_alpha_is_an_involution_and_a_homomorphism():
    rng = random.Random(2)
    for _ in range(1000):
        a = random_element(ZZ, rng)
        assert a.alpha().alpha() == a
    for _ in range(100):
        a = random_element(ZZ, rng)
        b = random_element(ZZ, rng)
        assert (a * b).alpha() == a.alpha() * b.alpha()
        assert (a + b).alpha() == a.alpha() + b.alpha()


def test_alpha_negates_exponents():
    x, d = ZZ.var("x"), ZZ.var("d")
    a = 2 * x ** 3 * d - d ** -2
    assert a.alpha() == 2 * x ** -3 * d ** -1 - d ** 2


def test_units_are_monomials_and_invert():
    rng = random.Random(3)
    x, d = ZZ.var("x"), ZZ.var("d")
    assert x.is_unit() and (-(x * d ** -4)).is_unit()
    assert not (ZZ.one + x).is_unit()
    assert not (2 * x).is_unit()  # 2 is not a unit in Z
    for _ in range(50):
        exps = (rng.randint(-5, 5), rng.randint(-5, 5))
        a = ZZ.monomial(exps, rng.choice([1, -1]))
        assert a.is_unit()
        assert a * a.inverse() == ZZ.one


def test_units_over_field_coefficients():
    QQ = LaurentRing(1, Rationals(), ("x",))
    a = QQ.monomial((3,), Fraction(2, 7))
    assert a.is_unit()
    assert a * a.inverse() == QQ.one


def test_exact_divide_recovers_quotients():
    rng = random.Random(4)
    for _ in range(100):
        f = random_element(ZZ, rng)
        g = random_element(ZZ, rng)
        if g.is_zero():
            continue
        product = f * g
        quotient = exact_divide(product, g)
        assert quotient is not None
        assert quotient * g == product
    x = ZZ.var("x")
    assert exact_divide(ZZ.one + x, ZZ.scalar(2)) is None
    assert exact_divide(ZZ.one, ZZ.one + x) is None


def _small_elements(ring):
    return st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-6, 6), max_size=4
    ).map(ring.element)


@settings(max_examples=200, deadline=None)
@given(_small_elements(ZZ), _small_elements(ZZ), _small_elements(ZZ), st.integers(2, 3))
def test_integer_division_agrees_with_rational_division(f, g, h, scale):
    # Over Z, a quotient exists exactly when the quotient over Q has integer
    # coefficients, and then the two are equal.
    assume(not g.is_zero())
    QQ = LaurentRing(2, Rationals(), ("x", "d"))

    def rational(e):
        return QQ.element({exps: e.coefficient(exps) for exps in e.support()})

    for numerator in (f * g, f * g * scale + h, f * g * scale):
        for divisor in (g, g * scale):
            quotient = exact_divide(numerator, divisor)
            over_q = exact_divide(rational(numerator), rational(divisor))
            assert over_q is not None or quotient is None
            if over_q is not None and all(
                over_q.coefficient(e).denominator == 1 for e in over_q.support()
            ):
                assert quotient is not None and rational(quotient) == over_q
                assert quotient * divisor == numerator
            else:
                assert quotient is None


@st.composite
def _term_maps(draw, rank):
    """{exponent tuple: integer} with exponents in -6..6, now and then at the bound."""
    exponent = st.integers(-6, 6) | st.sampled_from([-EXPONENT_BOUND, EXPONENT_BOUND])
    return draw(st.dictionaries(
        st.tuples(*[exponent] * rank), st.integers(-5, 5).filter(bool), max_size=4
    ))


def _sympy_of(terms, symbols):
    """The oracle's own reading of a term map: a sympy expression."""
    return sympy.expand(sum(
        (c * sympy.Mul(*[s ** e for s, e in zip(symbols, exps)]) for exps, c in terms),
        sympy.Integer(0),
    ))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(st.just(r), _term_maps(r), _term_maps(r))))
def test_laurent_arithmetic_agrees_with_sympy(case):
    rank, f_terms, g_terms = case
    ring = LaurentRing(rank, Integers())
    symbols = sympy.symbols(ring.variables)
    names = dict(zip(ring.variables, symbols))
    f, g = ring.element(f_terms), ring.element(g_terms)
    sf, sg = _sympy_of(f_terms.items(), symbols), _sympy_of(g_terms.items(), symbols)

    def same(element, expected):
        assert sympy.expand(_sympy_of(element.items(), symbols) - expected) == 0

    assert f.support() == sorted(f_terms)
    same(f + g, sf + sg)
    same(f - g, sf - sg)
    same(f * g, sf * sg)
    same(f.alpha(), sf.xreplace({s: 1 / s for s in symbols}))
    if g_terms:
        quotient = exact_divide(f * g, g)
        assert quotient is not None
        same(quotient, sf)
    text = f.to_text()
    assert ring.parse(text) == f
    transformations = standard_transformations + (convert_xor,)
    assert sympy.expand(parse_expr(text, names, transformations) - sf) == 0


def test_exponents_beyond_the_bound_are_rejected():
    big = EXPONENT_BOUND + 1
    for build in (
        lambda: ZZ.element({(big, 0): 1}),
        lambda: ZZ.monomial((0, -big)),
        lambda: ZZ.parse(f"3*x^{big} + d"),
        lambda: ZZ.from_json_terms([{"exponents": [0, big], "coeff": "1"}]),
        lambda: ZZ.var("x") ** big,
        lambda: ZZ.var("d") ** -big,
        lambda: (ZZ.var("x") ** 2 + 1) ** (big // 2),
    ):
        with pytest.raises(ValueError):
            build()
    x = ZZ.var("x")
    assert (x ** EXPONENT_BOUND).support() == [(EXPONENT_BOUND, 0)]
    assert (x ** -EXPONENT_BOUND).alpha() == x ** EXPONENT_BOUND


@pytest.mark.parametrize("ring, name", [(ZZ, "x"), (ZZ, "d"), (LaurentRing(1, Integers()), "x")])
def test_products_that_would_leave_the_exact_range_are_refused(ring, name):
    # Exponents are exact within +-(2^63 - 1); beyond, d's field would carry into x's.
    v = ring.var(name)
    assert (v ** EXPONENT_BOUND) ** 2 == v ** EXPONENT_BOUND * v ** EXPONENT_BOUND
    power = v ** EXPONENT_BOUND
    with pytest.raises(ValueError):
        for _ in range(33):  # the 33rd square would reach 2^64 - 2^33
            power = power * power
    assert power.support() == [tuple(EXPONENT_BOUND * 2**32 if u == name else 0
                                     for u in ring.variables)]
    rest = v ** EXPONENT_BOUND * v ** EXPONENT_BOUND * v  # v^(2^32 - 1)
    (top,) = (power * rest).support()
    assert top[ring.variables.index(name)] == 2**63 - 1 and sum(map(abs, top)) == 2**63 - 1
    for f, g in ((power * rest, v), (power.alpha() * rest.alpha(), v ** -1),
                 (power + 1, power), (v ** -1, power.alpha() * rest.alpha() * (v ** 3 + 1))):
        with pytest.raises(ValueError):
            f * g
    assert (power + 1) * (power.alpha() - 1) == power.alpha() - power


_complex_coefficients = st.sampled_from(
    [0.1, 0.2, -0.3, 0.3, 1 + 1e-10, -1, 0.5j, -0.5j, 1e-10, 2.5e-10 + 1e-10j]
)


@settings(max_examples=100, deadline=None)
@given(*[st.dictionaries(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                         _complex_coefficients, max_size=4)] * 2)
def test_complex_approx_never_stores_a_negligible_coefficient(f_terms, g_terms):
    CA = LaurentRing(2, ComplexApprox(), ("x", "d"))
    tolerance = CA.coefficients.tolerance
    f, g = CA.element(f_terms), CA.element(g_terms)
    for result in (f, g, f + g, f - g, f * g, f * g - g * f, f.alpha(), -f):
        assert all(abs(c) > tolerance for _, c in result.items())


def test_exact_divide_over_finite_fields():
    F5 = LaurentRing(1, IntegersModP(5), ("x",))
    x = F5.var("x")
    f = (x + 2) * (x ** 2 + 3 * x + 4)
    q = exact_divide(f, x + 2)
    assert q is not None and q * (x + 2) == f


def test_prime_moduli_agree_with_trial_division():
    for p in range(-2, 10**4):
        trial = p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))
        if trial:
            assert IntegersModP(p).p == p
        else:
            with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
                IntegersModP(p)


def test_large_prime_moduli_are_decided_quickly():
    start = time.perf_counter()
    assert IntegersModP(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1
    # Carmichael 561; strong pseudoprimes to base 2 (2047), to bases 2..7 (3215031751)
    # and to every prime base up to 37 (the last, which base 41 exposes).
    for n in (561, 2047, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="is not prime"):
            IntegersModP(n)
    with pytest.raises(ValueError, match="beyond the primality bound"):
        IntegersModP(2**89 - 1)


def test_canonical_text_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        a = random_element(ZZ, rng)
        assert ZZ.parse(a.to_text()) == a
    assert ZZ.zero.to_text() == "0"
    assert (ZZ.var("x") ** -1 * ZZ.var("d") ** 3 * -2 + 1).to_text() == "-2*x^-1*d^3 + 1"


def test_json_terms_round_trip():
    rng = random.Random(6)
    for _ in range(100):
        a = random_element(ZZ, rng)
        assert ZZ.from_json_terms(a.to_json_terms()) == a


def test_specialization_is_a_homomorphism():
    rng = random.Random(7)
    values = {"x": Fraction(3, 2), "d": Fraction(-5)}
    target = Rationals()
    for _ in range(100):
        a = random_element(ZZ, rng)
        b = random_element(ZZ, rng)
        assert (a + b).specialize(values, target) == a.specialize(
            values, target
        ) + b.specialize(values, target)
        assert (a * b).specialize(values, target) == a.specialize(
            values, target
        ) * b.specialize(values, target)


def test_specialization_needs_units_for_negative_exponents():
    x = ZZ.var("x")
    with pytest.raises(ValueError):
        (x ** -1).specialize({"x": 0, "d": 1}, Rationals())


def test_huge_exponents_over_a_prime_field_are_powers_by_squaring():
    # A left-to-right chain would make 2*10^9 multiplications here.
    p = 1_000_003
    line = LaurentRing(1, Integers(), ("x",))
    k = IntegersModP(p)
    for e in (2_000_000_000, -2_000_000_000):
        value = line.monomial((e,)).specialize({"x": 5}, k).coefficient(())
        assert value == pow(5, e, p)
    assert k.power(5, EXPONENT_BOUND) == pow(5, EXPONENT_BOUND, p)


def test_zero_to_a_negative_power_is_refused_over_exact_fields():
    for k, zero in ((Rationals(), Fraction(0)), (IntegersModP(7), 0), (IntegersModP(7), 14)):
        with pytest.raises(ValueError):
            k.power(zero, -3)
        assert k.power(zero, 0) == k.one


def test_complex_powers_stay_the_left_to_right_chain():
    # |x| = 1, so 5000 factors neither overflow nor vanish; the value is the chain's,
    # bit for bit, and no recursion is involved.
    k = ComplexApprox()
    x = complex(math.cos(0.7), math.sin(0.7))
    line = LaurentRing(1, Integers(), ("x",))
    for e, factor in ((5000, x), (-5000, 1 / x)):
        chain = complex(1)
        for _ in range(abs(e)):
            chain = chain * factor
        assert repr(k.power(x, e)) == repr(chain)
        value = line.monomial((e,)).specialize({"x": x}, k).coefficient(())
        assert repr(value) == repr(0j + complex(1) * chain)


def test_complex_approx_refuses_unit_questions():
    CA = LaurentRing(1, ComplexApprox(), ("x",))
    with pytest.raises(ValueError):
        CA.var("x").is_unit()
    with pytest.raises(ValueError):
        CA.var("x").is_non_zero_divisor()


def test_complex_approx_drops_rounding_residue():
    # 0.1 + 0.2 - 0.3 leaves 5.55e-17, inside the tolerance: one zero test
    # decides both what is stored and what is_zero reports.
    CA = LaurentRing(1, ComplexApprox(), ("x",))
    x = CA.var("x")
    residue = x * 0.1 + x * 0.2 - x * 0.3
    assert residue.is_zero()
    assert residue.to_text() == "0"
    assert (x * 0.1 * (x * 0.2) - x ** 2 * 0.02).to_text() == "0"
    assert CA.element({(1,): 1e-17, (2,): 1}).to_text() == "x^2"


def test_quantum_integers_small_values():
    u = ZZ.var("d")
    with pytest.raises(ValueError):
        quantum_integer(0, u)
    assert quantum_integer(1, u) == ZZ.one
    assert quantum_integer(3, u) == ZZ.one + u + u ** 2
    assert quantum_factorial(0, u) == ZZ.one
    assert quantum_factorial(3, u) == (ZZ.one + u) * (ZZ.one + u + u ** 2)


def test_quantum_factorial_counts_inversions():
    # [r]_u! is the generating function of permutations by inversion count.
    ring = LaurentRing(1, Integers(), ("u",))
    u = ring.var("u")
    for r in range(8):
        total = ring.zero
        for perm in permutations(range(r)):
            inv = sum(
                1 for i in range(r) for j in range(i + 1, r) if perm[i] > perm[j]
            )
            total = total + u ** inv
        assert quantum_factorial(r, u) == total


def test_quantum_factorial_at_one_is_factorial():
    one = ZZ.one
    import math

    for r in range(7):
        assert quantum_factorial(r, one) == ZZ.scalar(math.factorial(r))
