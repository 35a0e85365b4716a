"""Laurent ring arithmetic, the involution, units, division, q-analogs."""

import math
import operator
import random
import re
import time
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from braidhom.fields import ComplexApprox, IntegersModP, Rationals, specialize_matrix
from braidhom.ring import EXPONENT_BOUND, Integers, LaurentRing, exact_divide, matrix_text
from braidhom.surfaces import quantum_factorial, quantum_factorial_product, quantum_integer

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


def test_exact_divide_names_both_rings_it_refuses():
    other = LaurentRing(2, Rationals(), ("x", "d"))
    with pytest.raises(ValueError) as refusal:
        exact_divide(ZZ.var("x"), other.var("x"))
    assert str(refusal.value) == f"ring context mismatch: {ZZ} vs {other}"


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


def _reference_text(element):
    """The canonical text form as each element printed it alone, before `matrix_text`."""
    if not element.terms:
        return "0"
    k = element.ring.coefficients
    pieces = []
    for exps, coeff in element.items():
        sign, mag = k.split_sign(coeff)
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(element.ring.variables, exps) if e != 0)
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


_SMALL_INTS = st.integers(-4, 4)
_COEFFICIENTS = {
    "integers": (Integers(), st.integers(-10**20, 10**20) | _SMALL_INTS),
    "rationals": (Rationals(), st.fractions(max_denominator=9) | _SMALL_INTS.map(Fraction)),
    "mod 7": (IntegersModP(7), _SMALL_INTS),
    "mod 2^61 - 1": (IntegersModP(2**61 - 1), st.integers(-2**62, 2**62)),
    # signed zeros and units, whose text the sign split and the unit test decide
    "complex-approx": (ComplexApprox(), st.builds(
        complex, st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1e-12, 3e300]),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.75, -1e-3]))),
}


@st.composite
def _text_matrices(draw):
    k, coefficients = _COEFFICIENTS[draw(st.sampled_from(sorted(_COEFFICIENTS)))]
    rank = draw(st.integers(0, 3))
    ring = LaurentRing(rank, k)
    exponents = st.tuples(*[st.integers(-3, 3) | st.integers(-EXPONENT_BOUND, EXPONENT_BOUND)
                            for _ in range(rank)])
    element = st.dictionaries(exponents, coefficients, max_size=5).map(ring.element)
    width = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(element, min_size=width, max_size=width), max_size=4))


@settings(max_examples=150, deadline=None)
@given(_text_matrices())
def test_matrix_text_is_each_entry_printed_alone(rows):
    # One call shares its monomial texts across entries; each cell is what the entry
    # printed alone before, zero entries and every coefficient ring included.
    assert matrix_text(rows) == [[_reference_text(x) for x in row] for row in rows]
    for row in rows:
        for x in row:
            assert x.to_text() == _reference_text(x)


def test_matrix_text_refuses_entries_from_two_rings():
    other = LaurentRing(2, Integers(), ("x", "y"))
    with pytest.raises(ValueError, match="ring context mismatch"):
        matrix_text([[ZZ.var("x")], [other.var("y")]])


def test_canonical_text_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        a = random_element(ZZ, rng)
        assert ZZ.parse(a.to_text()) == a
    assert ZZ.zero.to_text() == "0"
    assert (ZZ.var("x") ** -1 * ZZ.var("d") ** 3 * -2 + 1).to_text() == "-2*x^-1*d^3 + 1"


@pytest.mark.parametrize("text, term", [("x^", "x^"), ("2*d^ + 1", "2*d^"), ("1 - x^*d", "x^*d")])
def test_a_caret_without_an_exponent_is_refused(text, term):
    with pytest.raises(ValueError, match=re.escape(f"cannot parse term {term!r}")):
        ZZ.parse(text)
    assert ZZ.parse("x^1") == ZZ.parse("x") == ZZ.var("x")


@pytest.mark.parametrize("text, term, reason", [
    ("x^^2", "x^^2", "the exponent '^2' is not an integer"),
    ("x^1.5 + 1", "x^1.5", "the exponent '1.5' is not an integer"),
    ("1 - x^ 2", "x^ 2", "the exponent ' 2' is not an integer"),
    ("2x", "2x", "'2x' is neither a variable of ('x', 'd') nor a coefficient over integers"),
    ("y", "y", "unknown variable 'y'; the variables are ('x', 'd')"),
    ("3*y^2*x", "3*y^2*x", "unknown variable 'y'; the variables are ('x', 'd')"),
    ("-2*y", "-2*y", "unknown variable 'y'; the variables are ('x', 'd')"),
    ("2*3*x", "2*3*x", "a second coefficient '3'"),
])
def test_malformed_terms_are_refused_by_the_parser_naming_the_term(text, term, reason):
    with pytest.raises(ValueError) as refusal:
        ZZ.parse(text)
    assert str(refusal.value) == f"cannot parse term {term!r}: {reason}"


def test_the_grammar_accepts_repeated_variables_signed_exponents_and_ring_coefficients():
    x, d = ZZ.var("x"), ZZ.var("d")
    assert ZZ.parse("x*x^-3*d^+2 - 2*d") == x ** -2 * d ** 2 - 2 * d
    assert ZZ.parse("-5 - x") == -x - 5
    QQ = LaurentRing(1, Rationals(), ("x",))
    assert QQ.parse("-1/2*x + 3/4") == QQ.element({(1,): Fraction(-1, 2), (0,): Fraction(3, 4)})
    with pytest.raises(ValueError, match=re.escape(
            "cannot parse term '1/0*x': '1/0' is neither a variable of ('x',) nor a coefficient"
            " over rationals")):
        QQ.parse("-1/0*x")
    CA = LaurentRing(1, ComplexApprox(), ("x",))
    assert CA.parse("(1-2j)*x - 0.5") == CA.element({(1,): 1 - 2j, (0,): -0.5})


_MUTABLE = "^*+- 0123456789"


@st.composite
def _mutated_texts(draw):
    """(ring, text): the canonical text of an element over Z or Q with one of its
    characters among `_MUTABLE` dropped, duplicated or swapped with the next one."""
    ring = draw(st.sampled_from([ZZ, LaurentRing(2, Rationals(), ("x", "d"))]))
    coefficient = (st.integers(-12, 12) if ring is ZZ else
                   st.fractions(min_value=-12, max_value=12, max_denominator=12))
    terms = draw(st.dictionaries(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                                 coefficient, min_size=1, max_size=4))
    text = ring.element(terms).to_text()
    spots = [i for i, c in enumerate(text) if c in _MUTABLE]
    assume(spots)
    i = draw(st.sampled_from(spots))
    edit = draw(st.sampled_from(["drop", "duplicate", "swap"]))
    if edit == "drop":
        return ring, text[:i] + text[i + 1:]
    if edit == "duplicate":
        return ring, text[:i] + text[i] + text[i:]
    assume(i + 1 < len(text))
    return ring, text[:i] + text[i + 1] + text[i] + text[i + 2:]


@settings(max_examples=400, deadline=None)
@given(_mutated_texts())
def test_the_parser_agrees_with_sympy_or_refuses_a_mutated_text(case):
    ring, text = case
    try:
        parsed = ring.parse(text)
    except ValueError:
        return
    # The grammar reads digits with leading zeros ("x^01", "01*x"), and Python's does not.
    python_text = re.sub(r"\b0+(?=\d)", "", text)
    symbols = sympy.symbols(ring.variables)
    transformations = standard_transformations + (convert_xor,)
    expected = parse_expr(python_text, dict(zip(ring.variables, symbols)), transformations)
    assert sympy.expand(_sympy_of(parsed.items(), symbols) - expected) == 0, text


def test_json_terms_round_trip():
    rng = random.Random(6)
    for _ in range(100):
        a = random_element(ZZ, rng)
        assert ZZ.from_json_terms(a.to_json_terms()) == a


@pytest.mark.parametrize("data, field", [
    (5, "the terms"),
    ({"exponents": [0, 0], "coeff": "1"}, "the terms"),
    ([[0, 0]], "the terms"),
    ([{"exponents": [0, 0]}], "'coeff'"),
    ([{"exponents": [0, 0], "coeff": 1}], "'coeff'"),
    ([{"exponents": [0, 0], "coeff": "1/2"}], "'coeff'"),
    ([{"coeff": "1"}], "'exponents'"),
    ([{"exponents": "00", "coeff": "1"}], "'exponents'"),
    ([{"exponents": [0, 0.5], "coeff": "1"}], "'exponents'"),
])
def test_malformed_json_terms_are_a_value_error_naming_the_field(data, field):
    with pytest.raises(ValueError, match=field):
        ZZ.from_json_terms(data)


def test_a_json_coefficient_the_ring_cannot_read_is_a_value_error():
    # Fraction("1/0") raises ZeroDivisionError; the reader turns it into a ValueError.
    with pytest.raises(ValueError, match="'coeff' must be a coefficient over rationals"):
        LaurentRing(1, Rationals(), ("x",)).from_json_terms([{"exponents": [0], "coeff": "1/0"}])



@pytest.mark.parametrize("ring, value", [
    (Integers(), 1.5), (IntegersModP(7), 9.9), (Rationals(), 0.1), (ComplexApprox(), 3),
])
def test_from_str_refuses_a_value_that_is_not_a_string(ring, value):
    # Each was converted: to 1, to 2, to Fraction(3602879701896397, 2**55) and to (3+0j).
    with pytest.raises(TypeError, match=f"read from a string, got {value!r}"):
        ring.from_str(value)


@pytest.mark.parametrize("scalar", [1.5, Fraction(1, 2), 2j])
def test_a_scalar_the_coefficients_refuse_is_unequal_not_an_error(scalar):
    x = ZZ.var("x")
    assert (x == scalar) is False and (scalar == x) is False
    assert x != scalar
    assert [scalar].count(x) == 0
    with pytest.raises(TypeError, match="not an integer"):
        x + scalar  # noqa: B018
    assert (LaurentRing(1, Rationals(), ("x",)).one == 1.5) is False


def test_a_scalar_the_coefficients_take_is_compared_by_value():
    assert LaurentRing(1, Rationals(), ("x",)).scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert LaurentRing(1, ComplexApprox(), ("x",)).scalar(Fraction(1, 2)) == 0.5
    assert ZZ.scalar(2) == 2


@pytest.mark.parametrize("k", [Integers(), Rationals(), IntegersModP(7), ComplexApprox()],
                         ids=["ZZ", "QQ", "F7", "CC"])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_scalar(k, flag):
    # Every ring's coerce refuses a bool, so elements do not take one as a scalar at all.
    x = LaurentRing(1, k, ("x",)).var("x")
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((x, flag), (flag, x)):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(left, right)
    one = x.ring.one
    assert (one == flag) is False and (flag == one) is False and one != flag
    assert (x.ring.zero == flag) is False


def test_complex_approx_refuses_a_tolerance_that_is_not_finite():
    # An infinite tolerance made every finite value test as zero.
    with pytest.raises(ValueError, match="tolerance must be finite"):
        ComplexApprox(float("inf"))


@pytest.mark.parametrize("p", [7.0, "7", True])
def test_a_modulus_that_is_not_an_int_is_a_type_error(p):
    with pytest.raises(TypeError, match=re.escape(f"the modulus must be an int, got {p!r}")):
        IntegersModP(p)

def _value_at(element, assignments, target):
    """The value of one element at a point: `specialize_matrix` on a 1x1 matrix."""
    ((value,),) = specialize_matrix([[element]], assignments, target)
    return value


def test_specialization_is_a_homomorphism():
    rng = random.Random(7)
    values = {"x": Fraction(3, 2), "d": Fraction(-5)}
    target = Rationals()
    for _ in range(100):
        a = random_element(ZZ, rng)
        b = random_element(ZZ, rng)
        assert _value_at(a + b, values, target) == (_value_at(a, values, target)
                                                    + _value_at(b, values, target))
        assert _value_at(a * b, values, target) == (_value_at(a, values, target)
                                                    * _value_at(b, values, target))


def test_specialization_needs_units_for_negative_exponents():
    x = ZZ.var("x")
    with pytest.raises(ValueError):
        _value_at(x ** -1, {"x": 0, "d": 1}, Rationals())


def test_huge_exponents_over_a_prime_field_are_powers_by_squaring():
    # A left-to-right chain would make 2*10^9 multiplications here.
    p = 1_000_003
    line = LaurentRing(1, Integers(), ("x",))
    k = IntegersModP(p)
    for e in (2_000_000_000, -2_000_000_000):
        value = _value_at(line.monomial((e,)), {"x": 5}, k)
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
        value = _value_at(line.monomial((e,)), {"x": x}, k)
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


@pytest.mark.parametrize("ring, u", [
    (ZZ, ZZ.var("d")),
    (LaurentRing(1, IntegersModP(5), ("u",)), LaurentRing(1, IntegersModP(5), ("u",)).one),
    (LaurentRing(0, ComplexApprox()), LaurentRing(0, ComplexApprox()).scalar(complex(2, -0.0))),
    (LaurentRing(1, ComplexApprox(), ("u",)),
     LaurentRing(1, ComplexApprox(), ("u",)).element({(1,): complex(-0.5, -0.0), (0,): 3})),
])
def test_quantum_factorial_product_is_the_left_to_right_chain(ring, u):
    # Exact rings skip the factors [0]! = [1]! = 1; complex-approx multiplies them in,
    # since (2 - 0j) * (1 + 0j) is (2 + 0j).  Either way the terms, their order and
    # every signed zero are those of the full chain.
    for parts in ((0, 1, 2, 1, 0, 3), (1, 1), (), (2, 0, 2)):
        chain = ring.one
        for part in parts:
            chain = chain * quantum_factorial(part, u)
        product = quantum_factorial_product(parts, u)
        assert repr(list(product.terms.items())) == repr(list(chain.terms.items()))
    with pytest.raises(ValueError, match="defined for n >= 0"):
        quantum_factorial_product((1, -1), u)


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
