"""Acceptance gate: one test per numbered claim, run at exact arithmetic.

Every check is an exact algebraic identity except where complex-approx
specialization is explicitly involved (there the field's 1e-9 tolerance
applies).  Each test prints its own pass line so a verbose run reads as a
criterion-by-criterion report.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import comb, pi

import cmath

from braidhom.braid import BraidWord, braid_relations_hold, evaluate_word, generator_matrix
from braidhom.completion import (
    equal,
    helix_class,
    include_group_ring,
    is_in_group_ring,
    is_zero,
    left_circle_helix,
    module_action,
)
from braidhom.compositions import compositions
from braidhom.embeddings import (
    certify_injective,
    diagonal_conjugation_integrality,
    embedding_matrix,
    reducibility_witness,
)
from braidhom.fields import ComplexApprox, IntegersModP, Rationals
from braidhom.homology import (
    SpecializationPoint,
    circle_cohomology,
    genericity_check,
    shapiro_circle_check,
    shapiro_double_cover_check,
)
from braidhom.linalg import identity, mat_alpha, mat_eq, mat_mul, transpose
from braidhom.pairing import (
    closed_form_pairing,
    delta_pairing,
    dual_representation,
    geometric_pairing,
)
from braidhom.ring import Integers, LaurentRing
from braidhom.surfaces import (
    LocalSystem,
    SurfaceTriad,
    basis,
    dimension,
    disc_triad,
    quantum_factorial,
    standard_local_system,
)


def _triads(max_l, max_m):
    for g in range(0, 3):
        for n in range(1, 7):
            for k in range(0, 6):
                l = n - 1 + k + 2 * g
                if not 1 <= l <= max_l:
                    continue
                for m in range(1, max_m + 1):
                    yield SurfaceTriad(g, n, k, m)


def test_criterion_01_quantum_factorial_oracle():
    ring = LaurentRing(1, Integers(), ("u",))
    u = ring.var("u")
    for r in range(0, 8):
        total = ring.zero
        for perm in permutations(range(r)):
            inv = sum(
                1
                for i in range(r)
                for j in range(i + 1, r)
                if perm[i] > perm[j]
            )
            total = total + u ** inv
        if r == 0:
            total = ring.one  # the empty permutation
        assert quantum_factorial(r, u) == total
    print("PASS 01 quantum factorial equals the inversion generating function")


def _weak_compositions(l, m):
    if l == 0:
        if m == 0:
            yield ()
        return
    for first in range(m + 1):
        for rest in _weak_compositions(l - 1, m - first):
            yield (first,) + rest


def test_criterion_02_basis_cardinality():
    checked = 0
    for g in range(0, 3):
        for n in range(1, 6):
            for k in range(0, 3):
                l = n - 1 + k + 2 * g
                if l < 1:
                    continue
                for m in range(1, 5):
                    triad = SurfaceTriad(g, n, k, m)
                    expected = comb(m + l - 1, m)
                    assert dimension(triad) == expected
                    assert sum(1 for _ in _weak_compositions(l, m)) == expected
                    assert len(compositions(l, m)) == expected
                    checked += 1
    assert checked == 176
    print("PASS 02 dimension matches C(m+l-1, m) and raw enumeration")


def test_criterion_03_delta_pairing_is_the_identity():
    largest = 0
    for triad in _triads(5, 4):
        d = dimension(triad)
        largest = max(largest, d)
        for side in ("in", "out"):
            matrix = delta_pairing(triad, side)
            assert mat_eq(matrix.entries, identity(matrix.ring, d))
    assert largest == 70
    print("PASS 03 delta pairing is the identity on every basis, up to 70x70")


def test_criterion_04_geometric_pairing_matches_closed_form():
    for triad in _triads(4, 5):
        system = standard_local_system(triad.points)
        for side in ("in", "out"):
            lf_images = basis(triad, side, "lf_image")
            relatives = basis(triad, side, "relative")
            for left in lf_images:
                for right in relatives:
                    assert geometric_pairing(
                        triad, side, left, right, system
                    ) == closed_form_pairing(
                        left.composition, right.composition, system.u
                    )
    print("PASS 04 bijection enumeration reproduces delta times [e]! products")


def test_criterion_05_embedding_diagonal():
    for triad in _triads(4, 5):
        system = standard_local_system(triad.points)
        embedding = embedding_matrix(triad, "in", system)
        for comp, entry in zip(embedding.compositions, embedding.diagonal):
            expected = system.ring.one
            for part in comp:
                expected = expected * quantum_factorial(part, system.u)
            assert entry == expected
    one_point = standard_local_system(1)
    for triad in _triads(6, 1):
        assert embedding_matrix(triad, "in", one_point).is_identity()
    print("PASS 05 embedding diagonal is the quantum-factorial product")


# (field, primitive root of unity, order)
_UNITY = [
    (Rationals(), Fraction(-1), 2),
    (IntegersModP(7), 2, 3),
    (IntegersModP(5), 2, 4),
]


def test_criterion_06_injectivity_and_reducibility():
    for m in range(1, 5):
        system = standard_local_system(m)
        for triad in _triads(4, m):
            if triad.points != m:
                continue
            assert certify_injective(embedding_matrix(triad, "in", system))
    for field, omega, order in _UNITY:
        ring = LaurentRing(0, field)
        system = LocalSystem(ring, ring.scalar(omega))
        for m in range(order, 5):
            triad = disc_triad(3, m)
            certificate = certify_injective(
                embedding_matrix(triad, "in", system)
            )
            assert not certificate.injective
            vanished = {comp for comp, _ in certificate.vanishing}
            assert vanished == {
                comp
                for comp in compositions(triad.arc_count, m)
                if max(comp) >= order
            }
    for m in (2, 3, 4):
        system = standard_local_system(m)
        for l in (2, 3):
            witness = reducibility_witness(disc_triad(l + 1, m), system)
            assert witness is not None
            assert not witness.entry.is_unit()
    print("PASS 06 injectivity certified generically, refuted at roots of unity")


def test_criterion_07_braid_relations_and_dimensions():
    for m in (1, 2):
        for n in range(2, 7):
            assert braid_relations_hold(n, m)
            size = generator_matrix(n, 1, m).size
            assert size == (n - 1 if m == 1 else n * (n - 1) // 2)
    print("PASS 07 braid relations hold for n <= 6 at the stated dimensions")


def test_criterion_08_pairing_invariance_of_the_dual():
    rng = random.Random(17)
    for m in (1, 2):
        for n in (2, 3, 4):
            for _ in range(50):
                length = rng.randint(1, 6)
                letters = tuple(
                    rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(length)
                )
                word = BraidWord(n, letters)
                rho = evaluate_word(word, m)
                dual = dual_representation(word, m)
                product = mat_mul(
                    transpose(mat_alpha(rho.rows())), dual.rows()
                )
                assert mat_eq(product, identity(rho.ring, rho.size))
    print("PASS 08 alpha(rho)^T rho' is the identity on 300 random words")


def test_criterion_09_diagonal_conjugation_integrality():
    for n in range(2, 6):
        assert diagonal_conjugation_integrality(n, 2).integral
    print("PASS 09 D^-1 rho(sigma_i) D stays in the ring for n <= 5")


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


def test_criterion_10_genericity():
    rng = random.Random(19)
    rings = [
        LaurentRing(2, Integers(), ("x", "d")),
        LaurentRing(2, Rationals(), ("x", "d")),
        LaurentRing(1, IntegersModP(2), ("x",)),
        LaurentRing(1, IntegersModP(3), ("x",)),
        LaurentRing(1, IntegersModP(5), ("x",)),
    ]
    for ring in rings:
        for _ in range(100):
            monodromy = _random_unit(ring, rng)
            _, h1 = circle_cohomology(monodromy)
            assert h1.is_zero() == (ring.one - monodromy).is_unit()

    triad = disc_triad(3, 1)
    system = standard_local_system(1)
    table = {0: False, 1: False, -1: True, 2: True}
    for theta, expected in table.items():
        point = SpecializationPoint({"x": Fraction(theta)}, Rationals())
        assert genericity_check(triad, system, point) == expected
    field = ComplexApprox()
    for order in (3, 4, 5):
        omega = cmath.exp(2j * pi / order)
        point = SpecializationPoint({"x": omega}, field)
        assert genericity_check(triad, system, point)
    assert not genericity_check(
        triad, system, SpecializationPoint({"x": 1.0 + 0j}, field)
    )
    two_points = disc_triad(3, 2)
    two_system = standard_local_system(2)
    omega = cmath.exp(2j * pi / 3)
    assert genericity_check(
        two_points, two_system,
        SpecializationPoint({"x": omega, "d": omega ** 2}, field),
    )
    assert not genericity_check(
        two_points, two_system,
        SpecializationPoint({"x": omega, "d": 1.0 + 0j}, field),
    )
    print("PASS 10 H^1 vanishing tracks units; truth table holds at 0, 1, -1, "
          "2 and roots of unity")


def test_criterion_11_shapiro_small_instances():
    fields = (Integers(), Rationals(), IntegersModP(2), IntegersModP(3),
              IntegersModP(5))
    for k in fields:
        assert shapiro_circle_check(k).matches
        assert shapiro_double_cover_check(k).matches
    print("PASS 11 twisted circle homology matches its covers over Z, Q, F_p")


def test_criterion_12_completion_and_helix():
    ring = LaurentRing(2, Integers(), ("y", "z"))
    y = ring.var("y")
    n = 20
    truncated = ring.zero
    for i in range(-n, n + 1):
        truncated = truncated + (ring.one - y) * ring.element({(i, i): 1})
    triad = disc_triad(3, 1)
    comp = compositions(triad.arc_count, 1)[0]
    coordinate = helix_class(triad, comp, (1, 0), (0, 1)).entries[0]
    for a in range(-(n - 1), n):
        for b in range(-(n - 1), n):
            assert coordinate.coefficient_at((a, b)) == \
                truncated.coefficient((a, b))
    assert not is_in_group_ring(coordinate)

    rng = random.Random(23)
    for _ in range(200):
        def rand():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = (rng.randint(-3, 3), rng.randint(-3, 3))
                terms[exps] = rng.randint(-4, 4)
            return ring.element(terms)

        r, a = rand(), rand()
        assert equal(include_group_ring(r * a),
                     module_action(r, include_group_ring(a)))

    for coordinate in left_circle_helix(triad).entries:
        assert is_in_group_ring(coordinate)
        assert is_zero(coordinate)
    print("PASS 12 helix coefficients, non-membership, module map, zero helix")
