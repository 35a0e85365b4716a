"""Tests for the braid-group matrices: relations, duality, integrality."""

import contextlib
import functools
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidhom import braid, linalg
from braidhom.braid import BraidWord, braid_relations_hold, evaluate_word, generator_matrix
from braidhom.cli import main
from braidhom.compositions import compositions
from braidhom.embeddings import diagonal_conjugation_integrality
from braidhom.fields import ComplexApprox, Rationals
from braidhom.linalg import identity, mat_eq, mat_mul, specialize_matrix
from braidhom.pairing import delta_pairing, dual_representation
from braidhom.ring import GroupRingElement, column_plan
from braidhom.surfaces import dimension, disc_triad, standard_local_system

from test_linalg import reference_mat_mul

GOLDEN = Path(__file__).parent / "golden" / "generator_matrices.json"


def test_generator_matrices_match_golden_file():
    data = json.loads(GOLDEN.read_text())
    assert data["schema"] == 1
    seen = 0
    for record in data["matrices"]:
        matrix = generator_matrix(record["n"], record["i"], record["m"])
        assert matrix.convention == record["convention"]
        ring = matrix.ring
        expected = [[ring.parse(cell) for cell in row] for row in record["rows"]]
        assert mat_eq(matrix.rows(), expected)
        seen += 1
    assert seen == 12


def test_braid_relations_hold():
    for m in (1, 2):
        for n in (2, 3, 4):
            assert braid_relations_hold(n, m)


def test_matrix_sizes():
    for n in range(2, 7):
        assert generator_matrix(n, 1, 1).size == n - 1
        assert generator_matrix(n, 1, 2).size == n * (n - 1) // 2
        assert generator_matrix(n, 1, 2).size == dimension(disc_triad(n, 2))


def test_generator_validation():
    with pytest.raises(ValueError):
        generator_matrix(3, 0, 1)
    with pytest.raises(ValueError):
        generator_matrix(3, 3, 1)
    with pytest.raises(ValueError):
        generator_matrix(1, 1, 1)
    with pytest.raises(ValueError):
        generator_matrix(3, 1, 3)


@pytest.mark.parametrize("call", [
    lambda: generator_matrix(1, 0, 3),
    lambda: evaluate_word(BraidWord(3, (1,)), 0),
    lambda: diagonal_conjugation_integrality(1, 3),
], ids=["generator_matrix", "evaluate_word", "diagonal_conjugation_integrality"])
def test_m_outside_one_and_two_is_refused_before_other_checks(call):
    with pytest.raises(ValueError, match=r"^explicit matrices exist only for m in \{1, 2\}, got m=\d$"):
        call()


def test_braid_word_validation_and_ops():
    word = BraidWord(3, (1, 2, -1))
    assert len(word) == 3
    assert word.inverse().letters == (1, -2, -1)
    assert (word * BraidWord(3, (2,))).letters == (1, 2, -1, 2)
    with pytest.raises(ValueError):
        BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        word * BraidWord(4, (1,))


@pytest.mark.parametrize("letters", [(1.5,), (2.0,), (1, "2"), (None,)])
def test_braid_word_refuses_letters_that_are_not_integers(letters):
    # int() would have read 1.5 as the letter 1 and 2.0 as 2.
    with pytest.raises(ValueError, match=r"^letter .* out of range for n=3$"):
        BraidWord(3, letters)


def _term_lists(matrix):
    # Dict order matters: specialize sums terms in it, so float output depends on it.
    return [[list(e.terms.items()) for e in row] for row in matrix]


@pytest.mark.parametrize("m, strands", [(1, range(2, 11)), (2, range(3, 10))])
def test_closed_form_inverses_match_the_elimination_oracle(m, strands):
    for n in strands:
        ring = generator_matrix(n, 1, m).ring
        for i in range(1, n):
            oracle = linalg.invert(generator_matrix(n, i, m).entries, ring)
            inverse = braid._generator_entries(n, -i, m)
            assert mat_eq(inverse, oracle), (n, i)
            assert _term_lists(inverse) == _term_lists(oracle), (n, i)


def test_corner_sum_inverse_matches_the_elimination_oracle():
    for n in range(3, 10):
        P, Pinv = _corner_data(n)
        oracle = linalg.invert(P, P[0][0].ring)
        assert mat_eq(Pinv, oracle), n
        assert _term_lists(Pinv) == _term_lists(oracle), n


# -- the derivation, as a test oracle -------------------------------------------
#
# The construction braid.py's tables were read off: reduced Burau one point at a
# time, LKB as P^-1 (W P) from the classical pair table W and the corner-sum change
# of basis P, and each inverse from its generator's eigenvalue relation.  The
# tables must reproduce every entry of it, terms in the same dict order.


def _burau_rows(n, i):
    ring = standard_local_system(1).ring
    x = ring.var("x")
    size = n - 1
    rows = [[ring.one if a == b else ring.zero for b in range(size)] for a in range(size)]
    c = i - 1
    rows[c][c] = -x
    if c - 1 >= 0:
        rows[c][c - 1] = ring.one
    if c + 1 < size:
        rows[c][c + 1] = x
    return tuple(tuple(row) for row in rows)


def _pairs(n):
    return [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]


def _pair_images(n, i, ring):
    # Classical two-parameter table on the pair basis, with q = x, t = -d.
    q = ring.var("x")
    t = -ring.var("d")
    one = ring.one
    images = {}
    for (j, k) in _pairs(n):
        img = {}
        if i == j - 1:
            img[(i, k)] = q
            img[(i, j)] = q * q - q
            img[(j, k)] = one - q
        elif i == j and j != k - 1:
            img[(j + 1, k)] = one
        elif i == k - 1 and i != j:
            img[(j, i)] = q
            img[(j, k)] = one - q
            img[(i, k)] = -(q * q - q) * t
        elif i == k:
            img[(j, k + 1)] = one
        elif i == j == k - 1:
            img[(j, k)] = -t * q * q
        else:
            img[(j, k)] = one
        images[(j, k)] = img
    return images


def _arcs_of(e):
    arcs = [idx + 1 for idx, part in enumerate(e) for _ in range(part)]
    return arcs[0], arcs[1]


def _corner_signs(a, b):
    # Pair coordinates of F_{a,b}, all +-1 (the four corner pairs are distinct).
    if a == b:
        return {(a, a + 1): 1}
    return {
        (min(s, r), max(s, r)): (-1) ** ((s - a) + (r - b))
        for s in (a, a + 1) for r in (b, b + 1) if s != r
    }


@functools.lru_cache(maxsize=None)
def _corner_data(n):
    # P (pair coordinates of each F_e) and its inverse, which sums corners: the
    # row of F_{a,b} holds +1 (a = b) or -1 (a < b) in the column of v_{j,k}
    # when j <= a and b < k.
    ring = standard_local_system(2).ring
    unit = {1: ring.one, -1: -ring.one}
    arcs = [_arcs_of(e) for e in compositions(n - 1, 2)]
    pairs = _pairs(n)
    index = {p: a for a, p in enumerate(pairs)}
    P = [[ring.zero] * len(pairs) for _ in pairs]
    for col, (a, b) in enumerate(arcs):
        for pair, sign in _corner_signs(a, b).items():
            P[index[pair]][col] = unit[sign]
    Pinv = [
        [unit[1 if a == b else -1] if j <= a and k > b else ring.zero for (j, k) in pairs]
        for (a, b) in arcs
    ]
    return linalg.as_matrix(P), linalg.as_matrix(Pinv)


def _pair_rows(n, i):
    ring = standard_local_system(2).ring
    pairs = _pairs(n)
    index = {p: a for a, p in enumerate(pairs)}
    rows = [[ring.zero for _ in pairs] for _ in pairs]
    images = _pair_images(n, i, ring)
    for col, pair in enumerate(pairs):
        for target, coeff in images[pair].items():
            rows[index[target]][col] = coeff
    return linalg.as_matrix(rows)


def _oracle_generator(n, i, m):
    if m == 1:
        return _burau_rows(n, i)
    P, Pinv = _corner_data(n)
    return mat_mul(Pinv, mat_mul(_pair_rows(n, i), P))


def _oracle_inverse(n, i, m):
    # sigma is a root of p(s) = prod (s - r) = a_0 + a_1 s + ... + s^k over its
    # eigenvalues r: (s - 1)(s + x) for Burau, (s - 1)(s + x)(s - d x^2) for LKB.
    # a_0 is a unit, so sigma^-1 = -(a_1 + a_2 sigma + ... + sigma^(k-1)) / a_0.
    # For n > 3 the terms take the descending order of the fraction-free
    # elimination (linalg.invert), whose last step is an exact division.
    ring = standard_local_system(m).ring
    x = ring.var("x")
    eigenvalues = (ring.one, -x) if m == 1 else (ring.one, -x, ring.var("d") * x * x)
    poly = [ring.one]
    for r in eigenvalues:
        poly = [hi - r * lo for hi, lo in zip([ring.zero] + poly, poly + [ring.zero])]
    scale = -poly[0].inverse()
    sigma = _oracle_generator(n, i, m)
    powers = [identity(ring, len(sigma)), sigma]
    while len(powers) < len(poly) - 1:
        powers.append(mat_mul(powers[-1], sigma))
    terms = list(zip([scale * a for a in poly[1:]], powers))
    rows = [
        [sum((c * power[a][b] for c, power in terms), ring.zero) for b in range(len(sigma))]
        for a in range(len(sigma))
    ]
    if n > 3:
        rows = [[GroupRingElement(ring, dict(sorted(e.terms.items(), reverse=True))) for e in row]
                for row in rows]
    return linalg.as_matrix(rows)


@pytest.mark.parametrize("m", [1, 2])
def test_letter_plans_are_the_column_plans_of_the_dense_generators(m):
    # A letter's plan is compiled from its local rows; repr compares term order too.
    for n in range(2, 13):
        for i in range(1, n):
            for letter in (i, -i):
                dense = braid._generator_entries(n, letter, m)
                assert repr(braid._letter_plan(n, letter, m)) == repr(column_plan(dense)), (
                    n, letter)


@pytest.mark.parametrize("m, strands", [(1, range(2, 13)), (2, range(2, 13))])
def test_local_tables_match_the_corner_sum_oracle(m, strands):
    for n in strands:
        for i in range(1, n):
            sigma = braid._generator_entries(n, i, m)
            assert _term_lists(sigma) == _term_lists(_oracle_generator(n, i, m)), (n, i)
            inverse = braid._generator_entries(n, -i, m)
            assert _term_lists(inverse) == _term_lists(_oracle_inverse(n, i, m)), (n, i)


def test_generators_satisfy_the_eigenvalue_relations():
    # Burau: (s - 1)(s + x) = 0; LKB, through the BMW algebra: (s - 1)(s + x)(s - d x^2) = 0.
    for m, strands in ((1, range(2, 9)), (2, range(3, 7))):
        for n in strands:
            for i in range(1, n):
                sigma = generator_matrix(n, i, m)
                ring = sigma.ring
                x = ring.var("x")
                roots = [ring.one, -x] + ([ring.var("d") * x * x] if m == 2 else [])
                product = identity(ring, sigma.size)
                for r in roots:
                    shifted = [[e - r if a == b else e for b, e in enumerate(row)]
                               for a, row in enumerate(sigma.entries)]
                    product = mat_mul(product, shifted)
                assert all(e.is_zero() for row in product for e in row), (m, n, i)


def _reference_word(word, m):
    """The fold of `reference_mat_mul` over the generators and inverses: a test oracle.

    `reference_mat_mul` multiplies with the ring operators only, so the oracle
    shares no code with the column-plan kernel that evaluate_word runs.
    """
    n = word.n
    product = identity(generator_matrix(n, 1, m).ring, generator_matrix(n, 1, m).size)
    for letter in word.letters:
        product = reference_mat_mul(product, braid._generator_entries(n, letter, m))
    return product


@st.composite
def _words(draw):
    """(m, word): LKB on up to 7 strands, Burau on up to 10, runs of a repeated letter."""
    m = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(2, 7 if m == 2 else 10))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    runs = draw(st.lists(st.tuples(letter, st.integers(1, 3)), max_size=6 if m == 2 else 12))
    return m, BraidWord(n, tuple(a for a, count in runs for _ in range(count)))


@settings(max_examples=60, deadline=None)
@given(_words())
@example((2, BraidWord(3, ())))
@example((2, BraidWord(2, (1, 1, -1))))
@example((2, BraidWord(3, (-2, -2, 1, -1, 2))))  # n = 3 keeps the inverse's own order
@example((2, BraidWord(6, (3, 3, 3, -5, -5, 1, -1))))
@example((1, BraidWord(10, (9, 9, -1, -1, 4, -4, 4))))
def test_evaluate_word_matches_the_mat_mul_fold(case):
    m, word = case
    rho = evaluate_word(word, m)
    expected = _reference_word(word, m)
    assert mat_eq(rho.entries, expected)
    assert _term_lists(rho.entries) == _term_lists(expected)
    dual = dual_representation(word, m)
    pairing = mat_mul(linalg.transpose(linalg.mat_alpha(dual.entries)), rho.entries)
    assert mat_eq(pairing, identity(rho.ring, rho.size))


@settings(max_examples=60, deadline=None)
@given(_words())
@example((2, BraidWord(4, (1, 2, 1, -3, 2))))
@example((1, BraidWord(6, (2, 3, 1, 2, -4, 3))))
def test_evaluate_word_changes_no_map_it_shares(case):
    """A word's product changes no map of the identity it starts from (whose diagonal
    shares one `one`), of a cached letter plan or of a cached table entry; the plan
    kernel copies a shared map before it merges into it."""
    m, word = case
    n, letters = word.n, sorted(set(word.letters))
    maps = [g for letter in letters for _, col in braid._letter_plan(n, letter, m)[3]
            for _, _, _, g in col if g is not None]
    maps += [x.terms for letter in letters for row in braid._local_rows(n, letter, m)
             for x in row.values()]
    before = [repr(list(g.items())) for g in maps]
    starts = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(braid, "identity", lambda *args: starts.append(identity(*args)) or starts[-1])
        evaluate_word(word, m)
    (start,) = starts
    assert [repr(list(g.items())) for g in maps] == before
    assert all(x.terms == ({0: 1} if i == j else {})
               for i, row in enumerate(start) for j, x in enumerate(row))


def test_word_times_inverse_is_the_identity():
    rng = random.Random(5)
    for m in (1, 2):
        for _ in range(50):
            n = rng.randint(2, 5)
            length = rng.randint(1, 8)
            letters = []
            for _ in range(length):
                i = rng.randint(1, n - 1)
                letters.append(i if rng.random() < 0.5 else -i)
            word = BraidWord(n, tuple(letters))
            product = evaluate_word(word * word.inverse(), m)
            assert mat_eq(product.rows(), identity(product.ring, product.size))


# -- known values from the literature ---------------------------------------------


def _scalar_matrix(ring, size, exponents):
    """The scalar matrix x^a d^b * I (exponents (a,) or (a, b)) over `ring`."""
    return tuple(tuple(ring.monomial(exponents) if i == j else ring.zero for j in range(size))
                 for i in range(size))


@pytest.mark.parametrize("n", range(3, 8))
def test_the_full_twist_is_central_and_scalar(n):
    # (sigma_1 ... sigma_{n-1})^n generates the centre of B_n, so an irreducible
    # representation sends it to a scalar: x^n under reduced Burau, x^(2n) d^2 under LKB.
    # Its inverse, read off the inverse tables, is the inverse scalar.
    full_twist = BraidWord(n, tuple(range(1, n)) * n)
    for m, exponents in ((1, (n,)), (2, (2 * n, 2))):
        for word, sign in ((full_twist, 1), (full_twist.inverse(), -1)):
            image = evaluate_word(word, m)
            scalar = _scalar_matrix(image.ring, image.size, tuple(sign * e for e in exponents))
            assert mat_eq(image.rows(), scalar)


def _free_reduction(letters):
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _inverse_letters(letters):
    return tuple(-a for a in reversed(letters))


def test_bigelows_commutator_is_in_the_kernel_of_burau_at_five_strands():
    # S. Bigelow, "The Burau representation is not faithful for n = 5", Geom. Topol. 3
    # (1999) 397-404, Theorem 1.1: with
    #   psi_1 = s3^-1 s2 s1^2 s2 s4^3 s3 s2,
    #   psi_2 = s4^-1 s3 s2 s1^-2 s2 s1^2 s2^2 s1 s4^5,
    # the commutator [psi_1^-1 s4 psi_1, psi_2^-1 s4 s3 s2 s1^2 s2 s3 s4 psi_2] is a
    # nontrivial braid in the kernel of the reduced Burau representation of B_5.
    psi_1 = (-3, 2, 1, 1, 2, 4, 4, 4, 3, 2)
    psi_2 = (-4, 3, 2, -1, -1, 2, 1, 1, 2, 2, 1, 4, 4, 4, 4, 4)
    a = _inverse_letters(psi_1) + (4,) + psi_1
    b = _inverse_letters(psi_2) + (4, 3, 2, 1, 1, 2, 3, 4) + psi_2
    commutator = _free_reduction(a + b + _inverse_letters(a) + _inverse_letters(b))
    assert len(commutator) == 118
    image = evaluate_word(BraidWord(5, commutator), 1)
    assert mat_eq(image.rows(), identity(image.ring, image.size))


def test_braid_equal_words_evaluate_equally():
    for m in (1, 2):
        left = evaluate_word(BraidWord(3, (1, 2, 1)), m)
        right = evaluate_word(BraidWord(3, (2, 1, 2)), m)
        assert mat_eq(left.rows(), right.rows())


def _rewrite(letters, moves):
    """The word `letters` after braid-group moves, each (kind, k, i, sign).

    "insert" puts sigma_i^sign sigma_i^-sign before the k-th letter, "swap"
    exchanges the k-th pair of adjacent letters whose generators are at least
    2 apart, and "braid" replaces the k-th occurrence of sigma_j sigma_j+1
    sigma_j by sigma_j+1 sigma_j sigma_j+1, or back; k counts modulo the
    places a move applies, and a move that applies nowhere is skipped.
    """
    letters = list(letters)
    for kind, k, i, sign in moves:
        if kind == "insert":
            k %= len(letters) + 1
            letters[k:k] = [sign * i, -sign * i]
            continue
        if kind == "swap":
            places = [p for p in range(len(letters) - 1)
                      if abs(abs(letters[p]) - abs(letters[p + 1])) >= 2]
        else:
            places = [p for p in range(len(letters) - 2) if letters[p] == letters[p + 2] > 0
                      and abs(letters[p] - letters[p + 1]) == 1]
        if places:
            p = places[k % len(places)]
            if kind == "swap":
                letters[p], letters[p + 1] = letters[p + 1], letters[p]
            else:
                a, b = letters[p], letters[p + 1]
                letters[p:p + 3] = [b, a, b]
    return tuple(letters)


@st.composite
def _equal_words(draw):
    """(n, m, word, rewritten word): blocks of one letter or sigma_i sigma_i+1 sigma_i, moved."""
    n, m = draw(st.integers(2, 6)), draw(st.sampled_from((1, 2)))
    generator = st.integers(1, n - 1)
    letter = st.tuples(generator, st.sampled_from((1, -1))).map(lambda t: (t[0] * t[1],))
    triple = st.integers(1, max(1, n - 2)).map(lambda i: (i, i + 1, i) if n > 2 else (i,))
    blocks = draw(st.lists(letter | triple, max_size=5))
    word = tuple(a for block in blocks for a in block)
    moves = draw(st.lists(st.tuples(st.sampled_from(("insert", "swap", "braid")),
                                    st.integers(0, 20), generator, st.sampled_from((1, -1))),
                          min_size=1, max_size=6))
    return n, m, word, _rewrite(word, moves)


def _rep_stdout(n, m, word, *flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["rep", "--n", str(n), "--m", str(m), f"--word={','.join(map(str, word))}",
                     *flags]) == 0
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(_equal_words())
@example((3, 2, (1, 2, 1), (2, 1, 2)))
@example((5, 2, (2, 1, -2, 1, 1), (2, 1, -2, 1, 1, 2, -2)))
def test_words_equal_in_the_braid_group_print_equal_bytes(case):
    """Equal braids give equal matrices and byte-identical `rep` output, unspecialized
    and at a rational point.  At a complex point only agreement within tolerance is
    required: each entry is summed in its term order, which equal words need not share,
    so the last digit may differ."""
    n, m, word, rewritten = case
    left, right = evaluate_word(BraidWord(n, word), m), evaluate_word(BraidWord(n, rewritten), m)
    assert mat_eq(left.entries, right.entries)
    point = "x=3/2,d=-2/5"
    for flags in ((), ("--specialize", point), ("--specialize", point, "--format", "text")):
        assert _rep_stdout(n, m, word, *flags) == _rep_stdout(n, m, rewritten, *flags)
    k, at = ComplexApprox(), {"x": complex(0.3, 0.1), "d": 0.7}
    a, b = (specialize_matrix(rho.entries, at, k) for rho in (left, right))
    scale = max(abs(v) for row in a for v in row)
    assert all(abs(u - v) <= k.tolerance * scale for r, s in zip(a, b) for u, v in zip(r, s))


def test_full_twist_is_central():
    for m in (1, 2):
        for n in (3, 4):
            twist = BraidWord(n, tuple(range(1, n)) * n)
            center = evaluate_word(twist, m)
            for i in range(1, n):
                gen = generator_matrix(n, i, m)
                assert mat_eq(
                    mat_mul(center.rows(), gen.rows()),
                    mat_mul(gen.rows(), center.rows()),
                )


def test_dual_representation_preserves_the_pairing():
    # <rho'(b) v, rho(b) w> = <v, w> with the identity pairing matrix:
    # alpha(rho'(b))^T rho(b) = 1.
    words = [
        BraidWord(3, (1, 2)),
        BraidWord(3, (2, -1, 1)),
        BraidWord(3, (-2, -2, 1)),
        BraidWord(4, (1, 3, -2)),
    ]
    for m in (1, 2):
        for word in words:
            rho = evaluate_word(word, m)
            dual = dual_representation(word, m)
            lhs = mat_mul(
                linalg.transpose(linalg.mat_alpha(dual.rows())), rho.rows()
            )
            assert mat_eq(lhs, identity(rho.ring, rho.size))


def test_dual_representation_pairing_invariance_via_evaluate():
    word = BraidWord(3, (1, -2, 1))
    m = 2
    rho = evaluate_word(word, m)
    dual = dual_representation(word, m)
    matrix = delta_pairing(disc_triad(3, m), "in", rho.ring)
    ring = rho.ring
    rng = random.Random(6)

    def rand_vector(size):
        entries = []
        for _ in range(size):
            terms = {}
            for _ in range(2):
                exps = tuple(rng.randint(-1, 1) for _ in range(ring.rank))
                terms[exps] = rng.randint(-2, 2)
            entries.append(ring.element(terms))
        return tuple(entries)

    for _ in range(10):
        v = rand_vector(rho.size)
        w = rand_vector(rho.size)
        moved_v = tuple(
            sum((dual.entries[a][b] * v[b] for b in range(rho.size)), ring.zero)
            for a in range(rho.size)
        )
        moved_w = tuple(
            sum((rho.entries[a][b] * w[b] for b in range(rho.size)), ring.zero)
            for a in range(rho.size)
        )
        assert matrix.evaluate(moved_v, moved_w) == matrix.evaluate(v, w)


def test_dual_representation_is_antihomomorphic_on_products():
    m = 1
    a = BraidWord(3, (1,))
    b = BraidWord(3, (2,))
    ab = dual_representation(a * b, m)
    separate = mat_mul(
        dual_representation(a, m).rows(), dual_representation(b, m).rows()
    )
    assert mat_eq(ab.rows(), separate)


def test_dual_side_tag_and_validation():
    word = BraidWord(3, (1,))
    assert dual_representation(word, 2, "out").convention.endswith("dual-out")
    assert dual_representation(word, 1).convention.endswith("dual-in")
    with pytest.raises(ValueError):
        dual_representation(word, 2, "middle")


def test_convention_tags():
    assert generator_matrix(3, 1, 1).convention == "burau/t=x/arc-basis"
    assert generator_matrix(3, 1, 2).convention == "lkb/q=x,t=-d/arc-basis"


def test_relations_survive_generic_specialization():
    # spot-check the braid relation numerically at a generic complex point
    field = ComplexApprox()
    point = {"x": 0.31 + 0.77j, "d": -1.2 + 0.45j}
    tolerance = 1e-9
    for m in (1, 2):
        assignments = {"x": point["x"]} if m == 1 else point
        s1 = specialize_matrix(generator_matrix(3, 1, m).rows(), assignments, field)
        s2 = specialize_matrix(generator_matrix(3, 2, m).rows(), assignments, field)

        def numeric_mul(a, b):
            size = len(a)
            return [
                [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]

        lhs = numeric_mul(s1, numeric_mul(s2, s1))
        rhs = numeric_mul(s2, numeric_mul(s1, s2))
        for row_l, row_r in zip(lhs, rhs):
            for a, b in zip(row_l, row_r):
                assert abs(a - b) <= tolerance


def _permutation(word: BraidWord) -> tuple[int, ...]:
    """The permutation of the strands under `word`: sigma_i and its inverse swap i, i + 1."""
    strands = list(range(word.n))
    for letter in word.letters:
        i = abs(letter)
        strands[i - 1], strands[i] = strands[i], strands[i - 1]
    return tuple(strands)


def _clashes(words, m: int, point: dict) -> int:
    """How many words have the permutation of an earlier word and another matrix at `point`."""
    first, clashes = {}, 0
    for word in words:
        values = specialize_matrix(evaluate_word(word, m).entries, point, Rationals())
        clashes += first.setdefault((word.n, _permutation(word)), values) != values
    return clashes


def test_which_specializations_see_only_the_permutation():
    # Burau at x = 1 and LKB at x = d = 1 are permutation representations; LKB at the
    # other points is not, and random words with one permutation tell it apart.
    rng = random.Random(24)
    words = []
    for _ in range(150):
        n = rng.randint(3, 5)
        words.append(BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                        for _ in range(rng.randint(0, 8)))))
    assert _clashes(words, 1, {"x": 1}) == 0
    assert _clashes(words, 2, {"x": 1, "d": 1}) == 0
    for point in ({"x": 1, "d": Fraction(5, 3)}, {"x": 2, "d": 1}, {"x": -1, "d": 1}):
        assert _clashes(words, 2, point) > 0, point


def test_diagonal_conjugation_is_integral():
    for n in range(2, 6):
        certificate = diagonal_conjugation_integrality(n, 2)
        assert certificate.integral
        assert bool(certificate)
        assert certificate.generator is None
    assert diagonal_conjugation_integrality(4, 1).integral
    with pytest.raises(ValueError):
        diagonal_conjugation_integrality(3, 3)
