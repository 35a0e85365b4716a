"""Braid-group actions on the punctured-disc modules.

The disc with n marked circles is the triad with g = 0, k = 0, so the
modules are indexed by compositions of m into n-1 parts, one part per
consecutive arc.  This module realises the braid action on those modules
for m = 1 (reduced Burau, over Z[x^{+-1}]) and m = 2 (Lawrence-Krammer-
Bigelow, over Z[x^{+-1}, d^{+-1}]), together with word evaluation, the
dual action forced by pairing invariance, and the integrality check for
conjugation by the quantum-factorial diagonal.

Matrix convention.  For m = 2 the entries are produced from the classical
two-parameter table, which acts on an auxiliary basis v_{j,k} indexed by
pairs 1 <= j < k <= n of marked circles (one segment running into each),
by the corner-sum change of basis

    F_{a,a} = v_{a,a+1}
    F_{a,b} = sum over s in {a,a+1}, r in {b,b+1}, s != r of
              (-1)^{(s-a)+(r-b)} v_{min(s,r),max(s,r)}        (a < b),

where F_e is the basis vector of the composition with points on arcs a
and b.  The classical variables are read as q = x and t = -d: with that
sign the diagonal D_e = prod [e_i]_d! conjugates every generator into an
integral matrix, while for t = +d no change of basis achieves this (the
reduction mod 1+d has no invariant line already at n = 3).  The m = 1
blocks come from the same calculus one point at a time.  The resulting
entries are frozen in tests/golden/generator_matrices.json.

Closed-form inverses.  The change of basis P has entries 0 and +-1, and so
has its inverse, which sums corners: the row of F_{a,b} has, in the column
of v_{j,k}, the entry +1 (a = b) or -1 (a < b) when j <= a and b < k, and 0
otherwise.  A generator sigma satisfies a relation with unit constant term:

    m = 1:  (sigma - 1)(sigma + x) = 0,
            so sigma^-1 = (sigma + x - 1) / x;
    m = 2:  (sigma - 1)(sigma + x)(sigma - d x^2) = 0,
            so sigma^-1 = (sigma^2 - e_1 sigma + e_2) / e_3,

with e_1 = 1 - x + d x^2, e_2 = -x + d x^2 - d x^3 and e_3 = -d x^3 the
elementary symmetric functions of the eigenvalues.  The cubic holds because
the LKB action factors through the Birman-Murakami-Wenzl algebra (Zinno,
Math. Ann. 321, 2001); both relations are checked in the tests.  Neither
inverse needs elimination: linalg.invert remains only as the tests' oracle.

Term order.  `specialize` sums an entry's terms in dict order, so complex
specializations of word products depend on the order of the inverse entries.
They keep the order the fraction-free elimination gives: descending keys,
because its last step is an exact division, which emits the quotient from
the leading term down.  At n = 3 the last row's final divisor is the corner
entry of sigma, which is 1 for sigma_2, so nothing is divided and the order
is the one the relation sums in; n = 3 keeps that order.  The tests compare
entries and their term order against linalg.invert for n <= 9 (m = 2) and
n <= 10 (m = 1).

Column plans.  In the pair basis a generator permutes the pairs away from
{i, i+1}, so most of its columns hold a single 1; at n = 6 an LKB generator
has 28 nonzeros out of 225.  Each letter is compiled once into a cached column
plan (ring.column_plan), in which such a column is a row index to copy, and
evaluate_word applies the plans to the rows of the running product, kept as
term maps.  linalg.mat_mul runs the same kernel, so a word's entries keep the
term order of a fold of mat_mul (the rule is in ring.apply_column_plans) and
specializations do not change.  P^-1 W P and sigma^2 go through it too.
"""

from __future__ import annotations

import functools

from . import linalg
from .compositions import compositions
from .ring import (GroupRingElement, apply_column_plans, column_plan, exact_divide,
                   sum_of_products)
from .surfaces import SIDES, SurfaceTriad, standard_local_system
from .values import value_class

__all__ = [
    "BraidWord",
    "RepMatrix",
    "ConjugationCertificate",
    "disc_triad",
    "generator_matrix",
    "evaluate_word",
    "dual_representation",
    "braid_relations_hold",
    "diagonal_conjugation_integrality",
]

_TAGS = {1: "burau/t=x/arc-basis", 2: "lkb/q=x,t=-d/arc-basis"}


def disc_triad(n: int, m: int) -> SurfaceTriad:
    """The punctured-disc triad for the braid group on n strands."""
    if n < 2:
        raise ValueError(f"need at least 2 marked circles, got n={n}")
    return SurfaceTriad(genus=0, inner_circles=n, outer_intervals=0, points=m)


@value_class
class BraidWord:
    """A word in the standard braid generators on n strands.

    Letters are nonzero integers: i > 0 stands for the i-th generator,
    -i for its inverse.  The empty word is the identity braid.
    """

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"braid group needs n >= 2 strands, got {self.n}")
        object.__setattr__(self, "letters", tuple(int(a) for a in self.letters))
        for a in self.letters:
            if a == 0 or abs(a) > self.n - 1:
                raise ValueError(f"letter {a} out of range for n={self.n}")

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-a for a in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.n, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


@value_class
class RepMatrix:
    """A braid-group matrix on the composition basis of the disc triad."""

    n: int
    m: int
    entries: tuple[tuple[GroupRingElement, ...], ...]
    convention: str

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def ring(self):
        return self.entries[0][0].ring

    def rows(self) -> list[list[GroupRingElement]]:
        return [list(row) for row in self.entries]


@functools.lru_cache(maxsize=None)
def _system(m: int):
    return standard_local_system(m)


def _freeze(rows) -> tuple[tuple[GroupRingElement, ...], ...]:
    return tuple(tuple(row) for row in rows)


# -- m = 1: reduced Burau ----------------------------------------------------
#
# One point on the consecutive arcs A_1..A_{n-1}; the i-th half-twist acts by
#   A_{i-1} -> A_{i-1} + A_i,   A_i -> -x A_i,   A_{i+1} -> x A_i + A_{i+1}.


def _burau_rows(n: int, i: int):
    ring = _system(1).ring
    x = ring.var("x")
    size = n - 1
    rows = [[ring.one if a == b else ring.zero for b in range(size)] for a in range(size)]
    c = i - 1
    rows[c][c] = -x
    if c - 1 >= 0:
        rows[c][c - 1] = ring.one
    if c + 1 < size:
        rows[c][c + 1] = x
    return rows


# -- m = 2: corner-sum basis over the pair table -----------------------------


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]


def _pair_images(n: int, i: int, ring):
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


def _arcs_of(e: tuple[int, ...]) -> tuple[int, int]:
    arcs = [idx + 1 for idx, part in enumerate(e) for _ in range(part)]
    return arcs[0], arcs[1]


def _corner_signs(a: int, b: int) -> dict[tuple[int, int], int]:
    # Pair coordinates of F_{a,b}, all +-1 (the four corner pairs are distinct).
    if a == b:
        return {(a, a + 1): 1}
    return {
        (min(s, r), max(s, r)): (-1) ** ((s - a) + (r - b))
        for s in (a, a + 1) for r in (b, b + 1) if s != r
    }


@functools.lru_cache(maxsize=None)
def _corner_data(n: int):
    # Change of basis P (pair coordinates of each F_e) and its corner-sum
    # inverse, both written out (module docstring).
    ring = _system(2).ring
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
    return _freeze(P), _freeze(Pinv)


def _pair_rows(n: int, i: int):
    ring = _system(2).ring
    pairs = _pairs(n)
    index = {p: a for a, p in enumerate(pairs)}
    size = len(pairs)
    rows = [[ring.zero for _ in range(size)] for _ in range(size)]
    images = _pair_images(n, i, ring)
    for col, pair in enumerate(pairs):
        for target, coeff in images[pair].items():
            rows[index[target]][col] = coeff
    return rows


@functools.lru_cache(maxsize=None)
def _generator_entries(n: int, i: int, m: int):
    if m == 1:
        return _freeze(_burau_rows(n, i))
    P, Pinv = _corner_data(n)
    W = _pair_rows(n, i)
    WP = apply_column_plans(W, [column_plan(P)])
    return apply_column_plans(Pinv, [column_plan(WP)])


@functools.lru_cache(maxsize=None)
def _generator_inverse_entries(n: int, i: int, m: int):
    # sigma is a root of p(s) = prod (s - r) = a_0 + a_1 s + ... + s^k over its
    # eigenvalues r, and a_0 is a unit, so
    # sigma^-1 = -(a_1 + a_2 sigma + ... + sigma^(k-1)) / a_0.
    ring = _system(m).ring
    x = ring.var("x")
    eigenvalues = (ring.one, -x) if m == 1 else (ring.one, -x, ring.var("d") * x * x)
    poly = [ring.one]
    for r in eigenvalues:
        poly = [hi - r * lo for hi, lo in zip([ring.zero] + poly, poly + [ring.zero])]
    scale = -poly[0].inverse()
    sigma = _generator_entries(n, i, m)
    powers = [linalg.identity(ring, len(sigma)), sigma]
    while len(powers) < len(poly) - 1:
        powers.append(apply_column_plans(powers[-1], [_letter_plan(n, i, m)]))
    terms = list(zip([scale * a for a in poly[1:]], powers))
    rows = [
        [sum_of_products(ring, [(c, power[a][b]) for c, power in terms]) for b in range(len(sigma))]
        for a in range(len(sigma))
    ]
    if n > 3:  # term order of the elimination; see the module docstring
        rows = [[e.in_descending_order() for e in row] for row in rows]
    return _freeze(rows)


def _validate(n: int, i: int, m: int):
    if m not in (1, 2):
        raise ValueError(f"explicit matrices exist only for m in {{1, 2}}, got m={m}")
    if n < 2:
        raise ValueError(f"braid group needs n >= 2, got {n}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")


def generator_matrix(n: int, i: int, m: int) -> RepMatrix:
    """Matrix of the i-th braid generator on the composition basis.

    m = 1 gives the reduced Burau action (size n-1), m = 2 the LKB action
    (size n(n-1)/2).  Row and column order is the composition enumeration
    order of E_{n-1,m}.
    """
    _validate(n, i, m)
    return RepMatrix(n, m, _generator_entries(n, i, m), _TAGS[m])


@functools.lru_cache(maxsize=None)
def _letter_plan(n: int, letter: int, m: int):
    if letter > 0:
        return column_plan(_generator_entries(n, letter, m))
    return column_plan(_generator_inverse_entries(n, -letter, m))


def evaluate_word(word: BraidWord, m: int) -> RepMatrix:
    """Ordered product of generator matrices over the letters of `word`.

    Inverse letters use exact inverses; all entries stay in R because the
    generator determinants are units.  Each letter acts on the rows of the
    running product through its cached column plan (module docstring).
    """
    if m not in (1, 2):
        raise ValueError(f"explicit matrices exist only for m in {{1, 2}}, got m={m}")
    ring = _system(m).ring
    n = word.n
    start = linalg.identity(ring, len(compositions(n - 1, m)))
    plans = [_letter_plan(n, letter, m) for letter in word.letters]
    return RepMatrix(n, m, apply_column_plans(start, plans), _TAGS[m])


def dual_representation(word: BraidWord, m: int, side: str = "in") -> RepMatrix:
    """The dual action rho'(beta) = alpha(rho(beta^{-1}))^T.

    Pairing invariance against the identity pairing matrix,
    alpha(rho(beta))^T . rho'(beta) = 1, holds by construction; `side`
    labels which half of the pairing carries rho and is recorded in the
    convention tag.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    base = evaluate_word(word.inverse(), m)
    entries = _freeze(linalg.transpose(linalg.mat_alpha(base.rows())))
    return RepMatrix(word.n, m, entries, f"{_TAGS[m]}/dual-{side}")


def braid_relations_hold(n: int, m: int) -> bool:
    """Check both braid relations on all generator matrices for B_n."""
    mats = {i: _generator_entries(n, i, m) for i in range(1, n)}
    for i in range(1, n - 1):
        lhs = linalg.mat_mul(mats[i], linalg.mat_mul(mats[i + 1], mats[i]))
        rhs = linalg.mat_mul(mats[i + 1], linalg.mat_mul(mats[i], mats[i + 1]))
        if not linalg.mat_eq(lhs, rhs):
            return False
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            if not linalg.mat_eq(linalg.mat_mul(mats[i], mats[j]),
                                 linalg.mat_mul(mats[j], mats[i])):
                return False
    return True


@value_class
class ConjugationCertificate:
    """Result of the diagonal conjugation integrality test.

    When `integral` is false, `generator`, `position` and `entry` name one
    offending matrix entry whose D-conjugate leaves the ring.
    """

    integral: bool
    generator: int | None = None
    position: tuple[int, int] | None = None
    entry: GroupRingElement | None = None

    def __bool__(self) -> bool:
        return self.integral


def diagonal_conjugation_integrality(n: int, m: int = 2) -> ConjugationCertificate:
    """Check that D^{-1} rho(sigma_i) D stays in R for every generator.

    D is the embedding diagonal diag(prod [e_i]_u!) of the disc triad; the
    check divides each entry rho_{ab} D_b by D_a exactly.  For m = 1 the
    diagonal is the identity and the answer is trivially true.
    """
    from .embeddings import embedding_matrix

    if m not in (1, 2):
        raise ValueError(f"explicit matrices exist only for m in {{1, 2}}, got m={m}")
    triad = disc_triad(n, m)
    system = _system(m)
    diagonal = embedding_matrix(triad, "in", system).diagonal
    for value in diagonal:
        if value.is_zero():
            raise ValueError("zero diagonal entry, conjugation undefined")
    for i in range(1, n):
        rho = _generator_entries(n, i, m)
        for a, d_a in enumerate(diagonal):
            for b, d_b in enumerate(diagonal):
                if exact_divide(rho[a][b] * d_b, d_a) is None:
                    return ConjugationCertificate(False, i, (a, b), rho[a][b])
    return ConjugationCertificate(True)
