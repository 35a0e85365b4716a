"""Braid-group actions on the punctured-disc modules.

The disc with n marked circles is the triad with g = 0, k = 0, so the
modules are indexed by compositions of m into n-1 parts, one part per
consecutive arc.  This module realises the braid action on those modules
for m = 1 (reduced Burau, over Z[x^{+-1}]) and m = 2 (Lawrence-Krammer-
Bigelow, over Z[x^{+-1}, d^{+-1}]), word evaluation and the braid relations;
the dual action lives in `pairing`, the conjugation check in `embeddings`.

The local tables.  The half-twist sigma_i moves only points on arc i, as the
Burau rule does one point at a time.  So the row of a composition e with no
point on arc i is an identity row, and every other row is read off a table
keyed by e's parts (e_{i-1}, e_i, e_{i+1}) on arcs i-1, i, i+1, where arcs 0
and n do not exist and hold 0.  Each entry of the row replaces those three
parts by a target and keeps the rest; an entry whose target puts a point on
arc 0 or n is absent.  `_SIGMA` and `_SIGMA_INVERSE` below are the two tables,
with entries written as text.  Their (0,1,0) row is reduced Burau, the whole
table for m = 1:

    sigma_i:     (1,0,0): 1,     (0,1,0): -x,     (0,0,1): x
    sigma_i^-1:  (1,0,0): x^-1,  (0,1,0): -x^-1,  (0,0,1): 1

m = 2 adds the rows (1,1,0), (0,2,0) and (0,1,1), so every row has at most six
entries, at column offsets in {-1, 0, 1}^2.

Term order.  `specialize` sums an entry's terms in dict order, so complex
specializations of word products depend on the order of the generator and
inverse entries.  An entry keeps the order its text lists the terms in, which
is that of the construction below.  For sigma_i it is the order the products
P^-1 (W P) emit.  For sigma_i^-1 it is descending lex order of the exponents (x
before d), the order of fraction-free elimination, whose last step is an exact
division.  The one exception is n = 3 (`_SIGMA_INVERSE_N3`): the entry of
sigma_2^-1 from (0,2,0) to (1,1,0) is x^-2 d^-1 + x^-2, the order its
eigenvalue relation sums in.

The derivation.  The tables were read off the classical two-parameter action on
an auxiliary basis v_{j,k}, indexed by pairs 1 <= j < k <= n of marked circles
(one segment running into each), carried to the composition basis by the
corner-sum change of basis

    F_{a,a} = v_{a,a+1}
    F_{a,b} = sum over s in {a,a+1}, r in {b,b+1}, s != r of
              (-1)^{(s-a)+(r-b)} v_{min(s,r),max(s,r)}        (a < b),

where F_e is the basis vector of the composition with points on arcs a and b.
With P that change of basis and W the pair action, sigma_i = P^-1 (W P), and
P^-1 sums corners: the row of F_{a,b} has, in the column of v_{j,k}, the entry
+1 (a = b) or -1 (a < b) when j <= a and b < k, and 0 otherwise.  The classical
variables are read as q = x and t = -d: with that sign the diagonal
D_e = prod [e_i]_d! conjugates every generator into an integral matrix, while
for t = +d no change of basis achieves this (the reduction mod 1+d has no
invariant line already at n = 3).  The inverses follow from the eigenvalue
relations, whose constant terms are units:

    m = 1:  (sigma - 1)(sigma + x) = 0,
            so sigma^-1 = (sigma + x - 1) / x;
    m = 2:  (sigma - 1)(sigma + x)(sigma - d x^2) = 0,
            so sigma^-1 = (sigma^2 - e_1 sigma + e_2) / e_3,

with e_1 = 1 - x + d x^2, e_2 = -x + d x^2 - d x^3 and e_3 = -d x^3 the
elementary symmetric functions of the eigenvalues.  The cubic holds because
the LKB action factors through the Birman-Murakami-Wenzl algebra (Zinno,
Math. Ann. 321, 2001).  The tests keep this construction as the oracle: the
tables must give its entries, with their term order, for every generator and
inverse at n <= 12, and both relations are checked.  linalg.invert, the
fraction-free elimination, stays a second oracle for the inverses.  The
generators at n <= 4 are frozen in tests/golden/generator_matrices.json.

Column plans.  A generator moves only the points on one arc, so it leaves
the basis vectors of every composition with no point there fixed; at n = 6 an
LKB generator has at most 28 nonzeros out of 225.  Each letter is compiled once
into a cached column plan by ring.plan_rows, from its local rows as they are
({column: nonzero entry}), with no dense matrix built; the plan leaves out
every column whose only nonzero is a 1 in its own row: at n = 6, sigma_2 lists
12 of its 15 columns and sigma_1 lists 9.  It equals ring.column_plan of the
dense generator.
evaluate_word starts from the identity, whose columns are its rows, and keeps
the running product by columns of term maps: each letter rebuilds only the
columns it lists and carries the rest over.  A column whose first entry is
+-x^e shares the rows of its source column under a frame (a shift of every key
and a sign), so it costs no per-row work; the kernel copies a shared map just
before it merges a later entry into it, so neither the identity's shared one nor
a cached plan or table entry ever changes, and applies the frames once at the end.
linalg.mat_mul runs the same kernel, so a word's entries keep the term order of
a fold of mat_mul (the rule is in ring.apply_column_plans) and specializations
do not change.  Both sides of the braid relations go through it too.

Imports.  A cold `braidhom rep` loads this module, ring, compositions and values
only: the identity, the standard local system and the column-plan kernel come
from ring, and braid_relations_hold imports linalg inside the function.

Size and caches.  evaluate_word refuses a matrix of more than MAX_ENTRIES =
10^7 entries before it builds anything: rep --n 3000 --m 1 has 8,994,001
entries, and n = 80 is the largest LKB size allowed.  The three caches are
unbounded.  _system has two keys and _table_entry one per table text.
_letter_plan holds one column plan per (n, letter, m) that a word has used.  A
plan lists only the columns its letter changes, with O(n^(m-1)) entries in
all, and is compiled from the letter's n^m local rows, roughly, with no dense
generator of n^(2m) entries.  So the cache grows no faster than the work that
filled it, even for a word with many distinct letters at a large n.
"""

from __future__ import annotations

import functools

from .compositions import compositions, count
from .ring import (GroupRingElement, apply_column_plans, identity, plan_rows,
                   standard_local_system)
from .values import value_class

__all__ = [
    "BraidWord",
    "RepMatrix",
    "generator_matrix",
    "evaluate_word",
    "braid_relations_hold",
]

_TAGS = {1: "burau/t=x/arc-basis", 2: "lkb/q=x,t=-d/arc-basis"}
MAX_ENTRIES = 10**7  # the largest matrix evaluate_word builds (module docstring)


@value_class
class BraidWord:
    """A word in the standard braid generators on n strands.

    Letters are nonzero integers, not floats: i > 0 stands for the i-th
    generator, -i for its inverse.  The empty word is the identity braid.
    """

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"braid group needs n >= 2 strands, got {self.n}")
        letters = tuple(self.letters)
        for a in letters:
            if not isinstance(a, int) or a == 0 or abs(a) > self.n - 1:
                raise ValueError(f"letter {a!r} out of range for n={self.n}")
        object.__setattr__(self, "letters", tuple(map(int, letters)))

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
    """The standard local system of m points; the one refusal of m outside {1, 2}."""
    if m not in (1, 2):
        raise ValueError(f"explicit matrices exist only for m in {{1, 2}}, got m={m}")
    return standard_local_system(m)


# -- the local tables ----------------------------------------------------------
#
# A row is keyed by its composition's parts on arcs (i-1, i, i+1), where arcs 0
# and n do not exist and hold 0; each entry moves those parts to a target and
# keeps the rest, in the dict order its text lists the terms (module docstring).

_SIGMA = {
    (0, 1, 0): {(1, 0, 0): "1", (0, 1, 0): "-x", (0, 0, 1): "x"},
    (1, 1, 0): {(2, 0, 0): "-1", (1, 1, 0): "-x", (1, 0, 1): "x"},
    (0, 2, 0): {(2, 0, 0): "1", (1, 1, 0): "x + x*d", (1, 0, 1): "-x - x*d",
                (0, 2, 0): "x^2*d", (0, 1, 1): "x^2*d + x^2", (0, 0, 2): "x^2"},
    (0, 1, 1): {(1, 0, 1): "1", (0, 1, 1): "-x", (0, 0, 2): "-x"},
}
_SIGMA_INVERSE = {
    (0, 1, 0): {(1, 0, 0): "x^-1", (0, 1, 0): "-x^-1", (0, 0, 1): "1"},
    (1, 1, 0): {(2, 0, 0): "-x^-1", (1, 1, 0): "-x^-1", (1, 0, 1): "1"},
    (0, 2, 0): {(2, 0, 0): "x^-2", (1, 1, 0): "x^-2 + x^-2*d^-1", (1, 0, 1): "-x^-1 - x^-1*d^-1",
                (0, 2, 0): "x^-2*d^-1", (0, 1, 1): "x^-1 + x^-1*d^-1", (0, 0, 2): "1"},
    (0, 1, 1): {(1, 0, 1): "x^-1", (0, 1, 1): "-x^-1", (0, 0, 2): "-1"},
}
_SIGMA_INVERSE_N3 = {
    **_SIGMA_INVERSE,
    (0, 2, 0): {**_SIGMA_INVERSE[(0, 2, 0)], (1, 1, 0): "x^-2*d^-1 + x^-2"},
}


@functools.lru_cache(maxsize=None)
def _table_entry(m: int, text: str) -> GroupRingElement:
    return _system(m).ring.parse(text)


def _local_rows(n: int, letter: int, m: int) -> list[dict[int, GroupRingElement]]:
    """The rows of sigma_letter (of sigma_|letter|^-1 if letter < 0) as {column: nonzero entry}."""
    i, one = abs(letter), _system(m).ring.one
    table = _SIGMA if letter > 0 else _SIGMA_INVERSE_N3 if n == 3 else _SIGMA_INVERSE
    basis = compositions(n - 1, m)
    index = {e: r for r, e in enumerate(basis)}
    rows = []
    for r, e in enumerate(basis):
        if not e[i - 1]:
            rows.append({r: one})
            continue
        padded, row = (0, *e, 0), {}
        for target, text in table[padded[i - 1:i + 2]].items():
            moved = padded[:i - 1] + target + padded[i + 2:]
            if moved[0] == moved[-1] == 0:
                row[index[moved[1:-1]]] = _table_entry(m, text)
        rows.append(row)
    return rows


def _generator_entries(n: int, letter: int, m: int) -> tuple[tuple[GroupRingElement, ...], ...]:
    """The dense matrix of `_local_rows`: sigma_letter, or sigma_|letter|^-1 if letter < 0."""
    zero = _system(m).ring.zero
    rows = _local_rows(n, letter, m)
    return tuple(tuple(row.get(c, zero) for c in range(len(rows))) for row in rows)


def generator_matrix(n: int, i: int, m: int) -> RepMatrix:
    """Matrix of the i-th braid generator on the composition basis.

    m = 1 gives the reduced Burau action (size n-1), m = 2 the LKB action
    (size n(n-1)/2).  Row and column order is the composition enumeration
    order of E_{n-1,m}.
    """
    _system(m)
    if n < 2:
        raise ValueError(f"braid group needs n >= 2, got {n}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")
    return RepMatrix(n, m, _generator_entries(n, i, m), _TAGS[m])


@functools.lru_cache(maxsize=None)
def _letter_plan(n: int, letter: int, m: int):
    """The column plan of the letter's matrix, from the nonzero entries of its local rows."""
    rows = _local_rows(n, letter, m)
    return plan_rows(_system(m).ring, rows, len(rows))


def evaluate_word(word: BraidWord, m: int) -> RepMatrix:
    """Ordered product of generator matrices over the letters of `word`.

    Inverse letters use exact inverses; all entries stay in R because the
    generator determinants are units.  Each letter acts on the columns of the
    running product through its cached column plan (module docstring).  A
    matrix of more than MAX_ENTRIES = 10^7 entries is refused with ValueError
    before anything is built.
    """
    ring = _system(m).ring
    n = word.n
    size = count(n - 1, m)
    if size * size > MAX_ENTRIES:
        raise ValueError(f"a {size}x{size} matrix (n={n}, m={m}) exceeds the bound of "
                         f"{MAX_ENTRIES} entries")
    start = identity(ring, size)
    plans = [_letter_plan(n, letter, m) for letter in word.letters]
    return RepMatrix(n, m, apply_column_plans(start, plans), _TAGS[m])


def braid_relations_hold(n: int, m: int) -> bool:
    """Check both braid relations on all generator matrices for B_n.

    Each side multiplies through the cached letter plans; `mat_eq` ignores term order.
    """
    from .linalg import mat_eq

    mats = {i: _generator_entries(n, i, m) for i in range(1, n)}

    def times(i, *letters):
        return apply_column_plans(mats[i], [_letter_plan(n, letter, m) for letter in letters])

    for i in range(1, n - 1):
        if not mat_eq(times(i, i + 1, i), times(i + 1, i, i + 1)):
            return False
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            if not mat_eq(times(i, j), times(j, i)):
                return False
    return True
