"""Output checkers that share no code with braidhom.

Braid matrices are compared modulo the prime P = 2^61 - 1 at one fixed point
(x, d).  The reference is rebuilt here from the published formulas: the
reduced Burau action on consecutive arcs, and for m = 2 the classical
two-parameter action on pairs v_{j,k} (Bigelow, JAMS 14, 2001) with q = x and
t = -d, carried to the composition basis by the corner-sum change of basis
that braidhom.braid's module docstring states.  Nothing from the package is
imported.  The golden file tests/golden/generator_matrices.json
(read only) pins the convention for n <= 4.

Program outputs are read only through their public text or JSON forms.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

P = (1 << 61) - 1
X = 0x1F2E3D4C5B6A79 % P
D = 0x0123456789ABCD % P


@lru_cache(maxsize=None)
def _power(base: int, e: int) -> int:
    return pow(base, e, P)


def evaluate_terms(terms) -> int:
    """Value mod P of sum(c * x^a * d^b) over (exponents, c) pairs."""
    total = 0
    for exps, coeff in terms:
        value = coeff
        for base, e in zip((X, D), exps):
            value = value * _power(base, e)
        total += value
    return total % P


def evaluate_json_terms(items) -> int:
    """Value of an element given as GroupRingElement.to_json_terms()."""
    return evaluate_terms((item["exponents"], int(item["coeff"])) for item in items)


def parse_text(text: str, variables: tuple[str, ...]) -> list:
    """(exponents, coefficient) pairs of an element in to_text() form."""
    text = text.strip()
    if text == "0":
        return []
    out = []
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = -1 if chunk.startswith("-") else 1
        coeff = sign
        exps = [0] * len(variables)
        for factor in chunk.lstrip("-").split("*"):
            name, _, power = factor.partition("^")
            if name in variables:
                exps[variables.index(name)] += int(power) if power else 1
            else:
                coeff = sign * int(factor)
        out.append((exps, coeff))
    return out


def evaluate_text(text: str, variables: tuple[str, ...]) -> int:
    return evaluate_terms(parse_text(text, variables))


# ---------------------------------------------------------------------------
# matrices mod P
# ---------------------------------------------------------------------------


def identity(size: int) -> list[list[int]]:
    return [[int(i == j) for j in range(size)] for i in range(size)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % P for col in bt] for row in a]


def invert(a):
    """Gauss-Jordan inverse mod P; raises on a singular matrix."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if m[r][k])
        m[k], m[pivot] = m[pivot], m[k]
        inv = pow(m[k][k], -1, P)
        m[k] = [v * inv % P for v in m[k]]
        for r in range(n):
            if r != k and m[r][k]:
                f = m[r][k]
                m[r] = [(v - f * w) % P for v, w in zip(m[r], m[k])]
    return [row[n:] for row in m]


def _burau(n: int, i: int):
    # Arcs A_1..A_{n-1}; sigma_i sends A_{i-1} -> A_{i-1} + A_i,
    # A_i -> -x A_i, A_{i+1} -> x A_i + A_{i+1}.  Column c is the image of A_c.
    g = identity(n - 1)
    c = i - 1
    g[c][c] = -X % P
    if c >= 1:
        g[c][c - 1] = 1
    if c + 1 < n - 1:
        g[c][c + 1] = X
    return g


def _pair_action(n: int, i: int):
    """sigma_i on v_{j,k}, 1 <= j < k <= n, as {(j,k): {(j',k'): coeff}}."""
    q, t = X, -D % P
    images = {}
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            if i == j - 1:
                img = {(i, k): q, (i, j): q * q - q, (j, k): 1 - q}
            elif i == j and j != k - 1:
                img = {(j + 1, k): 1}
            elif i == k - 1 and i != j:
                img = {(j, i): q, (j, k): 1 - q, (i, k): -(q * q - q) * t}
            elif i == k:
                img = {(j, k + 1): 1}
            elif i == j == k - 1:
                img = {(j, k): -t * q * q}
            else:
                img = {(j, k): 1}
            images[(j, k)] = {key: v % P for key, v in img.items()}
    return images


def _arc_pairs(n: int) -> list[tuple[int, int]]:
    # Compositions of 2 into n-1 parts in colex order: arcs a <= b sorted by (b, a).
    return [(a, b) for b in range(1, n) for a in range(1, b + 1)]


def _corner(n: int):
    """Pair coordinates of the composition basis (columns), and the pair index."""
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    index = {p: r for r, p in enumerate(pairs)}
    size = len(pairs)
    corner = [[0] * size for _ in range(size)]
    for col, (a, b) in enumerate(_arc_pairs(n)):
        if a == b:
            corner[index[(a, a + 1)]][col] = 1
            continue
        for s in (a, a + 1):
            for r in (b, b + 1):
                if s != r:
                    row = index[(min(s, r), max(s, r))]
                    corner[row][col] += (-1) ** ((s - a) + (r - b))
    return [[v % P for v in row] for row in corner], index


def _lkb(n: int, i: int):
    corner, index = _corner(n)
    size = len(index)
    w = [[0] * size for _ in range(size)]
    for source, image in _pair_action(n, i).items():
        for target, coeff in image.items():
            w[index[target]][index[source]] = coeff
    return mat_mul(invert(corner), mat_mul(w, corner))


@lru_cache(maxsize=None)
def generator(n: int, letter: int, m: int):
    """Reference matrix of sigma_letter (inverse for letter < 0), mod P."""
    i = abs(letter)
    g = _burau(n, i) if m == 1 else _lkb(n, i)
    return g if letter > 0 else invert(g)


def word_matrix(n: int, m: int, letters) -> list[list[int]]:
    size = n - 1 if m == 1 else n * (n - 1) // 2
    product = identity(size)
    for letter in letters:
        product = mat_mul(product, generator(n, letter, m))
    return product


def golden_mismatches(path) -> list[str]:
    """Generator matrices of the golden file (n <= 4) that disagree with the reference."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    bad = []
    for record in data["matrices"]:
        n, m, i = record["n"], record["m"], record["i"]
        variables = ("x",) if m == 1 else ("x", "d")
        got = [[evaluate_text(cell, variables) for cell in row] for row in record["rows"]]
        if n <= 4 and got != generator(n, i, m):
            bad.append(f"n={n} m={m} i={i}")
    return bad


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def rows_match(n: int, m: int, letters, rows) -> bool:
    """Whether evaluated rows (ints mod P) equal the reference word matrix."""
    return rows == word_matrix(n, m, tuple(letters))


def cli_output_matches(n: int, m: int, letters, stdout: bytes) -> bool:
    """Check `braidhom rep` JSON output against the reference."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    if payload.get("n") != n or payload.get("m") != m:
        return False
    variables = ("x",) if m == 1 else ("x", "d")
    rows = [[evaluate_text(cell, variables) for cell in row] for row in payload["rows"]]
    return rows_match(n, m, letters, rows)
