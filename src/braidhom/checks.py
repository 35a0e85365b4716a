"""The condensed verification suite behind `braidhom verify`.

Each check runs one of the paper's relationships on small cases: the
non-degenerate pairings, the quantum-factorial embeddings, the braid
relations and the duality of the braid actions, the covering comparisons
and the helix class.  A check returns None when it holds and a short
description of a counterexample when it does not.  CHECKS lists them by
name in the order `verify` runs them.
"""

from __future__ import annotations

import random

from .braid import BraidWord, braid_relations_hold, evaluate_word
from .completion import (equal, helix_class, include_group_ring, is_in_group_ring,
                         left_circle_helix, module_action)
from .compositions import compositions
from .embeddings import diagonal_conjugation_integrality, embedding_matrix
from .homology import circle_cohomology, shapiro_circle_check, shapiro_double_cover_check
from .linalg import identity, mat_alpha, mat_mul, transpose
from .pairing import (closed_form_pairing, delta_pairing, dual_representation,
                      geometric_pairing_matrix, local_intersection_sum)
from .fields import IntegersModP, Rationals
from .ring import Integers, LaurentRing
from .surfaces import SurfaceTriad, dimension, quantum_factorial, standard_local_system


def _check_quantum_factorial() -> str | None:
    u = LaurentRing(1, Integers(), ("u",)).var("u")
    for r in range(6):
        if quantum_factorial(r, u) != local_intersection_sum(r, u):
            return f"r={r}"
    return None


def _check_dimension() -> str | None:
    for g in range(2):
        for n in range(1, 4):
            for k in range(2):
                for m in range(1, 4):
                    if n - 1 + k + 2 * g < 1:
                        continue
                    triad = SurfaceTriad(g, n, k, m)
                    count = len(list(compositions(triad.arc_count, m)))
                    if dimension(triad) != count:
                        return f"triad {triad}"
    return None


def _check_delta_pairing() -> str | None:
    for triad in (SurfaceTriad(0, 3, 0, 2), SurfaceTriad(1, 2, 1, 2)):
        matrix = delta_pairing(triad, "in")
        if matrix.entries != identity(matrix.ring, dimension(triad)):
            return f"triad {triad}"
    return None


def _check_geometric_pairing() -> str | None:
    for triad in (SurfaceTriad(0, 2, 1, 2), SurfaceTriad(0, 3, 0, 3)):
        system = standard_local_system(triad.points)
        matrix = geometric_pairing_matrix(triad, "in", system)
        comps = list(compositions(triad.arc_count, triad.points))
        for a, e in enumerate(comps):
            for b, f in enumerate(comps):
                if matrix.entries[a][b] != closed_form_pairing(e, f, system.u):
                    return f"triad {triad}, e={e}, f={f}"
    return None


def _check_embedding_diagonal() -> str | None:
    # The geometric pairing enumerates bijections: it shares no code with the factorials.
    triad = SurfaceTriad(0, 3, 0, 2)
    system = standard_local_system(2)
    embedding = embedding_matrix(triad, "in", system)
    pairing = geometric_pairing_matrix(triad, "in", system).entries
    for i, (e, entry) in enumerate(zip(embedding.compositions, embedding.diagonal)):
        if entry != pairing[i][i]:
            return f"e={e}"
    flat = SurfaceTriad(0, 4, 1, 1)
    if not embedding_matrix(flat, "in", standard_local_system(1)).is_identity():
        return "m=1 not the identity"
    return None


def _check_braid_relations() -> str | None:
    for m in (1, 2):
        for n in range(2, 5):
            if not braid_relations_hold(n, m):
                return f"n={n}, m={m}"
    return None


def _check_word_inverse() -> str | None:
    rng = random.Random(11)
    for m in (1, 2):
        for _ in range(5):
            letters = tuple(
                rng.choice([i for i in range(-3, 4) if i != 0]) for _ in range(6)
            )
            word = BraidWord(4, letters)
            product = evaluate_word(word * word.inverse(), m)
            if product.entries != identity(product.ring, product.size):
                return f"m={m}, word={letters}"
    return None


def _check_dual_pairing() -> str | None:
    for m in (1, 2):
        for letters in ((1, 2), (2, -1, 1), (-2, -2, 1)):
            word = BraidWord(3, letters)
            rho = evaluate_word(word, m)
            dual = dual_representation(word, m)
            twisted = transpose(mat_alpha(rho.entries))
            if mat_mul(twisted, dual.entries) != identity(rho.ring, rho.size):
                return f"m={m}, word={letters}"
    return None


def _check_conjugation_integrality() -> str | None:
    for n in range(2, 5):
        certificate = diagonal_conjugation_integrality(n)
        if not certificate:
            return f"n={n}, generator {certificate.generator}, entry {certificate.position}"
    return None


def _check_circle_cohomology() -> str | None:
    ring = LaurentRing(1, Integers(), ("x",))
    x = ring.var("x")
    cases = [x, -x, x ** 2, ring.one, -ring.one]
    for monodromy in cases:
        _, h1 = circle_cohomology(monodromy)
        if h1.is_zero() != (ring.one - monodromy).is_unit():
            return f"monodromy {monodromy}"
    return None


def _check_shapiro() -> str | None:
    rings = [Integers(), Rationals(), IntegersModP(2), IntegersModP(3), IntegersModP(5)]
    for k in rings:
        if not shapiro_circle_check(k).matches:
            return f"universal cover over {k.name}"
        if not shapiro_double_cover_check(k).matches:
            return f"double cover over {k.name}"
    return None


def _check_helix() -> str | None:
    triad = SurfaceTriad(0, 2, 0, 1)
    ring = LaurentRing(2, Integers(), ("y", "z"))
    y, z = ring.var("y"), ring.var("z")
    element = helix_class(triad, (1,), (1, 0), (0, 1), ring).entries[0]
    window = 8
    partial = ring.zero
    for i in range(-window, window + 1):
        partial = partial + (ring.one - y) * (y * z) ** i
    for g1 in range(-(window - 1), window):
        for g2 in range(-(window - 1), window):
            if element.coefficient_at((g1, g2)) != partial.coefficient((g1, g2)):
                return f"coefficient at ({g1},{g2})"
    if is_in_group_ring(element):
        return "helix claimed to be in the group ring"
    left = left_circle_helix(triad, ring)
    if not all(equal(entry, include_group_ring(ring.zero)) for entry in left.entries):
        return "left circle not zero"
    return None


def _check_inclusion_module_map() -> str | None:
    ring = LaurentRing(2, Integers(), ("y", "z"))
    rng = random.Random(7)

    def sample():
        element = ring.zero
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(-3, 3), rng.randint(-3, 3))
            element = element + ring.monomial(exps, rng.randint(-4, 4))
        return element

    for trial in range(25):
        r, a = sample(), sample()
        if not equal(include_group_ring(r * a), module_action(r, include_group_ring(a))):
            return f"trial {trial}"
    return None


CHECKS = (
    ("quantum-factorial-vs-inversions", _check_quantum_factorial),
    ("dimension-vs-enumeration", _check_dimension),
    ("delta-pairing-identity", _check_delta_pairing),
    ("geometric-vs-closed-form", _check_geometric_pairing),
    ("embedding-diagonal", _check_embedding_diagonal),
    ("braid-relations", _check_braid_relations),
    ("word-times-inverse", _check_word_inverse),
    ("dual-pairing-invariance", _check_dual_pairing),
    ("conjugation-integrality", _check_conjugation_integrality),
    ("circle-h1-vanishing", _check_circle_cohomology),
    ("shapiro-small-instances", _check_shapiro),
    ("helix-class", _check_helix),
    ("inclusion-module-map", _check_inclusion_module_map),
)
