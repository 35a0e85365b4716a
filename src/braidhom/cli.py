"""Command-line surface over the library.

One subcommand per capability: bases, pairings, embeddings, representation
matrices, genericity checks, homology ranks, helix classes, and a condensed
self-verification suite.  Output goes to stdout in json (default), latex, or
plain text; identical configuration produces byte-identical output.  All
diagnostics go to stderr with a nonzero exit status, and exit status 0 means
none were emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import isfinite

# Only what `rep` needs is imported here; every other subcommand imports its
# own modules, so a cold `braidhom rep` never loads them.
from .braid import BraidWord, evaluate_word
from .linalg import specialize_matrix
from .ring import ComplexApprox, Rationals

FORMATS = ("json", "latex", "text")


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_surface(text: str, m: int) -> SurfaceTriad:
    from .surfaces import SurfaceTriad

    parts = _parse_ints(text, "--surface")
    if len(parts) != 3:
        raise ValueError(f"--surface expects g,n,k, got {text!r}")
    return SurfaceTriad(parts[0], parts[1], parts[2], m)


def _parse_value(text: str):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        value = complex(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}")
    if not (isfinite(value.real) and isfinite(value.imag)):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_assignments(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"assignments look like x=2,d=-1, got {text!r}")
        out[name.strip()] = _parse_value(value.strip())
    return out


def _field_for(values) -> Rationals | ComplexApprox:
    if all(isinstance(v, Fraction) for v in values):
        return Rationals()
    return ComplexApprox()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit_json(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def _emit_cells(cells: list[list[str]], fmt: str):
    if fmt == "latex":
        body = " \\\\\n".join(" & ".join(row) for row in cells)
        print("\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}")
        return
    widths = [
        max(len(cells[r][c]) for r in range(len(cells)))
        for c in range(len(cells[0]))
    ]
    for row in cells:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _matrix_cells(entries) -> list[list[str]]:
    return [[e.to_text() for e in row] for row in entries]


def _value_str(field, value) -> str:
    return field.to_str(field.coerce(value))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_basis(args) -> int:
    from .surfaces import basis, dimension

    triad = _parse_surface(args.surface, args.m)
    classes = basis(triad, args.side, args.flavour)
    if args.format == "latex":
        raise ValueError("latex output is only available for matrix subcommands")
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "surface": [triad.genus, triad.inner_circles, triad.outer_intervals],
                "m": triad.points,
                "side": args.side,
                "flavour": args.flavour,
                "dimension": dimension(triad),
                "classes": [
                    {"composition": list(c.composition), "label": str(c)}
                    for c in classes
                ],
            }
        )
    else:
        for c in classes:
            print(str(c))
    return 0


def _cmd_pairing(args) -> int:
    from .pairing import delta_pairing, geometric_pairing_matrix
    from .surfaces import standard_local_system

    triad = _parse_surface(args.surface, args.m)
    if args.geometric:
        matrix = geometric_pairing_matrix(triad, args.side, standard_local_system(args.m))
        kind = "geometric"
    else:
        matrix = delta_pairing(triad, args.side)
        kind = "delta"
    cells = _matrix_cells(matrix.entries)
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "surface": [triad.genus, triad.inner_circles, triad.outer_intervals],
                "m": triad.points,
                "side": args.side,
                "kind": kind,
                "rows": cells,
            }
        )
    else:
        _emit_cells(cells, args.format)
    return 0


def _cmd_embed(args) -> int:
    from .compositions import compositions
    from .embeddings import embedding_matrix
    from .ring import LaurentRing, quantum_factorial
    from .surfaces import standard_local_system

    triad = _parse_surface(args.surface, args.m)
    system = standard_local_system(args.m)
    embedding = embedding_matrix(triad, args.direction, system)
    if args.specialize is None:
        diagonal = [entry.to_text() for entry in embedding.diagonal]
    else:
        assignments = _parse_assignments(args.specialize)
        if set(assignments) != {"u"}:
            raise ValueError("embed specializes the swap unit only: --specialize u=VALUE")
        field = _field_for(assignments.values())
        scalars = LaurentRing(0, field)
        u = scalars.scalar(assignments["u"])
        diagonal = []
        for e in compositions(triad.arc_count, triad.points):
            value = scalars.one
            for part in e:
                value = value * quantum_factorial(part, u)
            diagonal.append(_value_str(field, value.coefficient(())))
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "surface": [triad.genus, triad.inner_circles, triad.outer_intervals],
                "m": triad.points,
                "direction": args.direction,
                "diagonal": diagonal,
            }
        )
    elif args.format == "latex":
        size = len(diagonal)
        cells = [
            [diagonal[r] if r == c else "0" for c in range(size)] for r in range(size)
        ]
        _emit_cells(cells, "latex")
    else:
        for e, entry in zip(compositions(triad.arc_count, triad.points), diagonal):
            print(f"{','.join(str(p) for p in e)}: {entry}")
    return 0


def _cmd_rep(args) -> int:
    letters = _parse_ints(args.word, "--word") if args.word else ()
    word = BraidWord(args.n, letters)
    matrix = evaluate_word(word, args.m)
    if args.specialize is None:
        cells = _matrix_cells(matrix.entries)
    else:
        assignments = _parse_assignments(args.specialize)
        field = _field_for(assignments.values())
        values = specialize_matrix(matrix.entries, assignments, field)
        cells = [[_value_str(field, v) for v in row] for row in values]
    if args.format == "json":
        # The word is deliberately not echoed: words equal in the braid group
        # must produce byte-identical output.
        _emit_json(
            {
                "schema": 1,
                "n": args.n,
                "m": args.m,
                "convention": matrix.convention,
                "rows": cells,
            }
        )
    else:
        _emit_cells(cells, args.format)
    return 0


def _cmd_generic_check(args) -> int:
    from .braid import disc_triad
    from .homology import SpecializationPoint, genericity_check
    from .surfaces import standard_local_system

    triad = disc_triad(2, args.m)
    system = standard_local_system(args.m)
    assignments = {"x": _parse_value(args.theta_x)}
    if args.m >= 2:
        if args.theta_d is None:
            raise ValueError("--theta-d is required when m >= 2")
        assignments["d"] = _parse_value(args.theta_d)
    field = _field_for(assignments.values())
    point = SpecializationPoint(assignments, field)
    verdict = genericity_check(triad, system, point)
    if args.format == "latex":
        raise ValueError("latex output is only available for matrix subcommands")
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "m": args.m,
                "theta": {
                    name: _value_str(field, value)
                    for name, value in sorted(assignments.items())
                },
                "generic": verdict,
            }
        )
    else:
        print("generic" if verdict else "not generic")
    return 0


def _cmd_homology(args) -> int:
    from .homology import SpecializationPoint, complex_from_json, homology_ranks_at

    with open(args.complex, encoding="utf-8") as handle:
        data = json.load(handle)
    cpx = complex_from_json(data)
    assignments = _parse_assignments(args.at) if args.at else {}
    missing = set(cpx.ring.variables) - set(assignments)
    if missing:
        raise ValueError(f"--at must assign {sorted(missing)}")
    unknown = set(assignments) - set(cpx.ring.variables)
    if unknown:
        raise ValueError(f"--at assigns {sorted(unknown)}, which the complex does not have")
    field = _field_for(assignments.values()) if assignments else Rationals()
    point = SpecializationPoint(assignments, field)
    ranks = homology_ranks_at(cpx, point)
    if args.format == "latex":
        raise ValueError("latex output is only available for matrix subcommands")
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "direction": cpx.direction,
                "at": {
                    name: _value_str(field, value)
                    for name, value in sorted(assignments.items())
                },
                "ranks": list(ranks),
            }
        )
    else:
        print("ranks: " + " ".join(str(r) for r in ranks))
    return 0


def _cmd_helix(args) -> int:
    from .completion import completed_to_json, helix_class, is_in_group_ring
    from .compositions import compositions

    triad = _parse_surface(args.surface, args.m)
    e = _parse_ints(args.e, "--e")
    y = _parse_ints(args.y, "--y")
    z = _parse_ints(args.z, "--z")
    vector = helix_class(triad, e, y, z)
    coordinate = vector.entries[list(compositions(triad.arc_count, triad.points)).index(e)]
    membership = is_in_group_ring(coordinate)
    if args.format == "latex":
        raise ValueError("latex output is only available for matrix subcommands")
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "surface": [triad.genus, triad.inner_circles, triad.outer_intervals],
                "m": triad.points,
                "e": list(e),
                "coordinate": completed_to_json(coordinate),
                "in_group_ring": membership,
            }
        )
    else:
        for ray in coordinate.rays:
            print(
                f"ray: base {list(ray.base)} step {list(ray.step)} "
                f"pattern {list(ray.pattern)} ({ray.direction})"
            )
        print(f"in group ring: {'yes' if membership else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# the condensed verification suite
# ---------------------------------------------------------------------------


def _check_quantum_factorial() -> str | None:
    from .pairing import local_intersection_sum
    from .ring import Integers, LaurentRing, quantum_factorial

    u = LaurentRing(1, Integers(), ("u",)).var("u")
    for r in range(6):
        if quantum_factorial(r, u) != local_intersection_sum(r, u):
            return f"r={r}"
    return None


def _check_dimension() -> str | None:
    from .compositions import compositions
    from .surfaces import SurfaceTriad, dimension

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
    from .linalg import identity
    from .pairing import delta_pairing
    from .surfaces import SurfaceTriad, dimension

    for triad in (SurfaceTriad(0, 3, 0, 2), SurfaceTriad(1, 2, 1, 2)):
        matrix = delta_pairing(triad, "in")
        if matrix.entries != identity(matrix.ring, dimension(triad)):
            return f"triad {triad}"
    return None


def _check_geometric_pairing() -> str | None:
    from .compositions import compositions
    from .pairing import closed_form_pairing, geometric_pairing_matrix
    from .surfaces import SurfaceTriad, standard_local_system

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
    from .compositions import compositions
    from .embeddings import embedding_matrix
    from .ring import quantum_factorial
    from .surfaces import SurfaceTriad, standard_local_system

    triad = SurfaceTriad(0, 3, 0, 2)
    system = standard_local_system(2)
    embedding = embedding_matrix(triad, "in", system)
    for e, entry in zip(compositions(triad.arc_count, 2), embedding.diagonal):
        expected = system.ring.one
        for part in e:
            expected = expected * quantum_factorial(part, system.u)
        if entry != expected:
            return f"e={e}"
    flat = SurfaceTriad(0, 4, 1, 1)
    if not embedding_matrix(flat, "in", standard_local_system(1)).is_identity():
        return "m=1 not the identity"
    return None


def _check_braid_relations() -> str | None:
    from .braid import braid_relations_hold

    for m in (1, 2):
        for n in range(2, 5):
            if not braid_relations_hold(n, m):
                return f"n={n}, m={m}"
    return None


def _check_word_inverse() -> str | None:
    import random

    from .linalg import identity

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
    from .braid import dual_representation
    from .linalg import identity, mat_mul, transpose

    for m in (1, 2):
        for letters in ((1, 2), (2, -1, 1), (-2, -2, 1)):
            word = BraidWord(3, letters)
            rho = evaluate_word(word, m)
            dual = dual_representation(word, m)
            twisted = transpose(tuple(tuple(x.alpha() for x in row) for row in rho.entries))
            if mat_mul(twisted, dual.entries) != identity(rho.ring, rho.size):
                return f"m={m}, word={letters}"
    return None


def _check_conjugation_integrality() -> str | None:
    from .braid import diagonal_conjugation_integrality

    for n in range(2, 5):
        certificate = diagonal_conjugation_integrality(n)
        if not certificate:
            return f"n={n}, generator {certificate.generator}, entry {certificate.position}"
    return None


def _check_circle_cohomology() -> str | None:
    from .homology import circle_cohomology
    from .ring import Integers, LaurentRing

    ring = LaurentRing(1, Integers(), ("x",))
    x = ring.var("x")
    cases = [x, -x, x ** 2, ring.one, -ring.one]
    for monodromy in cases:
        _, h1 = circle_cohomology(monodromy)
        if h1.is_zero() != (ring.one - monodromy).is_unit():
            return f"monodromy {monodromy}"
    return None


def _check_shapiro() -> str | None:
    from .homology import shapiro_circle_check, shapiro_double_cover_check
    from .ring import Integers, IntegersModP

    rings = [Integers(), Rationals(), IntegersModP(2), IntegersModP(3), IntegersModP(5)]
    for k in rings:
        if not shapiro_circle_check(k).matches:
            return f"universal cover over {k.name}"
        if not shapiro_double_cover_check(k).matches:
            return f"double cover over {k.name}"
    return None


def _check_helix() -> str | None:
    from .completion import (equal, helix_class, include_group_ring, is_in_group_ring,
                             left_circle_helix)
    from .ring import Integers, LaurentRing
    from .surfaces import SurfaceTriad

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
    import random

    from .completion import equal, include_group_ring, module_action
    from .ring import Integers, LaurentRing

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


_VERIFY_CHECKS = (
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


def _cmd_verify(args) -> int:
    failures = 0
    for name, check in _VERIFY_CHECKS:
        counterexample = check()
        if counterexample is None:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {counterexample}")
    total = len(_VERIFY_CHECKS)
    print(f"{total - failures}/{total} checks passed")
    if failures:
        print(f"error: {failures} verification checks failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidhom",
        description="Exact computations with homological braid representations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="json")

    p = sub.add_parser("basis", help="list the basis classes of one side")
    p.add_argument("--surface", required=True, metavar="g,n,k")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--side", choices=("in", "out"), default="in")
    p.add_argument(
        "--flavour", choices=("relative", "locally_finite", "lf_image"), default="relative"
    )
    add_format(p)
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("pairing", help="intersection pairing matrix")
    p.add_argument("--surface", required=True, metavar="g,n,k")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--side", choices=("in", "out"), default="in")
    p.add_argument("--geometric", action="store_true")
    add_format(p)
    p.set_defaults(handler=_cmd_pairing)

    p = sub.add_parser("embed", help="diagonal of the module embedding")
    p.add_argument("--surface", required=True, metavar="g,n,k")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--direction", choices=("in", "out"), default="in")
    p.add_argument("--specialize", metavar="u=VALUE")
    add_format(p)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("rep", help="braid representation matrix of a word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, choices=(1, 2), required=True)
    p.add_argument("--word", default="", metavar="1,2,-1")
    p.add_argument("--specialize", metavar="x=...,d=...")
    add_format(p)
    p.set_defaults(handler=_cmd_rep)

    p = sub.add_parser("generic-check", help="is a specialized system generic")
    p.add_argument("--theta-x", required=True, metavar="V")
    p.add_argument("--theta-d", metavar="W")
    p.add_argument("--m", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_generic_check)

    p = sub.add_parser("homology", help="homology ranks of a serialized complex")
    p.add_argument("--complex", required=True, metavar="FILE.json")
    p.add_argument("--at", metavar="x=...,d=...")
    add_format(p)
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("helix", help="helix class of an embedded torus")
    p.add_argument("--surface", required=True, metavar="g,n,k")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", required=True, metavar="COMPOSITION")
    p.add_argument("--y", required=True, metavar="VECTOR")
    p.add_argument("--z", required=True, metavar="VECTOR")
    add_format(p)
    p.set_defaults(handler=_cmd_helix)

    p = sub.add_parser("verify", help="run the condensed invariant suite")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, ArithmeticError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
