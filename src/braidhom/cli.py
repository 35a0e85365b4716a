"""Command-line surface over the library.

One subcommand per capability: bases, pairings, embeddings, representation
matrices, genericity checks, homology ranks, helix classes, and the condensed
self-verification suite of `braidhom.checks`.  `SUBCOMMANDS` holds each one's
help, handler and flags; a call builds only the flags it can parse.  Handlers
hand their results to `_emit`, the one output path: json (default), latex for
matrix results, or plain text; identical configuration gives identical bytes.
Diagnostics go to stderr with a nonzero exit status; status 0 means none.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isfinite

# Only what `rep` needs is imported here; every other subcommand imports its
# own modules, so a cold `braidhom rep` never loads them.
from .braid import BraidWord, evaluate_word
from .ring import matrix_text

FORMATS = ("json", "latex", "text")


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


# Flags whose value may begin with "-".  argparse takes a token such as -1/2,
# -inf or -1,2 for a flag unless it is a plain negative number like -1 or -0.5.
DASHED_VALUE_FLAGS = frozenset({"--theta-x", "--theta-d", "--word", "--surface", "--e", "--y",
                                "--z"})


def _attach_dashed_values(argv: list[str]) -> list[str]:
    """`--theta-x -1/2` as `--theta-x=-1/2`, for the flags of DASHED_VALUE_FLAGS."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in DASHED_VALUE_FLAGS and token.startswith("-")
                and not token.startswith("--") and token != "-h"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_surface(args) -> SurfaceTriad:
    from .surfaces import SurfaceTriad

    parts = _parse_ints(args.surface, "--surface")
    if len(parts) != 3:
        raise ValueError(f"--surface expects g,n,k, got {args.surface!r}")
    return SurfaceTriad(parts[0], parts[1], parts[2], args.m)


def _parse_value(text: str):
    from fractions import Fraction

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
    from fractions import Fraction

    from .fields import ComplexApprox, Rationals

    if all(isinstance(v, Fraction) for v in values):
        return Rationals()
    return ComplexApprox()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _emit(fmt: str, payload: dict, lines=None, cells=None):
    """Print the payload as sorted-key json, or as text `lines` or matrix `cells`.

    Text prefers `lines` and aligns `cells` in columns; latex needs `cells`.
    """
    if fmt == "json":
        print(json.dumps({"schema": 1, **payload}, sort_keys=True))
    elif fmt == "text" and lines is not None:
        for line in lines:
            print(line)
    elif cells is None:
        raise ValueError("latex output is only available for matrix subcommands")
    elif fmt == "latex":
        body = " \\\\\n".join(" & ".join(row) for row in cells)
        print("\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}")
    else:
        widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
        for row in cells:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _surface_fields(triad) -> dict:
    g, n, k = triad.genus, triad.inner_circles, triad.outer_intervals
    return {"surface": [g, n, k], "m": triad.points}


def _value_str(field, value) -> str:
    value = field.coerce(value)
    if not field.is_exact and not (isfinite(value.real) and isfinite(value.imag)):
        raise ValueError(f"a specialized value is not finite: {value!r}")
    return field.to_str(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_basis(args) -> int:
    from .surfaces import basis, dimension

    triad = _parse_surface(args)
    classes = basis(triad, args.side, args.flavour)
    records = [{"composition": list(c.composition), "label": str(c)} for c in classes]
    payload = {**_surface_fields(triad), "side": args.side, "flavour": args.flavour,
               "dimension": dimension(triad), "classes": records}
    _emit(args.format, payload, lines=[str(c) for c in classes])
    return 0


def _cmd_pairing(args) -> int:
    from .pairing import delta_pairing, geometric_pairing_matrix
    from .surfaces import standard_local_system

    triad = _parse_surface(args)
    if args.geometric:
        matrix = geometric_pairing_matrix(triad, args.side, standard_local_system(args.m))
        kind = "geometric"
    else:
        matrix = delta_pairing(triad, args.side)
        kind = "delta"
    cells = matrix_text(matrix.entries)
    payload = {**_surface_fields(triad), "side": args.side, "kind": kind, "rows": cells}
    _emit(args.format, payload, cells=cells)
    return 0


def _cmd_embed(args) -> int:
    from .embeddings import embedding_matrix
    from .ring import LaurentRing, LocalSystem, standard_local_system

    triad = _parse_surface(args)
    if args.specialize is None:
        embedding = embedding_matrix(triad, args.direction, standard_local_system(args.m))
        (diagonal,) = matrix_text([embedding.diagonal])
    else:
        assignments = _parse_assignments(args.specialize)
        if set(assignments) != {"u"}:
            raise ValueError("embed specializes the swap unit only: --specialize u=VALUE")
        field = _field_for(assignments.values())
        u = LaurentRing(0, field).scalar(assignments["u"])
        if field.is_zero(u.coefficient(())):
            raise ValueError(f"the swap unit must be a unit, got u={assignments['u']}")
        embedding = embedding_matrix(triad, args.direction, LocalSystem(u.ring, u))
        diagonal = [_value_str(field, entry.coefficient(())) for entry in embedding.diagonal]
    payload = {**_surface_fields(triad), "direction": args.direction, "diagonal": diagonal}
    # Each format builds only what it prints: text a line per entry, latex the d x d matrix.
    lines = [f"{','.join(map(str, e))}: {entry}" for e, entry in
             zip(embedding.compositions, diagonal)] if args.format == "text" else None
    cells = [[entry if r == c else "0" for c in range(len(diagonal))]
             for r, entry in enumerate(diagonal)] if args.format == "latex" else None
    _emit(args.format, payload, lines, cells)
    return 0


def _cmd_rep(args) -> int:
    letters = _parse_ints(args.word, "--word") if args.word else ()
    word = BraidWord(args.n, letters)
    matrix = evaluate_word(word, args.m)
    if args.specialize is None:
        cells = matrix_text(matrix.entries)
    else:
        from .fields import specialize_matrix

        assignments = _parse_assignments(args.specialize)
        field = _field_for(assignments.values())
        values = specialize_matrix(matrix.entries, assignments, field)
        cells = [[_value_str(field, v) for v in row] for row in values]
    # The word is deliberately not echoed: words equal in the braid group give
    # equal matrices, hence the same bytes unspecialized and at exact points.
    # At a complex point the bytes may differ in the last digit, since each
    # entry is summed in its term order, which equal words need not share.
    payload = {"n": args.n, "m": args.m, "convention": matrix.convention, "rows": cells}
    _emit(args.format, payload, cells=cells)
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
    theta = {name: _value_str(field, value) for name, value in sorted(assignments.items())}
    payload = {"m": args.m, "theta": theta, "generic": verdict}
    _emit(args.format, payload, lines=["generic" if verdict else "not generic"])
    return 0


def _cmd_homology(args) -> int:
    from .fields import Rationals
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
    at = {name: _value_str(field, value) for name, value in sorted(assignments.items())}
    payload = {"direction": cpx.direction, "at": at, "ranks": list(ranks)}
    _emit(args.format, payload, lines=["ranks: " + " ".join(str(r) for r in ranks)])
    return 0


def _cmd_helix(args) -> int:
    from .completion import completed_to_json, helix_class, is_in_group_ring
    from .compositions import rank

    triad = _parse_surface(args)
    e = _parse_ints(args.e, "--e")
    y = _parse_ints(args.y, "--y")
    z = _parse_ints(args.z, "--z")
    vector = helix_class(triad, e, y, z)
    coordinate = vector.entries[rank(e)]
    membership = is_in_group_ring(coordinate)
    payload = {**_surface_fields(triad), "e": list(e),
               "coordinate": completed_to_json(coordinate), "in_group_ring": membership}
    lines = [
        f"ray: base {list(ray.base)} step {list(ray.step)} "
        f"pattern {list(ray.pattern)} ({ray.direction})"
        for ray in coordinate.rays
    ]
    lines.append(f"in group ring: {'yes' if membership else 'no'}")
    _emit(args.format, payload, lines=lines)
    return 0


def _cmd_verify(args) -> int:
    from .checks import CHECKS

    failures = 0
    for name, check in CHECKS:
        counterexample = check()
        failures += counterexample is not None
        print(f"ok   {name}" if counterexample is None else f"FAIL {name}: {counterexample}")
    total = len(CHECKS)
    print(f"{total - failures}/{total} checks passed")
    if failures:
        print(f"error: {failures} verification checks failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


SURFACE_FLAGS = (("--surface", {"required": True, "metavar": "g,n,k"}),
                 ("--m", {"type": int, "required": True}))
SIDE_FLAGS = (("--side", {"choices": ("in", "out"), "default": "in"}),)
FORMAT_FLAGS = (("--format", {"choices": FORMATS, "default": "json"}),)

# name -> (help, handler, flags); flags are (flag, add_argument kwargs) in help order.
SUBCOMMANDS = {
    "basis": ("list the basis classes of one side", _cmd_basis, SURFACE_FLAGS + SIDE_FLAGS + (
        ("--flavour", {"choices": ("relative", "locally_finite", "lf_image"),
                       "default": "relative"}),) + FORMAT_FLAGS),
    "pairing": ("intersection pairing matrix", _cmd_pairing, SURFACE_FLAGS + SIDE_FLAGS + (
        ("--geometric", {"action": "store_true"}),) + FORMAT_FLAGS),
    "embed": ("diagonal of the module embedding", _cmd_embed, SURFACE_FLAGS + (
        ("--direction", {"choices": ("in", "out"), "default": "in"}),
        ("--specialize", {"metavar": "u=VALUE"})) + FORMAT_FLAGS),
    "rep": ("braid representation matrix of a word", _cmd_rep, (
        ("--n", {"type": int, "required": True}),
        ("--m", {"type": int, "choices": (1, 2), "required": True}),
        ("--word", {"default": "", "metavar": "1,2,-1"}),
        ("--specialize", {"metavar": "x=...,d=..."})) + FORMAT_FLAGS),
    "generic-check": ("is a specialized system generic", _cmd_generic_check, (
        ("--theta-x", {"required": True, "metavar": "V"}),
        ("--theta-d", {"metavar": "W"}),
        ("--m", {"type": int, "required": True})) + FORMAT_FLAGS),
    "homology": ("homology ranks of a serialized complex", _cmd_homology, (
        ("--complex", {"required": True, "metavar": "FILE.json"}),
        ("--at", {"metavar": "x=...,d=..."})) + FORMAT_FLAGS),
    "helix": ("helix class of an embedded torus", _cmd_helix, SURFACE_FLAGS + (
        ("--e", {"required": True, "metavar": "COMPOSITION"}),
        ("--y", {"required": True, "metavar": "VECTOR"}),
        ("--z", {"required": True, "metavar": "VECTOR"})) + FORMAT_FLAGS),
    "verify": ("run the condensed invariant suite", _cmd_verify, ()),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """Every subcommand with its help, and flags for the invoked one only: no top-level
    option takes a value, so that is the first token of `argv` not starting with "-"."""
    invoked = next((token for token in argv if not token.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="braidhom", description="Exact computations with homological braid representations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag, kwargs in flags if name == invoked else ():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = _attach_dashed_values(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv).parse_args(argv)
    try:
        # Before Python 3.13 argparse reads the value of `--flag=--` as an empty list.
        if empty := [name for name, value in vars(args).items() if value == []]:
            raise ValueError(f"--{empty[0].replace('_', '-')} cannot take the value '--'")
        return args.handler(args)
    except (ValueError, OSError, ArithmeticError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
