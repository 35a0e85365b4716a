"""Command-line surface over the library.

One subcommand per capability: bases, pairings, embeddings, representation
matrices, genericity checks, homology ranks, helix classes, and the condensed
self-verification suite of `braidhom.checks`.  `SUBCOMMANDS` holds each one's
help, handler and flags.  Handlers hand their results to `clitext.emit`, the
one output path: json (default), latex for matrix results, or plain text;
identical configuration gives identical bytes.  Diagnostics go to stderr with a
nonzero exit status; status 0 means none.

Imports.  A call compiles only what it runs: the other seven handlers live in
`commands`, imported only when one of them is invoked.  So a cold `braidhom rep`
loads this module, `clitext`, `braid`, `ring`, `compositions` and `values`.
"""

from __future__ import annotations

import argparse
import sys

from .braid import BraidWord, evaluate_word
from .clitext import emit, field_for, parse_assignments, parse_ints, value_str
from .ring import matrix_text

FORMATS = ("json", "latex", "text")


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


def _cmd_rep(args) -> int:
    letters = parse_ints(args.word, "--word") if args.word else ()
    word = BraidWord(args.n, letters)
    matrix = evaluate_word(word, args.m)
    if args.specialize is None:
        cells = matrix_text(matrix.entries)
    else:
        from .fields import specialize_matrix

        assignments = parse_assignments(args.specialize)
        field = field_for(assignments.values())
        values = specialize_matrix(matrix.entries, assignments, field)
        cells = [[value_str(field, v) for v in row] for row in values]
    # The word is deliberately not echoed: words equal in the braid group give
    # equal matrices, hence the same bytes unspecialized and at exact points.
    # At a complex point the bytes may differ in the last digit, since each
    # entry is summed in its term order, which equal words need not share.
    payload = {"n": args.n, "m": args.m, "convention": matrix.convention, "rows": cells}
    emit(args.format, payload, cells=cells)
    return 0


def _lazy(name: str):
    """The handler `_cmd_<name>` of `commands`, which is imported when it is called."""
    def handler(args) -> int:
        from . import commands

        return getattr(commands, "_cmd_" + name)(args)
    return handler


SURFACE_FLAGS = (("--surface", {"required": True, "metavar": "g,n,k"}),
                 ("--m", {"type": int, "required": True}))
SIDE_FLAGS = (("--side", {"choices": ("in", "out"), "default": "in"}),)
FORMAT_FLAGS = (("--format", {"choices": FORMATS, "default": "json"}),)

# name -> (help, handler, flags); flags are (flag, add_argument kwargs) in help order.
SUBCOMMANDS = {
    "basis": ("list the basis classes of one side", _lazy("basis"), SURFACE_FLAGS + SIDE_FLAGS + (
        ("--flavour", {"choices": ("relative", "locally_finite", "lf_image"),
                       "default": "relative"}),) + FORMAT_FLAGS),
    "pairing": ("intersection pairing matrix", _lazy("pairing"), SURFACE_FLAGS + SIDE_FLAGS + (
        ("--geometric", {"action": "store_true"}),) + FORMAT_FLAGS),
    "embed": ("diagonal of the module embedding", _lazy("embed"), SURFACE_FLAGS + (
        ("--direction", {"choices": ("in", "out"), "default": "in"}),
        ("--specialize", {"metavar": "u=VALUE"})) + FORMAT_FLAGS),
    "rep": ("braid representation matrix of a word", _cmd_rep, (
        ("--n", {"type": int, "required": True}),
        ("--m", {"type": int, "choices": (1, 2), "required": True}),
        ("--word", {"default": "", "metavar": "1,2,-1"}),
        ("--specialize", {"metavar": "x=...,d=..."})) + FORMAT_FLAGS),
    "generic-check": ("is a specialized system generic", _lazy("generic_check"), (
        ("--theta-x", {"required": True, "metavar": "V"}),
        ("--theta-d", {"metavar": "W"}),
        ("--m", {"type": int, "required": True})) + FORMAT_FLAGS),
    "homology": ("homology ranks of a serialized complex", _lazy("homology"), (
        ("--complex", {"required": True, "metavar": "FILE.json"}),
        ("--at", {"metavar": "x=...,d=..."})) + FORMAT_FLAGS),
    "helix": ("helix class of an embedded torus", _lazy("helix"), SURFACE_FLAGS + (
        ("--e", {"required": True, "metavar": "COMPOSITION"}),
        ("--y", {"required": True, "metavar": "VECTOR"}),
        ("--z", {"required": True, "metavar": "VECTOR"})) + FORMAT_FLAGS),
    "verify": ("run the condensed invariant suite", _lazy("verify"), ()),
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
