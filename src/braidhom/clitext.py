"""The flag readers and `emit`, the one output path, shared by `cli` and `commands`.

A reader refuses a value with ValueError, which `cli.main` prints as one line.
"""

from __future__ import annotations

import json
from math import isfinite


def parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def parse_value(text: str):
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


def parse_assignments(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"assignments look like x=2,d=-1, got {text!r}")
        out[name.strip()] = parse_value(value.strip())
    return out


def field_for(values) -> Rationals | ComplexApprox:
    from fractions import Fraction

    from .fields import ComplexApprox, Rationals

    if all(isinstance(v, Fraction) for v in values):
        return Rationals()
    return ComplexApprox()


def value_str(field, value) -> str:
    value = field.coerce(value)
    if not field.is_exact and not (isfinite(value.real) and isfinite(value.imag)):
        raise ValueError(f"a specialized value is not finite: {value!r}")
    return field.to_str(value)


def emit(fmt: str, payload: dict, lines=None, cells=None):
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
