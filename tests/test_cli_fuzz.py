"""A bounded fuzz property over the command line: every call ends in one of three ways.

A subcommand and a subset of its flags are drawn from `cli.SUBCOMMANDS`; values
come from small pools of edge cases (zero, negatives, nan, inf, empty, malformed
text, a leading "-", 1/0, missing or malformed files).  Sizes stay small
(--n <= 5, --m <= 4, surface parts <= 3), so no call can start super-polynomial
work, and each must finish within 5 s.
"""

import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhom import cli
from braidhom.homology import circle_complex, complex_to_json
from braidhom.ring import Integers, LaurentRing

EDGE = ["", "0", "-1", "nan", "inf", "-inf", "1/0", "x", "1,,2", "-x", "--", "=", " "]
NUMBERS = ["0", "1", "2", "-1", "-3", "1/2", "-1/2", "0.5+0.5j", "1e400", "nan", "inf",
           "-inf", "1/0", "", "abc", "-"]


def _mostly(good, bad):
    """`good` three times in four, else `bad`."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


def _ints(low, high):
    return st.integers(low, high).map(str)


def _int_lists(low, high, min_size, max_size):
    return st.lists(st.integers(low, high), min_size=min_size, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


def _assignments(names):
    pair = st.tuples(st.sampled_from(names), st.sampled_from(NUMBERS)).map("=".join)
    return st.lists(pair, min_size=1, max_size=3).map(",".join)


# Values for each flag that takes one: plausible ones, then malformed ones of the same shape.
VALUES = {
    "--n": (_ints(2, 5), _ints(-2, 1)),
    "--m": (_ints(1, 4), _ints(-2, 0)),
    "--surface": (_int_lists(0, 3, 3, 3), _int_lists(-1, 3, 0, 4)),
    "--word": (_int_lists(-4, 4, 0, 6), _int_lists(-6, 6, 1, 6)),
    "--specialize": (_assignments(["x", "d", "u"]), _assignments(["x", "y", "="])),
    "--at": (_assignments(["x"]), _assignments(["x", "d", ""])),
    "--theta-x": (st.sampled_from(NUMBERS), st.sampled_from(EDGE)),
    "--theta-d": (st.sampled_from(NUMBERS), st.sampled_from(EDGE)),
    "--e": (_int_lists(0, 2, 1, 3), _int_lists(-1, 3, 0, 4)),
    "--y": (_int_lists(-2, 2, 1, 2), _int_lists(-2, 2, 0, 4)),
    "--z": (_int_lists(-2, 2, 1, 2), _int_lists(-2, 2, 0, 4)),
}


@pytest.fixture(scope="module")
def complex_files(tmp_path_factory):
    """Paths for --complex: a valid circle complex, malformed ones, and a missing file."""
    folder = tmp_path_factory.mktemp("complexes")
    x = LaurentRing(1, Integers(), ("x",)).var("x")
    texts = {
        "circle.json": json.dumps(complex_to_json(circle_complex(x))),
        "truncated.json": json.dumps(complex_to_json(circle_complex(x)))[:-7],
        "empty.json": "",
        "list.json": "[1, 2]",
        "no-terms.json": '{"schema": 1}',
    }
    for name, text in texts.items():
        (folder / name).write_text(text)
    return [str(folder / name) for name in texts] + [str(folder / "missing.json"), str(folder)]


def _values_for(flag, kwargs, complex_files):
    if kwargs.get("action") == "store_true":
        return st.just(None)
    if "choices" in kwargs and kwargs.get("type") is not int:
        return st.sampled_from([*kwargs["choices"], "bogus", ""])
    if flag == "--complex":
        return st.sampled_from(complex_files)
    good, bad = VALUES[flag]
    return _mostly(good, st.one_of(bad, st.sampled_from(EDGE)))


@st.composite
def _argv(draw, complex_files):
    name = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    flags = cli.SUBCOMMANDS[name][2]
    kept = [f for f in flags if draw(_mostly(st.just(True), st.just(False))
                                     if f[1].get("required") else st.booleans())]
    chosen = draw(st.permutations(kept))
    argv = [name]
    for flag, kwargs in chosen:
        value = draw(_values_for(flag, kwargs, complex_files))
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


USAGE_ERROR = re.compile(r"braidhom( [a-z-]+)?: error: ")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_call_ends_in_a_result_a_diagnostic_or_a_usage_error(complex_files, data):
    argv = data.draw(_argv(complex_files))
    code, out, err, seconds = _call(argv)
    assert seconds < 5, argv
    lines = err.splitlines()
    if code == 0:
        assert err == "", argv
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    else:
        assert code == 2, (argv, code, err)
        assert out == "" and lines[0].startswith("usage: braidhom"), (argv, err)
        assert [line for line in lines if USAGE_ERROR.match(line)] == lines[-1:], (argv, err)
