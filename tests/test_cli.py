"""Tests for the command-line surface: determinism, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidhom import checks, cli
from braidhom.cli import main
from braidhom.homology import circle_complex, complex_to_json
from braidhom.ring import Integers, LaurentRing


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pairing_identity_json(capsys):
    code, out, err = run(
        capsys, "pairing", "--surface", "0,3,0", "--m", "2", "--side", "in"
    )
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["rows"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_embed_diagonal(capsys):
    code, out, err = run(
        capsys, "embed", "--surface", "0,3,0", "--m", "2", "--direction", "in"
    )
    assert code == 0
    data = json.loads(out)
    assert data["diagonal"] == ["1 + d", "1", "1 + d"]


def test_embed_specialized(capsys):
    code, out, _ = run(
        capsys, "embed", "--surface", "0,3,0", "--m", "2",
        "--direction", "in", "--specialize", "u=2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["diagonal"] == ["3", "1", "3"]


@pytest.mark.parametrize("value", ["0", "0/5", "0.0", "0j"])
def test_embed_refuses_a_swap_unit_that_is_not_a_unit(capsys, value):
    code, out, err = run(capsys, "embed", "--surface", "0,3,0", "--m", "2",
                         "--specialize", f"u={value}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: the swap unit must be a unit") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["5", "2/3", "0.5+1j"])
def test_embed_keeps_a_one_point_system_one_homogeneous(capsys, value):
    # embedding_matrix refuses the same system; every part is 0 or 1, so only u = 1 is allowed.
    code, out, err = run(capsys, "embed", "--surface", "0,3,0", "--m", "1",
                         "--specialize", f"u={value}")
    assert (code, out) == (1, "")
    assert err == "error: a one-point system is 1-homogeneous; u must equal 1\n"
    code, out, err = run(capsys, "embed", "--surface", "0,3,0", "--m", "1", "--specialize", "u=1")
    assert (code, err) == (0, "")
    assert json.loads(out)["diagonal"] == ["1", "1"]


@pytest.mark.parametrize("specialize", [(), ("--specialize", "u=2")])
def test_embed_enumerates_the_compositions_once(capsys, monkeypatch, specialize):
    # Every module that took the function by name gets the counting one.  The package
    # attribute `compositions` is the function, so the module comes from sys.modules.
    import braidhom.embeddings  # noqa: F401 (loaded so that its binding is patched too)

    original, calls = sys.modules["braidhom.compositions"].compositions, []

    def counting(l, m):
        calls.append((l, m))
        return original(l, m)

    for name, module in list(sys.modules.items()):
        if name.startswith("braidhom") and getattr(module, "compositions", None) is original:
            monkeypatch.setattr(module, "compositions", counting)
    code, out, err = run(capsys, "embed", "--surface", "0,4,0", "--m", "2", *specialize)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["diagonal"]) == 6
    assert calls == [(3, 2)]


def test_rep_braid_equal_words_are_byte_identical(capsys):
    _, first, _ = run(capsys, "rep", "--n", "3", "--m", "1", "--word", "1,2,1")
    _, second, _ = run(capsys, "rep", "--n", "3", "--m", "1", "--word", "2,1,2")
    assert first == second
    _, lkb_a, _ = run(capsys, "rep", "--n", "3", "--m", "2", "--word", "1,2,1")
    _, lkb_b, _ = run(capsys, "rep", "--n", "3", "--m", "2", "--word", "2,1,2")
    assert lkb_a == lkb_b


def test_identical_config_is_byte_identical(capsys):
    argv = ["basis", "--surface", "0,4,0", "--m", "2", "--flavour", "locally_finite"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_basis_text_format(capsys):
    code, out, _ = run(
        capsys, "basis", "--surface", "0,3,0", "--m", "2",
        "--flavour", "locally_finite", "--format", "text",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["D[2,0]@in", "D[1,1]@in", "D[0,2]@in"]


def test_basis_json_lists_classes(capsys):
    code, out, _ = run(capsys, "basis", "--surface", "0,3,0", "--m", "1")
    data = json.loads(out)
    assert code == 0
    assert data["dimension"] == 2
    assert [c["composition"] for c in data["classes"]] == [[1, 0], [0, 1]]


def test_basis_with_more_arcs_than_the_recursion_limit(capsys):
    # 1,499 arcs: a recursion over the arcs would pass the interpreter's default depth of 1,000.
    code, out, err = run(capsys, "basis", "--surface", "0,1500,0", "--m", "1")
    assert (code, err) == (0, "")
    classes = json.loads(out)["classes"]
    assert len(classes) == 1499
    assert classes[0]["composition"] == [1] + [0] * 1498
    assert classes[-1]["composition"] == [0] * 1498 + [1]


def test_basis_latex_is_refused(capsys):
    code, out, err = run(
        capsys, "basis", "--surface", "0,3,0", "--m", "1", "--format", "latex"
    )
    assert code == 1
    assert err.startswith("error:")


def test_rep_latex_format(capsys):
    code, out, _ = run(
        capsys, "rep", "--n", "2", "--m", "1", "--word", "1", "--format", "latex"
    )
    assert code == 0
    assert out.strip() == "\\begin{pmatrix}\n-x\n\\end{pmatrix}"


def test_rep_text_format_aligns_columns(capsys):
    code, out, _ = run(
        capsys, "rep", "--n", "3", "--m", "1", "--word", "1", "--format", "text"
    )
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 2
    assert rows[0].split("  ")[0].strip() == "-x"


def test_rep_empty_word_is_the_identity(capsys):
    code, out, _ = run(capsys, "rep", "--n", "3", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0][0] == "1"
    assert data["rows"][0][1] == "0"


def test_rep_specialized(capsys):
    code, out, _ = run(
        capsys, "rep", "--n", "2", "--m", "1", "--word", "1",
        "--specialize", "x=2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == [["-2"]]


def test_pairing_geometric(capsys):
    code, out, _ = run(
        capsys, "pairing", "--surface", "0,3,0", "--m", "2", "--geometric"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "geometric"
    assert data["rows"][0][0] == "1 + d"


def test_generic_check_true_and_false(capsys):
    code, out, _ = run(
        capsys, "generic-check", "--m", "2", "--theta-x", "2", "--theta-d", "3"
    )
    assert code == 0
    assert json.loads(out)["generic"] is True
    code, out, _ = run(
        capsys, "generic-check", "--m", "2", "--theta-x", "1", "--theta-d", "3"
    )
    assert code == 0
    assert json.loads(out)["generic"] is False


def test_generic_check_requires_theta_d_for_two_points(capsys):
    code, _, err = run(capsys, "generic-check", "--m", "2", "--theta-x", "2")
    assert code == 1
    assert "error:" in err


def test_generic_check_text(capsys):
    code, out, _ = run(
        capsys, "generic-check", "--m", "1", "--theta-x", "-1",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "generic"


@pytest.mark.parametrize("argv, code, expected", [
    (("generic-check", "--m", "1", "--theta-x", "-1/2"), 0, '"theta": {"x": "-1/2"}'),
    (("generic-check", "--m", "2", "--theta-x", "2", "--theta-d", "-inf"), 1,
     "error: not a finite number: '-inf'"),
    (("rep", "--n", "3", "--m", "1", "--word", "-1,2"), 0, '"rows": [["-x^-1 + 1", "-x"]'),
], ids=["fraction", "minus-infinity", "word"])
def test_a_value_may_start_with_a_dash(capsys, argv, code, expected):
    # argparse alone takes -1/2, -inf and -1,2 for flags; each must read as --flag=value does.
    result = run(capsys, *argv)
    assert result == run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert result[0] == code
    assert expected in result[1] + result[2]
    assert (result[1] + result[2]).count("\n") == 1


def test_homology_reads_a_complex_file(tmp_path, capsys):
    ring = LaurentRing(1, Integers(), ("x",))
    cpx = circle_complex(ring.var("x"))
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(complex_to_json(cpx)))
    code, out, _ = run(
        capsys, "homology", "--complex", str(path), "--at", "x=2"
    )
    assert code == 0
    assert json.loads(out)["ranks"] == [0, 0]
    code, out, _ = run(
        capsys, "homology", "--complex", str(path), "--at", "x=1"
    )
    assert json.loads(out)["ranks"] == [1, 1]


def test_homology_missing_file_fails(capsys):
    code, _, err = run(capsys, "homology", "--complex", "/nonexistent.json")
    assert code == 1
    assert err.startswith("error:")


def test_homology_requires_assignments_when_variables_exist(tmp_path, capsys):
    ring = LaurentRing(1, Integers(), ("x",))
    cpx = circle_complex(ring.var("x"))
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(complex_to_json(cpx)))
    code, _, err = run(capsys, "homology", "--complex", str(path))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("data", [
    {"schema": 1, "ranks": [1]},
    {"schema": 1, "variables": "x", "ranks": [1, 1], "boundaries": [[["x - 1"]]]},
    {"schema": 1, "variables": ["x"], "ranks": [1, "1"], "boundaries": [[["x - 1"]]]},
    {"schema": 1, "variables": ["x"], "ranks": [1, 1], "boundaries": [["x - 1"]]},
    {"schema": 1, "variables": ["x"], "ranks": [1, 1], "boundaries": [[[1]]]},
    {"schema": 1, "coefficients": ["integers"], "variables": ["x"], "ranks": [1]},
    [1, 2],
])
def test_homology_malformed_complex_is_one_error_line(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "homology", "--complex", str(path), "--at", "x=2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_homology_exponent_beyond_the_bound_is_one_error_line(tmp_path, capsys):
    data = complex_to_json(circle_complex(LaurentRing(1, Integers(), ("x",)).var("x")))
    data["boundaries"][0][0][0] = "x^2147483648 - 1"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "homology", "--complex", str(path), "--at", "x=2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "2147483647" in err


def test_homology_entry_with_a_caret_and_no_exponent_is_one_error_line(tmp_path, capsys):
    # "x^" was read as x, so this complex exited 0
    path = tmp_path / "caret.json"
    path.write_text(json.dumps({"schema": 1, "variables": ["x"], "ranks": [1, 1],
                                "boundaries": [[["x^ - 1"]]]}))
    code, out, err = run(capsys, "homology", "--complex", str(path), "--at", "x=2")
    assert code == 1
    assert out == ""
    assert err == "error: cannot parse term 'x^': '^' without an exponent\n"


@pytest.mark.parametrize("entry, message", [
    ("x^^2 - 1", "cannot parse term 'x^^2': the exponent '^2' is not an integer"),
    ("2x", "cannot parse term '2x': '2x' is neither a variable of ('x',) nor a coefficient"
           " over integers"),
    ("x^1.5", "cannot parse term 'x^1.5': the exponent '1.5' is not an integer"),
    ("1 + y", "cannot parse term 'y': unknown variable 'y'; the variables are ('x',)"),
])
def test_homology_entry_outside_the_term_grammar_is_the_parsers_error_line(tmp_path, capsys,
                                                                          entry, message):
    # each of these ended in "error: invalid literal for int() with base 10: ..."
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "variables": ["x"], "ranks": [1, 1],
                                "boundaries": [[[entry]]]}))
    code, out, err = run(capsys, "homology", "--complex", str(path), "--at", "x=2")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, digest", [
    # the diagonal [e]! of 3,162 one-point classes of 3,162 parts each
    (("embed", "--surface", "0,3163,0", "--m", "1"), "eb31b0adbe32b33a5ba30c6966517583"),
    # a 3162 x 3162 pairing matrix, 50 MB of json
    (("pairing", "--surface", "0,3163,0", "--m", "1", "--geometric"),
     "f131d60728c8ef1c90a4813212fa7a25"),
])
def test_unit_factors_are_skipped_over_exact_rings(argv, digest):
    # Each diagonal entry is a product of 3,162 factors equal to one: multiplied in, the
    # embedding ran past 60 s and the geometric pairing took 42 s.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "braidhom.cli", *argv], env=env,
                            capture_output=True, timeout=60)
    assert time.perf_counter() - start < 15
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.md5(result.stdout).hexdigest() == digest


@pytest.mark.parametrize("at", ["x=1/3", "x=0.7648+0.6442j"])
def test_homology_power_past_the_work_budget_is_one_error_line(tmp_path, capsys, at):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema": 1, "variables": ["x"], "ranks": [1, 1],
                                "boundaries": [[["x^2000000000 - 1"]]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", "--complex", str(path), "--at", at)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: the power 2000000000 of ") and err.count("\n") == 1
    assert "past the work budget" in err


def test_pairing_geometric_past_the_arc_bound_is_one_error_line(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "pairing", "--surface", "0,2,0", "--m", "10", "--geometric")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err == ("error: an arc with 10 points has 10! bijections to enumerate;"
                   " the bound is 9 points per arc\n")


@pytest.mark.parametrize("n, m", [(200, 2), (81, 2), (3164, 1), (10**9, 2)])
def test_rep_beyond_the_entry_bound_is_one_error_line(capsys, n, m):
    # Refused before anything is built, so none of these allocates its matrix.
    code, out, err = run(capsys, "rep", "--n", str(n), "--m", str(m), "--word=1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: a ") and err.count("\n") == 1
    assert "exceeds the bound of 10000000 entries" in err


@pytest.mark.parametrize("argv", [
    "basis --surface 0,40,0 --m 40",
    "embed --surface 0,40,0 --m 40",
    "helix --surface 0,40,0 --m 40 --e 40 --y 1,0 --z 0,1",
    "pairing --surface 0,3,0 --m 100000",
    "pairing --surface 0,11,0 --m 9 --geometric",
])
def test_a_basis_or_pairing_past_its_size_bound_is_one_error_line(capsys, argv):
    # Unbounded, each of these would build more than 10^7 parts or matrix entries.
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceed" in err and "the bound of 10000000" in err


def _circle_file(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(complex_to_json(circle_complex(
        LaurentRing(1, Integers(), ("x",)).var("x")))))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("rep", "--n", "3", "--m", "2", "--word=1,-2", "--specialize", "x=nan,d=1"),
    ("rep", "--n", "3", "--m", "2", "--word=1,-2", "--specialize", "x=2,d=inf"),
    ("homology", "--complex", "CIRCLE", "--at", "x=nan"),
    ("homology", "--complex", "CIRCLE", "--at", "x=1+infj"),
    ("generic-check", "--m", "2", "--theta-x", "nan", "--theta-d", "2"),
    ("generic-check", "--m", "2", "--theta-x", "2", "--theta-d=-inf"),
])
def test_non_finite_values_are_one_error_line(tmp_path, capsys, argv):
    argv = [_circle_file(tmp_path) if a == "CIRCLE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: not a finite number") and err.count("\n") == 1


def test_homology_at_a_large_complex_point(tmp_path, capsys):
    # Its composite rounds to about 1e-4, against entries near 1e12 and 1e8.
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"schema": 1, "variables": ["x"], "ranks": [1, 2, 1],
                                "boundaries": [[["x^3 + x", "-x"]], [["1"], ["x^2 + 1"]]]}))
    code, out, err = run(capsys, "homology", "--complex", str(path),
                         "--at", "x=12345.6789+0.123456789j")
    assert code == 0
    assert err == ""
    assert json.loads(out)["ranks"] == [0, 0, 0]


def test_homology_refuses_variables_the_complex_lacks(tmp_path, capsys):
    code, out, err = run(capsys, "homology", "--complex", _circle_file(tmp_path),
                         "--at", "x=2,y=3")
    assert code == 1
    assert out == ""
    assert err == "error: --at assigns ['y'], which the complex does not have\n"


# Float specializations sum terms in the order products emit them, so any change
# of that order shows in the last digits of these bytes.
FROZEN_COMPLEX_REP = (
    '{"convention": "lkb/q=x,t=-d/arc-basis", "m": 2, "n": 3, "rows": ['
    '["(2.4612375510204085-5.764459591836738j)", "(1.5143482855983672-2.176133636403266j)", '
    '"(0.16388696169728023-0.1772272862664686j)"], '
    '["(-4.918367346938773+24.755102040816325j)", "(-4.171503836734692+9.817781306122455j)", '
    '"(-0.5003659234285713+0.8311812217142859j)"], '
    '["(6.122448979591795-114.28571428571433j)", "(12.46516326530611-46.68304081632654j)", '
    '"(1.7228662857142876-4.035121714285717j)"]], "schema": 1}\n'
)


def test_rep_complex_specialization_keeps_its_term_order(capsys):
    code, out, _ = run(
        capsys, "rep", "--n", "3", "--m", "2", "--word=1,1,-2,1,-2,-2,2,1,2",
        "--specialize", "x=0.3+0.1j,d=0.7",
    )
    assert code == 0
    assert out == FROZEN_COMPLEX_REP


# The same contract at n = 4..7, each on a word that uses every generator and
# inverts at least two letters: md5 of the stdout bytes.
FROZEN_COMPLEX_REP_MD5 = [
    (4, "1,2,-3,1,-2,3", "72f877fbe6f8f3afbc012bbdc79e2352"),
    (5, "1,-2,3,4,-1,2,-4", "6f803866eacac12cc05aaa31de9ed757"),
    (6, "1,2,-3,4,-5,3,1", "e522a8c7d1390450e6eb87ed86d52d90"),
    (7, "1,-2,3,4,-5,6,2,-6", "9ba82edd776da277ef026ce968048a6e"),
]


@pytest.mark.parametrize("n, word, digest", FROZEN_COMPLEX_REP_MD5)
def test_rep_complex_specialization_keeps_its_term_order_for_more_strands(capsys, n, word,
                                                                         digest):
    code, out, _ = run(
        capsys, "rep", "--n", str(n), "--m", "2", f"--word={word}",
        "--specialize", "x=0.3+0.1j,d=0.7",
    )
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


# Words of the lengths `words-warm` times: two LKB words and a Burau word.
FROZEN_LONG_COMPLEX_REP_MD5 = [
    (6, 2, "5,1,2,3,5,2,5,-3,1,-1,-2,3,1,1,1,-5,1,4,1,4", "x=0.3+0.1j,d=0.7",
     "697bbc05129fc7c5d46cc2bce8777eac"),
    (5, 2, "2,-3,4,-2,2,1,4,-3,4,-1,2,-1,2,4,-1,-1,-2,-1", "x=0.3+0.1j,d=0.7",
     "a1fca5cdb62d96fb9088e4d7d754c615"),
    (10, 1, "-2,-1,1,-2,-6,-4,-2,9,-5,4,-6,-2,2,4,-5,-6,-7,-5,-6,4,-4,-6,8,-7,2,5,3,1,-5,1,"
     "6,-4,1,-3,-6,4,-9,-1,8,7,-4,-2,-8,-9,-5,-6,5,-7,-1,-4,6,9,-1,-6,2,-6,-3,-8,-2,-4,-6,9,"
     "2,3,-2,-1,-9,-7,6,-3,-6,9,-4,1,7,2,-9,1,7,-3,6,4,-6,-5,-6,-9,7,-9,-7,-7,-9,1,-7,8,2,3,"
     "-1,6,9,9", "x=0.3+0.1j", "45b5cc85a6584ab0a3314bdf0e9c035d"),
]


@pytest.mark.parametrize("n, m, word, point, digest", FROZEN_LONG_COMPLEX_REP_MD5)
def test_rep_complex_specialization_keeps_its_term_order_for_long_words(capsys, n, m, word,
                                                                       point, digest):
    assert len(word.split(",")) == {(6, 2): 20, (5, 2): 18, (10, 1): 100}[n, m]
    code, out, _ = run(capsys, "rep", "--n", str(n), "--m", str(m), f"--word={word}",
                       "--specialize", point)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("rep", "--n", "3", "--m", "2", "--word=1", "--specialize", "x=1e200+1j,d=1e200"),
    ("embed", "--surface", "0,2,0", "--m", "3", "--specialize", "u=1e200+1j"),
])
def test_values_that_overflow_are_one_error_line(capsys, argv):
    # Finite inputs whose specialized values overflow to nan.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: a specialized value is not finite") and err.count("\n") == 1


def test_helix_output(capsys):
    code, out, _ = run(
        capsys, "helix", "--surface", "0,3,0", "--m", "1",
        "--e", "1,0", "--y", "1,0", "--z", "0,1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["in_group_ring"] is False
    assert len(data["coordinate"]["rays"]) == 2


def test_helix_rejects_zero_winding(capsys):
    code, _, err = run(
        capsys, "helix", "--surface", "0,3,0", "--m", "1",
        "--e", "1,0", "--y", "0,0", "--z", "0,1",
    )
    assert code == 1
    assert err.startswith("error:")


def test_invalid_surface_is_a_diagnostic_not_a_crash(capsys):
    code, _, err = run(capsys, "basis", "--surface", "0,1,0", "--m", "1")
    assert code == 1
    assert err.startswith("error:")


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["basis", "--no-such-flag"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ("rep", "--n", "3", "--m", "1", "--word=--"),
    ("generic-check", "--m", "2", "--theta-x", "2", "--theta-d=--"),
    ("embed", "--surface", "0,3,0", "--m", "2", "--specialize=--"),
])
def test_a_double_dash_value_is_one_error_line(capsys, argv):
    # Before Python 3.13 argparse reads `--flag=--` as an empty list; from 3.13 the value
    # is "--", which the handler refuses.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("ok") for line in lines[:-1])


@pytest.mark.parametrize("name, check", checks.CHECKS, ids=[name for name, _ in checks.CHECKS])
def test_each_verify_check_holds(name, check):
    assert check() is None


def test_embedding_diagonal_check_sees_a_wrong_quantum_factorial(monkeypatch):
    """[2]_u! multiplied by u changes the embedding diagonal but not the geometric
    pairing the check compares it with."""
    from braidhom import surfaces

    factorial = surfaces.quantum_factorial
    monkeypatch.setattr(surfaces, "quantum_factorial",
                        lambda n, u: factorial(n, u) * u if n == 2 else factorial(n, u))
    assert checks._check_embedding_diagonal() == "e=(2, 0)"


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    failing = tuple(
        (name, (lambda: "boom") if name == "braid-relations" else check)
        for name, check in checks.CHECKS
    )
    monkeypatch.setattr(checks, "CHECKS", failing)
    code, out, err = run(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL braid-relations: boom" in lines
    assert sum(line.startswith("ok   ") for line in lines) == 12
    assert lines[-1] == "12/13 checks passed"
    assert err == "error: 1 verification checks failed\n"


# md5 of (argv, exit code, stdout, stderr) for every subcommand in each format,
# the latex refusals, one error path per subcommand, verify, and the --help texts,
# taken before the CLI was reorganised.  CIRCLE names a serialized circle complex.
FROZEN_CLI_CALLS = [
    (("basis", "--surface", "0,3,0", "--m", "2"), "c3204d5240271e95c831e0e14d49666f"),
    (("basis", "--surface", "1,2,1", "--m", "2", "--side", "out", "--flavour", "lf_image",
      "--format", "text"),
     "2f8abf4ae50973bf72502b49827f06b6"),
    (("basis", "--surface", "0,3,0", "--m", "2", "--format", "latex"),
     "1eb68f56a1f2f631d1561008269c6ea3"),
    (("basis", "--surface", "0,1,0", "--m", "1"), "81067b50759c0ba9510ed15fed9775c1"),
    (("pairing", "--surface", "0,3,0", "--m", "2"), "48acb2b9c80dd2d93ff9b212e863fd51"),
    (("pairing", "--surface", "0,3,0", "--m", "2", "--geometric", "--format", "text"),
     "e9bbb33a1b608add91bee5c2f98fe830"),
    (("pairing", "--surface", "0,2,1", "--m", "2", "--side", "out", "--geometric", "--format",
      "latex"),
     "278d6390e5a8953fc3a268c5a24910cc"),
    (("pairing", "--surface", "0,3", "--m", "2"), "0c64bc071919fa16939d92b0dc23381a"),
    (("embed", "--surface", "0,3,0", "--m", "2"), "eb9b2385995eb7644f17e7f82dcbc2fb"),
    (("embed", "--surface", "0,3,0", "--m", "2", "--direction", "out", "--format", "text"),
     "09ed5b35a0996761205c99084043e8e4"),
    (("embed", "--surface", "0,3,0", "--m", "2", "--format", "latex"),
     "c9361aca45000411b60acd7f99aa6ee8"),
    (("embed", "--surface", "0,2,1", "--m", "3", "--specialize", "u=1/3"),
     "5ab59b22ce077e3c00d33560cb306394"),
    (("embed", "--surface", "0,2,1", "--m", "3", "--specialize", "u=0.5+1j", "--format",
      "text"),
     "9ae15b538515eac4273a62791c2a8c8b"),
    (("embed", "--surface", "0,2,1", "--m", "3", "--specialize", "u=2", "--format", "latex"),
     "ecbf9644500623c8b6219ec2f6dead7a"),
    (("embed", "--surface", "0,3,0", "--m", "2", "--specialize", "x=2"),
     "7bf802766bcbc83b023feb85ccec9b18"),
    (("rep", "--n", "4", "--m", "2", "--word=1,-2,3"), "464bf41657418ec93a0e59bfa64b7a4c"),
    (("rep", "--n", "4", "--m", "1", "--word=1,-2,3", "--format", "text"),
     "446d6c0c6695dc372e61853f9188d830"),
    (("rep", "--n", "3", "--m", "2", "--word=2,-1", "--format", "latex"),
     "2f0f3155c544df78e9197524c41c97e0"),
    (("rep", "--n", "4", "--m", "2", "--word=1,-3", "--specialize", "x=1/2,d=-3"),
     "117145544aeb041f5488e15e7d167374"),
    (("rep", "--n", "4", "--m", "2", "--word=1,-3", "--specialize", "x=0.3+0.1j,d=0.7",
      "--format", "text"),
     "006883c2910726efda8d615f1d4e9fbc"),
    (("rep", "--n", "3", "--m", "1", "--word=1", "--specialize", "x=2", "--format", "latex"),
     "e53b1c4f51d1508e6a71c017bc8712b3"),
    (("rep", "--n", "3", "--m", "2", "--word=1,a"), "4f9e4d6e9e9c8d6030b5c538a6bbcc4d"),
    (("rep", "--n", "3", "--m", "2", "--word=1", "--specialize", "x=2"),
     "4e78168a7fd4ea6beb4e63db0832aef9"),
    (("generic-check", "--m", "2", "--theta-x", "2", "--theta-d", "3"),
     "34e9d8a2d9a0d20ff72e4b3132c179fc"),
    (("generic-check", "--m", "1", "--theta-x", "1", "--format", "text"),
     "43a78fb604424ac08caa841b019d8153"),
    (("generic-check", "--m", "2", "--theta-x", "0.5+0.5j", "--theta-d", "2", "--format",
      "latex"),
     "5f450f5b078056fc211bcf78e7b09297"),
    (("generic-check", "--m", "2", "--theta-x", "2"), "d4484cbead57d7b4c7f21804088a63e4"),
    (("homology", "--complex", "CIRCLE", "--at", "x=2"), "0b0a6d87f7141ebdc3e9aa39b1d1829a"),
    (("homology", "--complex", "CIRCLE", "--at", "x=1", "--format", "text"),
     "ccb505bfd054bf37256f9b5d71bc29ea"),
    (("homology", "--complex", "CIRCLE", "--at", "x=0.5+0.5j", "--format", "latex"),
     "e1333c5b2f28d2e19b1a42c67b951a60"),
    (("homology", "--complex", "/nonexistent.json"), "26b0d9c3e1ac8ddf39186cc382777e9c"),
    (("helix", "--surface", "0,3,0", "--m", "1", "--e", "1,0", "--y", "1,0", "--z", "0,1"),
     "f98873a689e5a0418a39b59eb1e1bff5"),
    (("helix", "--surface", "0,3,0", "--m", "2", "--e", "1,1", "--y", "1,0", "--z", "0,1",
      "--format", "text"),
     "84ffaceab43ac24e647258140929c52b"),
    (("helix", "--surface", "0,3,0", "--m", "1", "--e", "1,0", "--y", "1,0", "--z", "0,1",
      "--format", "latex"),
     "1901010dcf849851758465569172b9be"),
    (("helix", "--surface", "0,3,0", "--m", "1", "--e", "1,0", "--y", "0,0", "--z", "0,1"),
     "373cd4432eeb209a8024a99a8ed5d3c9"),
    (("verify",), "7d9dca0b013fbc87ecadb73e68451d9c"),
    (("--help",), "2020d2825e827c4b3088c150eb0e9faa"),
    (("basis", "--help"), "3834e29061c7bc5d3955b91a00a8603f"),
    (("pairing", "--help"), "319c1afcb7f9f2793017ed8d8d108f1f"),
    (("embed", "--help"), "1027604631baf401ec7b81f7311dad10"),
    (("rep", "--help"), "616f17a9a47e3165cf5015a3b1810388"),
    (("generic-check", "--help"), "d8e17705675cb71f29032fa1bb23414f"),
    (("homology", "--help"), "51ee1b0428aad50ea3c3cfff5422653c"),
    (("helix", "--help"), "5801ccf417958aeac12be515f74c03de"),
    (("verify", "--help"), "1c4187d4d53a045beaa525cadbce13ba"),
    # argparse's own paths: an invalid or missing subcommand, unknown flags, a missing
    # required flag, a bad choice, help before the subcommand, and abbreviations.
    (("bogus",), "218bc87ca1860ae9bbebca53d499e9d3"),
    ((), "6fbbe3a1454ad9ee80468444c184442a"),
    (("basis", "--no-such-flag"), "4f762a1ce47778937133fe64dff778f3"),
    (("rep",), "dccebc353ad4262d359439ffa4175b1e"),
    (("rep", "--n", "3", "--m", "3"), "a1a53f67a4e079f5085d25c3bdb49b05"),
    (("-h", "rep"), "ddf71d661a07c47629595d1b367a61ba"),
    (("pair", "--surface", "0,3,0", "--m", "2"), "f6c748e9b2af97f319a91d72e6c417de"),
    (("rep", "--n", "3", "--m", "1", "--wor", "1"), "79649aa7b2a442424b4d2b1402585445"),
    (("verify", "--x"), "c06af7926ae250a959eaf4d84d73636a"),
    # Geometric pairings past m = 2: arcs with several points, every monodromy power.
    (("pairing", "--surface", "0,3,0", "--m", "6", "--geometric"),
     "98fa6e3b0da2fe63828f519a9ad8c92b"),
    (("pairing", "--surface", "1,2,1", "--m", "3", "--side", "out", "--geometric", "--format",
      "latex"),
     "067757d14439227294a74e3d8778bd78"),
    (("pairing", "--surface", "0,2,0", "--m", "7", "--geometric", "--format", "text"),
     "df8cce40dfc674c4131932fed365ccdb"),
]

# From Python 3.13 argparse keeps the subcommand choices and "..." on one usage line.
FROZEN_CLI_CALLS_313 = {
    ("--help",): "18cc0fb6ac39989cf7cbcca37d33348e",
    ("bogus",): "414880bf932397a017a63175b296d804",
    (): "6e4a6410f8879bbf3e2a50ffa29e379b",
    ("-h", "rep"): "06b75e86e167bf677f3c6bcb75a15d28",
    ("pair", "--surface", "0,3,0", "--m", "2"): "76a6473fd2906055f1a9e7f139e2fc4a",
    ("verify", "--x"): "8474621078ca883cb1237ccf603f1e13",
}


def cli_call_digest(capsys, argv, circle_path):
    real = [circle_path if a == "CIRCLE" else a for a in argv]
    try:
        code = main(real)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    record = json.dumps([list(argv), code, captured.out, captured.err])
    return hashlib.md5(record.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", FROZEN_CLI_CALLS)
def test_cli_bytes_are_frozen(tmp_path, capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    if sys.version_info >= (3, 13):
        digest = FROZEN_CLI_CALLS_313.get(argv, digest)
    assert cli_call_digest(capsys, argv, _circle_file(tmp_path)) == digest
