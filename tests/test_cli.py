"""Tests for the command-line surface: determinism, formats, exit codes."""

import json

import pytest

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


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("ok") for line in lines[:-1])
