"""The package surface: lazily resolved public names, what a cold `rep` imports, no numpy."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import braidhom


@pytest.mark.parametrize("name", braidhom.__all__)
def test_public_name_resolves_to_its_module_object(name):
    namespace = {}
    exec(f"from braidhom import {name}", namespace)
    module = importlib.import_module(f"braidhom.{braidhom._MODULE_OF[name]}")
    assert namespace[name] is getattr(module, name)
    assert name in dir(braidhom)
    assert name in vars(braidhom)  # cached after the first lookup


def test_compositions_stays_the_function():
    # The function shares its name with its submodule.
    import braidhom.compositions  # noqa: F401

    assert braidhom.compositions(2, 1) == [(1, 0), (0, 1)]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        braidhom.not_a_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from braidhom import not_a_name", {})


def _cold_rep_modules(argv: list[str]) -> tuple[str, list[str]]:
    """The exit code of `cli.main(argv)` and the modules loaded, in a fresh interpreter."""
    # No site hooks, so only braidhom decides what loads.
    src = Path(braidhom.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "from braidhom import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, *sorted(sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, check=True)
    code, *modules = result.stdout.splitlines()[-1].split()
    return code, modules


def test_cold_rep_loads_only_what_it_uses():
    code, modules = _cold_rep_modules(["rep", "--n", "5", "--m", "2", "--word=1,-2,3",
                                       "--specialize", "x=1/2,d=3"])
    assert code == "0"
    assert "braidhom.braid" in modules
    for absent in ("dataclasses", "inspect", "braidhom.homology", "braidhom.completion",
                   "braidhom.pairing", "braidhom.embeddings", "braidhom.checks",
                   "braidhom.linalg", "braidhom.surfaces"):
        assert absent not in modules



def test_plain_cold_rep_loads_neither_fractions_nor_the_fields():
    code, modules = _cold_rep_modules(["rep", "--n", "5", "--m", "2", "--word=1,-2,3"])
    assert code == "0"
    assert "braidhom.ring" in modules
    for absent in ("fractions", "decimal", "numbers", "braidhom.fields"):
        assert absent not in modules


MOVED_TO_FIELDS = ("Rationals", "IntegersModP", "ComplexApprox", "POWER_BITS_BUDGET",
                   "POWER_CHAIN_LIMIT", "specialize_matrix", "_exponent_limit", "_is_prime",
                   "_PRIME_BASES", "_PRIME_BOUND")


@pytest.mark.parametrize("name", MOVED_TO_FIELDS)
def test_a_moved_name_is_one_object_through_ring_fields_and_the_package(name):
    import braidhom.fields
    import braidhom.ring

    value = getattr(braidhom.fields, name)
    assert getattr(braidhom.ring, name) is value
    namespace = {}
    exec(f"from braidhom.ring import {name}", namespace)
    assert namespace[name] is value
    if name in ("Rationals", "IntegersModP", "ComplexApprox"):
        assert getattr(braidhom, name) is value


def test_ring_still_refuses_an_unknown_name():
    import braidhom.ring

    with pytest.raises(AttributeError, match="'braidhom.ring' has no attribute 'not_a_name'"):
        braidhom.ring.not_a_name  # noqa: B018


def test_linalg_exports_the_evaluator_of_fields():
    # The traced benchmark patches `braidhom.linalg.specialize_matrix` by name.
    import braidhom.fields
    import braidhom.linalg

    assert braidhom.linalg.specialize_matrix is braidhom.fields.specialize_matrix

def test_complex_homology_runs_without_numpy(tmp_path):
    from braidhom.homology import circle_complex, complex_to_json
    from braidhom.ring import Integers, LaurentRing

    path = tmp_path / "circle.json"
    path.write_text(json.dumps(complex_to_json(circle_complex(
        LaurentRing(1, Integers(), ("x",)).var("x")))))
    src = Path(braidhom.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from braidhom import cli\n"
        f"sys.exit(cli.main(['homology', '--complex', {str(path)!r}, '--at', 'x=0.5+0.5j']))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["ranks"] == [0, 0]
