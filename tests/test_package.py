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


def test_cold_rep_loads_only_what_it_uses():
    # A fresh interpreter without site hooks, so only braidhom decides what loads.
    src = Path(braidhom.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "from braidhom import cli\n"
        "code = cli.main(['rep', '--n', '5', '--m', '2', '--word=1,-2,3',"
        " '--specialize', 'x=1/2,d=3'])\n"
        "print(code, *sorted(sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, check=True)
    code, *modules = result.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "braidhom.braid" in modules
    for absent in ("dataclasses", "inspect", "braidhom.homology", "braidhom.completion",
                   "braidhom.pairing", "braidhom.embeddings", "braidhom.checks",
                   "braidhom.linalg", "braidhom.surfaces"):
        assert absent not in modules


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
