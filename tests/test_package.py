"""The package surface: lazily resolved public names and what a cold `rep` imports."""

import importlib
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
                   "braidhom.pairing", "braidhom.embeddings"):
        assert absent not in modules
