"""Every constant the README states as "`NAME` = value" (or "`module.NAME` = value") is the package's value,
and every `module.name` it names is the package's."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import wegner_lab

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = [m.name for m in pkgutil.iter_modules(wegner_lab.__path__)]
_STATED = re.compile(r"`(?:(\w+)\.)?([A-Z][A-Z0-9_]*)`\s+=\s+([-+.\w]+)")
_NAMED = re.compile(r"`(\w+)\.(\w+)[^`]*`")


def _stated(text: str) -> list[tuple[str, str, str]]:
    """(module or "", name, value) of every constant the text states."""
    return _STATED.findall(text)


def test_a_stated_constant_is_found():
    text = "up to `FREE_CACHE_SIZE` = 32 boxes; `experiments.LAMBDA_FLOOR` =\n1e-6 on every box; `workers = 1`"
    assert _stated(text) == [("", "FREE_CACHE_SIZE", "32"), ("experiments", "LAMBDA_FLOOR", "1e-6")]


def test_the_readme_states_the_tuning_constants():
    names = {name for _, name, _ in _stated(README)}
    tuning = {"INERTIA_DENSE_LIMIT", "FREE_CACHE_SIZE", "PROFILE_CACHE_SIZE", "SERIAL_BLOCK", "UNIFORM_CACHE_SIZE"}
    assert tuning <= names


@pytest.mark.parametrize(
    "module, name, value", [pytest.param(*c, id=".".join(filter(None, c[:2]))) for c in _stated(README)]
)
def test_a_stated_constant_is_the_packages(module, name, value):
    owners = [importlib.import_module(f"wegner_lab.{m}") for m in ([module] if module else MODULES)]
    values = {getattr(m, name) for m in owners if hasattr(m, name)}
    assert values == {ast.literal_eval(value)}, f"README says {name} = {value}, the package has {values or 'none'}"


def _named(text: str) -> list[tuple[str, str]]:
    """(module, name) of every `module.name` of a package module the text names, a call's arguments dropped;
    a file name such as `experiments.py` names no attribute."""
    return [(m, n) for m, n in _NAMED.findall(text) if m in MODULES and n != "py"]


def test_a_named_attribute_is_found():
    text = "`spectral.count_windows(block,\nwindows)`, `experiments.py`, `np.where`, `law.cdf` and `grids.BoxSpec`"
    assert _named(text) == [("spectral", "count_windows"), ("grids", "BoxSpec")]


@pytest.mark.parametrize("module, name", [pytest.param(*c, id=".".join(c)) for c in _named(README)])
def test_a_named_attribute_is_the_packages(module, name):
    assert hasattr(importlib.import_module(f"wegner_lab.{module}"), name), f"README names {module}.{name}, which is gone"
