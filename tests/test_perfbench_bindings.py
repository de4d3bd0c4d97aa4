"""The benchmark harness under perfbench/ reaches into the package by name: its tracer wraps the
(module, function) pairs it lists in TARGETS, and its workloads and dense recount import from the
modules.  These checks read those files without running the harness, so a rename that would break
the tracer or the recount fails here, in the fast suite."""

import ast
import importlib
from pathlib import Path

import pytest

from wegner_lab import experiments, random_model, spectral

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _targets() -> list[tuple[str, str]]:
    """The (module, function) pairs of tracer.py's TARGETS, read from its source."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("tracer.py assigns no TARGETS")


def _imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every `from wegner_lab... import name` in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wegner_lab":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


TARGETS = _targets()
IMPORTS = _imports()


def test_the_readers_find_the_bindings():
    assert ("spectral", "count_in_interval") in TARGETS
    assert ("worker.py", "wegner_lab.spectral", "count_in_interval") in IMPORTS
    assert ("tracer.py", "wegner_lab", "experiments") in IMPORTS


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_a_tracer_target_is_a_package_callable(module, name):
    assert callable(getattr(importlib.import_module(f"wegner_lab.{module}"), name, None))


@pytest.mark.parametrize("path, module, name", IMPORTS, ids=[f"{p}:{m}.{n}" for p, m, n in IMPORTS])
def test_a_perfbench_import_resolves(path, module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name) and hasattr(owner, "__path__"):
        importlib.import_module(f"{module}.{name}")  # a submodule, loaded as `from package import module` does
    assert hasattr(owner, name)


def test_the_drivers_bind_what_the_tracer_patches():
    # the tracer's self-test patches and reads these two bindings of experiments
    assert experiments.sample_potential is random_model.sample_potential
    assert experiments.count_in_interval is spectral.count_in_interval
