"""Every name a package module, a script or a test file imports is used in that file, and importing
the drivers loads only what every run uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wegner_lab"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_is_found():
    assert _unused_imports(ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")) == [
        "line 1: os",
        "line 2: tau",
    ]


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}",
)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _lazy_modules_loaded_by(code: str) -> str:
    """The lazily imported modules that running code in a fresh interpreter leaves loaded."""
    lazy = ["concurrent.futures.process", "scipy.sparse.linalg"]
    code += "\nimport sys; print(sorted(set(sys.modules) & set(sys.argv[1:])))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code, *lazy], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_experiments_import_leaves_out_what_only_some_runs_use():
    # the process pool is loaded at the first parallel map, sparse LU at the first d>=2 resolvent
    assert _lazy_modules_loaded_by("import wegner_lab.experiments") == "[]"


def test_a_serial_d1_run_loads_neither_the_process_pool_nor_sparse_lu():
    code = ("from wegner_lab.experiments import run_wegner\nfrom wegner_lab.random_model import covering_model\n"
            "run_wegner(covering_model(), L_list=(4.0,), replicas=4)")
    assert _lazy_modules_loaded_by(code) == "[]"
    assert _lazy_modules_loaded_by(code.replace("replicas=4", "replicas=4, workers=2")) == "['concurrent.futures.process']"
