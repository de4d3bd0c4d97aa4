"""Every name a package module, a script or a test file imports is used in that file."""

import ast
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
