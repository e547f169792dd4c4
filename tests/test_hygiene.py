"""Source hygiene. The repository configures no linter, so these tests are the guard."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "catfrac"


def unread_imports(path: Path) -> list[str]:
    """Names a module imports (at any depth) but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize(
    "path",
    # __init__.py imports to re-export, so its names are read by importers
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unread_imports(path):
    assert unread_imports(path) == []


def test_unread_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom sys import argv, path\n\nprint(path)\n")
    assert unread_imports(module) == ["m.py:1: os", "m.py:2: argv"]
