"""Source hygiene. The repository configures no linter, so these tests are the guard."""

import ast
import os
import subprocess
import sys
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



def writes_to_dd(path: Path) -> list[str]:
    """Assignments to an attribute of ``dd``, or to an item of one.

    ``DenominatorData.keep`` is the one owner of the structures derived
    from (C, D, S, T); a module setting ``dd.x`` or ``dd.x[k]`` bypasses it.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for leaf in (leaf for target in targets for leaf in ast.walk(target)):
            if not isinstance(getattr(leaf, "ctx", None), ast.Store):
                continue
            while isinstance(leaf, ast.Subscript):
                leaf = leaf.value
            if (
                isinstance(leaf, ast.Attribute)
                and isinstance(leaf.value, ast.Name)
                and leaf.value.id == "dd"
            ):
                found.append(f"{path.name}:{node.lineno}: dd.{leaf.attr}")
    return found


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_writes_derived_structures_onto_dd(path):
    assert writes_to_dd(path) == []


def test_write_to_dd_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "dd.partition = 1\n"
        "dd.blocks[(0, 1)] = 2\n"
        "dd.ranks, other = 3, 4\n"
        "dd.count += 1\n"
        "dd.derived[0][1] = 5\n"
        "self.partition = dd.partition\n"
        "value = dd.blocks[0]\n"
    )
    assert writes_to_dd(module) == [
        "m.py:1: dd.partition", "m.py:2: dd.blocks", "m.py:3: dd.ranks",
        "m.py:4: dd.count", "m.py:5: dd.derived",
    ]


def assert_statements(path: Path) -> list[str]:
    """Every ``assert`` statement of a module.

    ``python -O`` strips them, so a check the library relies on raises
    DomainError, AxiomError or InvariantError instead, and a theorem
    cross-check lives in the tests.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_assert_statements(path):
    assert assert_statements(path) == []


def test_assert_statement_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "assert ok\n"
        "def f(x):\n"
        "    assert x, 'message'\n"
        "    raise AssertionError('not a statement')\n"
        "asserted = 'assert x'\n"
    )
    assert assert_statements(module) == ["m.py:1", "m.py:3"]


def test_setup_import_loads_exactly_these_modules():
    # what a fresh ``import catfrac.cli`` loads is what every command pays
    # before it starts; transport stays behind its lazy import in cli
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, catfrac.cli; "
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'catfrac'))"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert loaded == [
        "catfrac", *(f"catfrac.{name}" for name in (
            "calculus", "cli", "core", "denominators", "fileio", "fraction",
            "instances", "three_arrows",
        )),
    ]
