"""Every module of the package uses each name it imports.

No linter ships with the package, so this stands in for an
unused-import check: a name bound by an import must be read somewhere
in the module (annotations count) or be listed in its ``__all__``.
``__init__`` only re-exports and is skipped.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "amcsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_detector_flags_an_unused_import():
    source = "import os\nfrom math import inf, pi as PI\n__all__ = ['inf']\nos.sep\n"
    assert unused_imports(source) == ["PI (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
