"""Every module of the package uses each name it imports and binds each name it exports.

No linter ships with the package, so this stands in for an
unused-import check: a name bound by an import must be read somewhere
in the module (annotations count) or be listed in its ``__all__``.
``__init__`` only re-exports and is skipped there. Every name in a
module's ``__all__`` must be bound at its top level, and ``__init__``
may re-export only names that their module lists in ``__all__``. Every
top-level function or class is read somewhere in the package (as a
name or an attribute) or listed in its module's ``__all__``, so no dead
definition is left behind, and every field of a dataclass is read
somewhere in the package as an attribute, bar the few kept on purpose.
Every top-level helper of the tests is read by a test module.
``checks`` imports no test-only package and its ``trace_violation`` no
engine code it restates. All checks read the source with ``ast`` and import nothing.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "amcsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent


def exported(tree: ast.Module) -> list[str]:
    """The names in a module's ``__all__``, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


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
    public = set(exported(tree))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in public
    )


def test_detector_flags_an_unused_import():
    source = "import os\nfrom math import inf, pi as PI\n__all__ = ['inf']\nos.sep\n"
    assert unused_imports(source) == ["PI (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: defs, classes, assignments, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def tree_of(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def test_detector_flags_a_stale_export():
    tree = ast.parse("from .a import b\n__all__ = ['b', 'Gone', 'f']\ndef f(): pass\n")
    assert set(exported(tree)) - top_level_names(tree) == {"Gone"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    tree = ast.parse(path.read_text())
    assert sorted(set(exported(tree)) - top_level_names(tree)) == []


def test_package_reexports_only_exported_names():
    stale = []
    for node in tree_of("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = set(exported(tree_of(node.module)))
            stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert stale == []


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes that no module reads and no ``__all__`` lists.

    A parameter name counts as a read, so a pytest fixture is used by
    the tests that take it.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.arg):
                read.add(node.arg)
    return sorted(
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read
        and node.name not in exported(tree)
    )


def test_detector_flags_a_dead_definition():
    sources = {
        "a": "__all__ = ['f']\ndef f(): return _g()\ndef _g(): pass\ndef _orphan(): pass\n",
        "b": "from . import a\nclass Gone(Exception): pass\ndef h(): a._used()\n"
             "def _used(): pass\n",
        "c": "def fixture(): pass\ndef test_f(fixture): pass\n",
    }
    assert dead_definitions(sources) == ["a._orphan", "b.Gone", "b.h", "c.test_f"]


def test_no_dead_definitions():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert dead_definitions(sources) == []


def test_no_dead_test_helpers():
    # pytest finds tests by name, so only the helpers must be read.
    sources = {path.stem: path.read_text() for path in TESTS.glob("*.py")}
    dead = [name for name in dead_definitions(sources)
            if not name.split(".")[1].startswith(("test_", "Test"))]
    assert dead == []


# Dataclass fields that only tests read, each kept for its reason.
UNREAD_FIELDS_KEPT = [
    # The band's point estimate; the tests check that it is unbiased.
    "error_bounds.ErrorEstimate.r_n",
]


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Fields of ``@dataclass`` classes whose name no module reads as an attribute.

    A called attribute is a method, so ``"a,b".split(",")`` reads no field
    named ``split``.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    read = {
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and id(node) not in called
    }

    def is_dataclass(cls: ast.ClassDef) -> bool:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)

    return sorted(
        f"{name}.{cls.name}.{stmt.target.id}"
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
    )


def test_detector_flags_an_unread_field():
    # A field only ever assigned is unread; an unannotated class attribute is no field.
    source = "@dataclass(frozen=True)\nclass C:\n    x: int\n    y: int = 0\n    z = 1\n" \
             "def f(c): c.y = c.x\n"
    assert unread_fields({"a": source}) == ["a.C.y"]
    # A method call is no read of a field that shares its name.
    source = "@dataclass\nclass C:\n    split: str\nparts = 'a,b'.split(',')\n"
    assert unread_fields({"a": source}) == ["a.C.split"]
    # A copy of the package with one field added that nothing reads.
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    last = "    converged: bool = False\n"
    sources["estimators"] = sources["estimators"].replace(last, last + "    trained_on: int = 0\n")
    assert "estimators.MatrixEstimate.trained_on" in unread_fields(sources)


def test_every_dataclass_field_is_read():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_fields(sources) == UNREAD_FIELDS_KEPT


def independence_breaches(source: str) -> list[str]:
    """Engine names that ``trace_violation`` reads, were it to call the code
    it restates, and test-only packages the module imports."""
    tree = ast.parse(source)
    [law] = [n for n in tree.body if getattr(n, "name", None) == "trace_violation"]
    read = {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(law)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    packages = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names}
    packages |= {n.module.split(".")[0] for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.level == 0}
    return sorted(read & {"select_index", "_pick"}) + sorted(
        packages & {"hypothesis", "pytest", "scipy"}
    )


def test_detector_flags_engine_calls_and_test_imports():
    source = "import pytest\nfrom scipy import linalg\nfrom .a import b\n" \
             "def trace_violation(cfg, states): return b.select_index(states, 1.0)\n"
    assert independence_breaches(source) == ["select_index", "pytest", "scipy"]


def test_checks_independent_of_engine_and_tests():
    assert independence_breaches((PACKAGE / "checks.py").read_text()) == []
