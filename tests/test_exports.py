"""Every name the package exports, and every public function and class of
its modules, is used by the library itself.

A name that only tests call belongs in the tests, as an oracle, and not in
the package's public surface.
"""

import ast
from pathlib import Path

import pytest

import containment

SRC = Path(containment.__file__).resolve().parent


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names():
    """Names read as a bare name or as an attribute in the modules other than
    ``__init__.py``."""
    seen = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def script_entries():
    """Names of the functions that ``[project.scripts]`` in pyproject.toml
    runs: the console scripts read them."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    return {target.rpartition(":")[2] for target in scripts.values()}


def test_every_export_is_used_by_the_library():
    assert sorted(exported_names() - referenced_names()) == []


def test_every_public_definition_is_read_by_the_library():
    read = referenced_names() | script_entries()
    unread = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert unread == []


def test_every_import_is_read_in_its_module():
    """No library module imports a name only to pass it on; ``__init__.py``
    is the one module that re-exports."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread.extend(f"{path.stem}.{name}" for name in sorted(imported - read - {"annotations"}))
    assert unread == []
