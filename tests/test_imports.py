"""Every module of the package uses what it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import mvmodel

MODULES = sorted(p for p in Path(mvmodel.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by import, other than from
    ``__future__``, and never reads."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["b", "os"]
