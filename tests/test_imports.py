"""Every module of the package uses what it imports, and every function
and class that it defines is named somewhere else."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import mvmodel

MODULES = sorted(p for p in Path(mvmodel.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
# Where a definition may be named: the code, its tests, the benchmark, the
# tools, the README, and pyproject.toml (which names the console entry).
SEARCHED = [*(p for d in ("src", "tests", "perfbench", "tools") for p in sorted((ROOT / d).rglob("*.py"))),
            ROOT / "README.md", ROOT / "pyproject.toml"]


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


def defined_names(source: str) -> list[str]:
    """The name of each function and class that ``source`` defines, at any
    depth, once per definition; dunder names are left out."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def dead_definitions(defined: list[str], texts: list[str]) -> list[str]:
    """The names in ``defined`` that ``texts``, which hold their
    definitions, name as a whole word no more often than they define them."""
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return sorted(name for name, n in Counter(defined).items() if words[name] <= n)


def test_every_definition_is_named_elsewhere():
    defined = [name for path in sorted((ROOT / "src" / "mvmodel").glob("*.py"))
               for name in defined_names(path.read_text(encoding="utf-8"))]
    texts = [path.read_text(encoding="utf-8") for path in SEARCHED]
    assert dead_definitions(defined, texts) == []


def test_a_dead_definition_is_found():
    source = "class A:\n    def run(self): pass\n    def stop(self): pass\n    def __init__(self): pass\n\nA().run()\n"
    assert sorted(defined_names(source)) == ["A", "run", "stop"]
    assert dead_definitions(defined_names(source), [source]) == ["stop"]
    assert dead_definitions(defined_names(source), [source, "a.stop()"]) == []
