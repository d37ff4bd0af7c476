"""The documented API: the README's Python examples run as written, and
the package exports exactly the names it lists."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import mvmodel

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(monkeypatch, capsys, index):
    """Each block runs on its own, from the repository root, so that the
    documented API and the shipped data paths cannot drift from the code."""
    monkeypatch.chdir(ROOT)
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_every_exported_name_resolves():
    """Each name in ``mvmodel.__all__`` resolves, and ``from mvmodel import *``
    binds exactly those names, so an API removal cannot leave a stale export."""
    missing = [name for name in mvmodel.__all__ if not hasattr(mvmodel, name)]
    assert missing == []
    namespace: dict = {}
    exec("from mvmodel import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mvmodel.__all__)
