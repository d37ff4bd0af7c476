"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

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
