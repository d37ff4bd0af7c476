"""The documented API: the README's Python examples and command line
transcripts run as written, and the package exports exactly the names it
lists."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import mvmodel
from mvmodel.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
# (command, output lines) of each "$ mvmodel ..." transcript in a text
# block; its output runs up to the next blank line.
TRANSCRIPTS = [
    (m[1], m[2].splitlines())
    for block in re.findall(r"^```text\n(.*?)^```$", README, re.M | re.S)
    for m in re.finditer(r"^\$ (mvmodel .*)\n((?:.+\n)*)", block, re.M)
]


def test_the_readme_has_python_examples():
    assert BLOCKS


def test_the_readme_has_command_transcripts():
    assert [command.split()[1] for command, _ in TRANSCRIPTS] == [
        "conflicts", "check", "oracle", "bench"
    ]


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(monkeypatch, capsys, index):
    """Each block runs on its own, from the repository root, so that the
    documented API and the shipped data paths cannot drift from the code."""
    monkeypatch.chdir(ROOT)
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


@pytest.mark.parametrize(
    "command, expected", TRANSCRIPTS, ids=[command.split()[1] for command, _ in TRANSCRIPTS]
)
def test_readme_command_transcript_runs(monkeypatch, capsys, command, expected):
    """Each transcript's command prints its lines, up to ``| head -N`` when
    it pipes into one. Bench timings vary from run to run, so only its task
    names and ``results`` column are compared."""
    monkeypatch.chdir(ROOT)
    command, _, head = command.partition(" | head -")
    assert main(shlex.split(command)[1:]) == 0
    lines = capsys.readouterr().out.splitlines()[: int(head) if head else None]
    if command.split()[1] == "bench":
        lines, expected = ([(row.split()[0], row.split()[-1]) for row in rows]
                           for rows in (lines, expected))
    assert lines == expected


def test_every_exported_name_resolves():
    """Each name in ``mvmodel.__all__`` resolves, and ``from mvmodel import *``
    binds exactly those names, so an API removal cannot leave a stale export."""
    missing = [name for name in mvmodel.__all__ if not hasattr(mvmodel, name)]
    assert missing == []
    namespace: dict = {}
    exec("from mvmodel import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mvmodel.__all__)
