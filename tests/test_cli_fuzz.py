"""Mutated input files: every command either answers or fails with one
``error:`` line, and a corpus that validates passes the oracle. Corpora
and constraint files go through every corpus command; generator and
bench parameter files through ``generate`` and ``bench``."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mvmodel.cli import main
from mvmodel.generate import GeneratorParams, write_generator_params

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SHIPPED = [
    ("running.corpus.json", "running_constraints.json"),
    ("oo_project.corpus.json", "oo_constraints.json"),
]
DOCUMENTS = {
    name: json.loads((DATA_DIR / name).read_text()) for pair in SHIPPED for name in pair
}

# New values are small, so no mutation can ask for a large allocation.
# The strings include ids and type names the shipped files use, so that a
# mutation can also make a different well-formed corpus.
STRINGS = ["", "x", "a:b", "c1", "c4", "M_1", "M_3", "v0", "v3", "Class", "superclass"]
VALUES = st.one_of(
    st.integers(-2, 3),
    st.booleans(),
    st.none(),
    st.sampled_from(STRINGS),
    st.builds(list),
    st.builds(dict),
)


def mutate(data, doc, values=VALUES, keys=STRINGS):
    """Replace, add or delete one key or item somewhere in ``doc``."""
    node = doc
    while True:
        children = list(node) if isinstance(node, dict) else range(len(node))
        descend = [k for k in children if isinstance(node[k], (dict, list))]
        if not descend or data.draw(st.booleans()):
            break
        node = node[data.draw(st.sampled_from(descend))]
    ops = ["add"] + (["replace", "delete"] if node else [])
    op = data.draw(st.sampled_from(ops))
    if isinstance(node, dict):
        key = data.draw(st.sampled_from(keys if op == "add" else sorted(node)))
        if op == "delete":
            del node[key]
        else:
            node[key] = data.draw(values)
    elif op == "add":
        node.insert(data.draw(st.integers(0, len(node))), data.draw(values))
    else:
        k = data.draw(st.integers(0, len(node) - 1))
        if op == "delete":
            del node[k]
        else:
            node[k] = data.draw(values)


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_inputs_fail_with_one_error_line(data):
    corpus_name, constraints_name = data.draw(st.sampled_from(SHIPPED))
    docs = {name: copy.deepcopy(DOCUMENTS[name]) for name in (corpus_name, constraints_name)}
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, docs[data.draw(st.sampled_from(sorted(docs)))])
    root = DOCUMENTS[corpus_name]["root"]
    with tempfile.TemporaryDirectory() as tmp:
        corpus, constraints = (str(Path(tmp) / name) for name in (corpus_name, constraints_name))
        for name, doc in docs.items():
            (Path(tmp) / name).write_text(json.dumps(doc))
        commands = {
            "validate": ["validate", corpus],
            "project": ["project", corpus, "--version", root],
            "oracle": ["oracle", corpus, "--constraints", constraints],
            "export-mvm": ["export-mvm", corpus],
        }
        for mode in ("mvm", "svm"):
            commands[f"conflicts {mode}"] = ["conflicts", corpus, "--mode", mode]
            for command in ("check", "merge-check"):
                commands[f"{command} {mode}"] = [
                    command, corpus, "--constraints", constraints, "--mode", mode
                ]
        codes = {}
        for label, argv in commands.items():
            codes[label], err = run(argv)
            assert codes[label] in (0, 1, 2), label
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), label
    if codes["validate"] == 0 and codes["check mvm"] == 0:
        assert codes["oracle"] == 0


# Parameter files size a run, so their new values come from a fixed pool
# whose integers stay at most 8: no draw can start a large run.
PARAM_VALUES = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 8, 0.5, 1.5, True, None, "", "x", "all", "single",
                     "check", "conflicts", "merge-check", "oo_constraints.json"]),
    st.builds(list),
    st.builds(dict),
)
PARAM_FIELDS = [f.name for f in fields(GeneratorParams)]
PARAM_KEYS = ["x", "format", "corpus", "tasks", "constraints", "lcp", *PARAM_FIELDS]
SMALL_CORPUS = json.loads(write_generator_params(GeneratorParams(base_size=8, version_count=6)))
PARAM_DOCUMENTS = {
    "generate": SMALL_CORPUS,
    "bench": {
        "format": "mv-bench/1",
        "corpus": {k: v for k, v in SMALL_CORPUS.items() if k != "format"},
        "tasks": ["check", "conflicts", "merge-check"],
        "constraints": "oo_constraints.json",
        "lcp": "all",
    },
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_parameter_files_fail_with_one_error_line(data):
    command = data.draw(st.sampled_from(sorted(PARAM_DOCUMENTS)))
    doc = copy.deepcopy(PARAM_DOCUMENTS[command])
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc, PARAM_VALUES, PARAM_KEYS)
    with tempfile.TemporaryDirectory() as tmp:
        params = Path(tmp) / "params.json"
        params.write_text(json.dumps(doc))
        constraints = "oo_constraints.json"
        (Path(tmp) / constraints).write_bytes((DATA_DIR / constraints).read_bytes())
        argv = [command, "--params", str(params), "-o", str(Path(tmp) / "out")]
        code, err = run(argv + (["--repeat", "1"] if command == "bench" else []))
    assert code in (0, 1, 2), argv
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
