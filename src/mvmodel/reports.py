"""Report types shared by the folded analyses and the per-version baseline,
and their text and JSON writers; this module holds nothing else.

All reports are normalised: version pairs are ordered by id, and report
lists are sorted, so the two analysis routes can be compared with plain
equality. Reports (and the ``Match`` inside them) are named tuples: they
compare and sort field by field in declaration order, so a plain
``sorted`` gives the report order, and they unpack like tuples. The text
and JSON writers hand ``write`` a few thousand rows at a time.
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import Match
from .corpus import _render


class VersionedViolation(NamedTuple):
    """A pattern embedding found in one version."""

    version: str
    match: Match


class MergeConflictReport(NamedTuple):
    """An insert-delete conflict for the merge of two versions over a base.

    ``left`` < ``right`` by id order; ``base`` is a latest common
    predecessor of the pair; ``edge`` is the created edge whose endpoint
    ``node`` the other side deleted.
    """

    left: str
    right: str
    base: str
    edge: str
    node: str


class MergeViolationReport(NamedTuple):
    """A pattern embedding that survives the deletion-prioritising merge."""

    left: str
    right: str
    base: str
    match: Match


Groups = list[tuple[str | None, Sequence[tuple]]]  # (pattern name or None, reports)

_JSON_FORMAT = "mv-report/1"
_KINDS = {  # each report type's leading word in text output
    VersionedViolation: "violation",
    MergeConflictReport: "conflict",
    MergeViolationReport: "merge-violation",
}
_CHUNK = 4096  # rows rendered and written at a time


def total(groups: Groups) -> int:
    return sum(len(reports) for _, reports in groups)


def _chunks(groups: Groups, template, render, encode) -> Iterable[list[str]]:
    """Every report as a row, in lists of at most ``_CHUNK``: one template
    per group, its literal pieces joined with the row's values.
    ``template(kind, keys)`` gets ``(key, field, part)`` per output key
    (field None for the pattern name, part j of a Match, else None) and
    returns the pieces that go before, between and after the values, and
    the keys in their order. Names and values are joined in, never pasted
    into the pieces; each Match object's parts are ``render``ed once, and
    other values ``encode``d. Both routes hold one object per distinct
    Match, so the cache is keyed by object, which the reports keep alive."""
    for name, reports in groups:
        if not reports:
            continue
        first = reports[0]
        done: dict[int, tuple[str, ...]] = {}
        cell = lambda m: done.get(id(m)) or done.setdefault(id(m), tuple(map(render, m)))
        keys = [("pattern", None, None)] * (name is not None)
        for k, (field, value) in enumerate(zip(first._fields, first)):
            parts = enumerate(value._fields) if isinstance(value, Match) else [(None, field)]
            keys += [(key, k, j) for j, key in parts]
        pieces, keys = template(_KINDS[type(first)], keys)
        matched = {k for _, k, j in keys if j is not None}
        name = encode(name) if encode and name is not None else name
        for start in range(0, len(reports), _CHUNK):
            chunk = reports[start : start + _CHUNK]
            fields = list(zip(*chunk))
            rendered = {k: list(zip(*map(cell, fields[k]))) for k in matched}
            columns = [repeat(pieces[0])]
            for piece, (_, k, j) in zip(pieces[1:], keys):
                columns.append(repeat(name) if k is None else rendered[k][j] if j is not None
                               else map(encode, fields[k]) if encode else fields[k])
                columns.append(repeat(piece))
            yield list(map("".join, zip(*columns)))


def write_text(groups: Groups, write: Callable[[str], object]) -> None:
    """Text lines: the kind, then ``key=value`` for the pattern name when
    there is one and for each field, a Match as ``nodes=`` and ``edges=``
    lists of ``pattern id:host id``; then ``total N``."""
    for lines in _chunks(groups, _text_row, lambda pairs: ",".join(map(":".join, pairs)), None):
        write("\n".join(lines) + "\n")
    write(f"total {total(groups)}\n")


def _text_row(kind: str, keys: list[tuple]) -> tuple[list[str], list[tuple]]:
    heads = [f" {k}=" for k, *_ in keys]
    return [kind + heads[0], *heads[1:], ""], keys


def _json_row(kind: str, keys: list[tuple]) -> tuple[list[str], list[tuple]]:
    keys = sorted(keys)  # by key: no two keys of a row share a name
    heads = [f'      "{k}": ' for k, *_ in keys]
    return ["    {\n" + heads[0], *[",\n" + head for head in heads[1:]], "\n    }"], keys


def write_json(groups: Groups, command: str, key: str, write: Callable[[str], object]) -> None:
    """An ``mv-report/1`` document with the reports under ``key``, byte for
    byte what ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` gives."""
    n = total(groups)
    doc = {"command": command, "format": _JSON_FORMAT, "total": n, key: None}
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition(f'"{key}": null')
    write(f'{head}"{key}": [')
    sep = "\n"
    json_object = lambda pairs: _render(dict(pairs), "\n      ")  # a Match part, keys sorted
    for rows in _chunks(groups, _json_row, json_object, _json_str):
        write(sep + ",\n".join(rows))
        sep = ",\n"
    write(("\n  ]" if n else "]") + tail + "\n")
