"""Report types shared by the folded analyses and the per-version baseline.

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
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import Match

LCP_MODES = ("all", "single")


def check_lcp_mode(mode: str) -> None:
    if mode not in LCP_MODES:
        raise ValueError(f"lcp mode must be one of {LCP_MODES}, got {mode!r}")


def drawn_bases(
    table: Mapping[tuple[str, str], frozenset[str]], mode: str
) -> dict[frozenset[str], tuple[str, ...]]:
    """The merge bases analysed per lcp mode, for each distinct merge-base
    set in a table: all of them in id order (``all``) or the least id
    (``single``)."""
    check_lcp_mode(mode)
    return {
        bases: (min(bases),) if mode == "single" else tuple(sorted(bases))
        for bases in set(table.values())
        if bases
    }


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
    """Every report as a row, in lists of at most ``_CHUNK``, filled column
    by column into one ``str.format`` template per group. ``template(kind,
    keys)`` gets each output key with its field: ``{0}`` for the pattern
    name, ``{k}`` for value k and ``{k[j]}`` for part j of a Match. Names
    and values are arguments, never pasted into the template; each distinct
    Match's parts are ``render``ed once, and other values ``encode``d."""
    for name, reports in groups:
        if not reports:
            continue
        first = reports[0]
        done: dict[Match, tuple[str, ...]] = {}
        cell = lambda m: done.get(m) or done.setdefault(m, tuple(map(render, m)))
        keys, cells = [("pattern", "{0}")] * (name is not None), []
        for k, (field, value) in enumerate(zip(first._fields, first), 1):
            if isinstance(value, Match):
                keys += [(part, f"{{{k}[{j}]}}") for j, part in enumerate(value._fields)]
                cells.append(cell)
            else:
                keys.append((field, f"{{{k}}}"))
                cells.append(encode)
        row = template(_KINDS[type(first)], keys).format
        name = encode(name) if encode and name is not None else name
        for start in range(0, len(reports), _CHUNK):
            columns = list(zip(*reports[start : start + _CHUNK]))
            for k, f in enumerate(cells):
                if f:
                    columns[k] = map(f, columns[k])
            yield list(map(row, repeat(name), *columns))


def write_text(groups: Groups, write: Callable[[str], object]) -> None:
    """Text lines: the kind, then ``key=value`` for the pattern name when
    there is one and for each field, a Match as ``nodes=`` and ``edges=``
    lists of ``pattern id:host id``; then ``total N``."""
    text_row = lambda kind, keys: " ".join([kind] + [f"{k}={f}" for k, f in keys])
    for lines in _chunks(groups, text_row, lambda pairs: ",".join(map(":".join, pairs)), None):
        write("\n".join(lines) + "\n")
    write(f"total {total(groups)}\n")


def _json_row(kind: str, keys: list[tuple[str, str]]) -> str:
    return "    {{\n" + ",\n".join(f'      "{k}": {f}' for k, f in sorted(keys)) + "\n    }}"


def _json_object(pairs: tuple[tuple[str, str], ...]) -> str:
    items = ",\n".join(f"        {_json_str(k)}: {_json_str(v)}" for k, v in pairs)
    return "{\n" + items + "\n      }" if pairs else "{}"


def write_json(groups: Groups, command: str, key: str, write: Callable[[str], object]) -> None:
    """An ``mv-report/1`` document with the reports under ``key``, byte for
    byte what ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` gives."""
    n = total(groups)
    doc = {"command": command, "format": _JSON_FORMAT, "total": n, key: None}
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition(f'"{key}": null')
    write(f'{head}"{key}": [')
    sep = "\n"
    for rows in _chunks(groups, _json_row, _json_object, _json_str):
        write(sep + ",\n".join(rows))
        sep = ",\n"
    write(("\n  ]" if n else "]") + tail + "\n")
