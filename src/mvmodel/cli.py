"""Command line front end.

Exit codes: 0 success, 1 for model or data errors (and oracle or bench
mismatches), 2 for usage and I/O problems. Report commands exit 0 even
when they find violations; the findings are the output, not a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import parse_bench_params, run_bench
from .core import Match
from .corpus import (
    parse_constraints,
    parse_corpus,
    write_corpus,
    write_model,
    write_mv_encoding,
)
from .errors import ModelError
from .generate import generate_versioning, parse_generator_params
from .mvm import comb
from .reports import LCP_MODES, MergeConflictReport, MergeViolationReport, VersionedViolation
from .tasks import TASKS

_JSON_FORMAT = "mv-report/1"


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


def _pairs(items) -> str:
    return ",".join(map(":".join, items))


# Each report type's leading word in text output.
_KINDS = {
    VersionedViolation: "violation",
    MergeConflictReport: "conflict",
    MergeViolationReport: "merge-violation",
}


def _lines(found) -> list[str]:
    """Text lines: the kind, ``pattern=`` when named, then each field, a
    Match split into ``nodes`` and ``edges``. Each report type has one
    ``str.format`` template whose arguments are the name and the values
    (never pasted into it); each distinct Match is rendered once."""
    templates, rendered, lines = {}, {}, []
    for name, report in found:
        key = type(report), name is None
        if key not in templates:
            at = [k for k, value in enumerate(report) if isinstance(value, Match)]
            words = [_KINDS[key[0]]] + ["pattern={}"] * (name is not None)
            words += ["{}" if k in at else f"{f}={{}}" for k, f in enumerate(report._fields)]
            templates[key] = " ".join(words).format, at
        template, at = templates[key]
        if at:
            report = list(report)
            for k in at:
                m = report[k]
                if m not in rendered:
                    rendered[m] = f"nodes={_pairs(m.nodes)} edges={_pairs(m.edges)}"
                report[k] = rendered[m]
        lines.append(template(*report) if name is None else template(name, *report))
    return lines


def _row(name: str | None, report) -> dict:
    """A report's JSON row, with the same keys as its text line."""
    row = {} if name is None else {"pattern": name}
    for field, value in zip(report._fields, report):
        if isinstance(value, Match):
            row["nodes"], row["edges"] = dict(value.nodes), dict(value.edges)
        else:
            row[field] = value
    return row


def cmd_validate(args) -> int:
    versioning = parse_corpus(_read(args.corpus))
    n = len(versioning.store)
    _emit(f"ok versions={len(versioning.version_ids())} elements={n}\n", args.out)
    return 0


def cmd_project(args) -> int:
    versioning = parse_corpus(_read(args.corpus))
    mvm = comb(versioning)
    model = mvm.proj(args.version)
    _emit(write_model(model, args.version).decode("utf-8"), args.out)
    return 0


def cmd_report(args) -> int:
    task = TASKS[args.command]
    versioning = parse_corpus(_read(args.corpus))
    patterns = []
    if task.patterns:
        patterns = parse_constraints(_read(args.constraints), versioning.type_graph)
    lcp = args.lcp if task.lcp else None
    if args.mode == "mvm":
        found = task.mvm(comb(versioning), patterns, lcp)
    else:
        found = task.svm(versioning, patterns, lcp)
    if args.json:
        obj = {
            "format": _JSON_FORMAT,
            "command": args.command,
            "total": len(found),
            # pattern tasks report violations; the one without patterns, conflicts
            "violations" if task.patterns else "conflicts": [_row(n, r) for n, r in found],
        }
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(_lines(found) + [f"total {len(found)}"]) + "\n"
    _emit(text, args.out)
    return 0


def cmd_oracle(args) -> int:
    versioning = parse_corpus(_read(args.corpus))
    patterns = parse_constraints(_read(args.constraints), versioning.type_graph)
    mvm = comb(versioning)
    lines: list[str] = []
    ok = True
    for name, task in TASKS.items():
        for lcp in LCP_MODES if task.lcp else (None,):
            label = f"oracle {name}" if lcp is None else f"oracle {name} lcp={lcp}"
            folded = task.mvm(mvm, patterns, lcp)
            plain = task.svm(versioning, patterns, lcp)
            if folded == plain:
                lines.append(f"{label} ok results={len(folded)}")
            else:
                ok = False
                lines.append(f"{label} MISMATCH mvm={len(folded)} svm={len(plain)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_generate(args) -> int:
    params = parse_generator_params(_read(args.params))
    versioning = generate_versioning(params)
    _emit(write_corpus(versioning).decode("utf-8"), args.out)
    return 0


def cmd_export_mvm(args) -> int:
    versioning = parse_corpus(_read(args.corpus))
    mvm = comb(versioning)
    _emit(write_mv_encoding(mvm).decode("utf-8"), args.out)
    return 0


def cmd_bench(args) -> int:
    params = parse_bench_params(_read(args.params))
    patterns = None
    if params.constraints is not None:
        path = Path(args.params).parent / params.constraints
        from .oo import oo_type_graph

        patterns = parse_constraints(path.read_bytes(), oo_type_graph())
    report = run_bench(params, repeat=args.repeat, patterns=patterns)
    _emit(report.to_json() if args.json else report.to_text(), args.out)
    return 0


_REPORT_HELP = {
    "check": "find constraint violations in every version",
    "conflicts": "find merge conflicts between version pairs",
    "merge-check": "find constraint violations in prospective merge results",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmodel", description="Multi-version model storage, checking, and merge analysis."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, constraints=False):
        p.add_argument("-o", "--out", help="write output to this file instead of stdout")
        if constraints:
            p.add_argument("--constraints", required=True, help="constraint patterns file")

    p = sub.add_parser("validate", help="parse a corpus and run all well-formedness checks")
    p.add_argument("corpus")
    add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("project", help="extract one version as a plain model")
    p.add_argument("corpus")
    p.add_argument("--version", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_project)

    for name, task in TASKS.items():
        p = sub.add_parser(name, help=_REPORT_HELP[name])
        p.add_argument("corpus")
        add_common(p, constraints=task.patterns)
        p.add_argument(
            "--mode",
            choices=("mvm", "svm"),
            default="mvm",
            help="mvm analyses the folded history, svm walks each version",
        )
        if task.lcp:
            p.add_argument(
                "--lcp",
                choices=LCP_MODES,
                default="all",
                help="consider all merge bases per pair, or a single one",
            )
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_report)

    p = sub.add_parser("oracle", help="run every analysis in both modes and compare")
    p.add_argument("corpus")
    add_common(p, constraints=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("generate", help="produce a corpus from generator parameters")
    p.add_argument("--params", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("export-mvm", help="write the folded single-graph encoding")
    p.add_argument("corpus")
    add_common(p)
    p.set_defaults(fn=cmd_export_mvm)

    p = sub.add_parser("bench", help="time the folded route against the per-version route")
    p.add_argument("--params", required=True)
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--json", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
