"""Command line front end.

Exit codes: 0 success, 1 for model or data errors (and oracle or bench
mismatches), 2 for usage and I/O problems. Report commands exit 0 even
when they find violations; the findings are the output, not a failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import mcheck_mv, pcheck_m_mv, pcheck_mv
from .baseline import svm_check, svm_conflicts, svm_merge_check
from .bench import parse_bench_params, run_bench
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

_JSON_FORMAT = "mv-report/1"


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


def _pairs(items) -> str:
    return ",".join(f"{q}:{h}" for q, h in items)


def _violation_line(pattern: str, v: VersionedViolation) -> str:
    return (
        f"violation pattern={pattern} version={v.version}"
        f" nodes={_pairs(v.match.nodes)} edges={_pairs(v.match.edges)}"
    )


def _conflict_line(c: MergeConflictReport) -> str:
    return f"conflict left={c.left} right={c.right} base={c.base} edge={c.edge} node={c.node}"


def _merge_violation_line(pattern: str, r: MergeViolationReport) -> str:
    return (
        f"merge-violation pattern={pattern} left={r.left} right={r.right} base={r.base}"
        f" nodes={_pairs(r.match.nodes)} edges={_pairs(r.match.edges)}"
    )


def _render(lines: list[str], json_obj: dict, as_json: bool) -> str:
    if as_json:
        import json

        return json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    return "\n".join(lines + [f"total {json_obj['total']}"]) + "\n"


def _load_corpus(path: str):
    return parse_corpus(_read(path))


def _load_patterns(path: str, type_graph):
    return parse_constraints(_read(path), type_graph)


def cmd_validate(args) -> int:
    versioning = _load_corpus(args.corpus)
    n = len(versioning.store)
    _emit(f"ok versions={len(versioning.version_ids())} elements={n}\n", args.out)
    return 0


def cmd_project(args) -> int:
    versioning = _load_corpus(args.corpus)
    mvm = comb(versioning)
    model = mvm.proj(args.version)
    _emit(write_model(model, args.version).decode("utf-8"), args.out)
    return 0


def cmd_check(args) -> int:
    versioning = _load_corpus(args.corpus)
    patterns = _load_patterns(args.constraints, versioning.type_graph)
    if args.mode == "mvm":
        mvm = comb(versioning)
        found = [(p.name, v) for p in patterns for v in pcheck_mv(mvm, p)]
    else:
        found = [(p.name, v) for p in patterns for v in svm_check(versioning, p)]
    lines = [_violation_line(name, v) for name, v in found]
    obj = {
        "format": _JSON_FORMAT,
        "command": "check",
        "total": len(found),
        "violations": [
            {
                "pattern": name,
                "version": v.version,
                "nodes": {q: h for q, h in v.match.nodes},
                "edges": {q: h for q, h in v.match.edges},
            }
            for name, v in found
        ],
    }
    _emit(_render(lines, obj, args.json), args.out)
    return 0


def cmd_conflicts(args) -> int:
    versioning = _load_corpus(args.corpus)
    if args.mode == "mvm":
        found = mcheck_mv(comb(versioning), args.lcp)
    else:
        found = svm_conflicts(versioning, args.lcp)
    lines = [_conflict_line(c) for c in found]
    obj = {
        "format": _JSON_FORMAT,
        "command": "conflicts",
        "total": len(found),
        "conflicts": [
            {"left": c.left, "right": c.right, "base": c.base, "edge": c.edge, "node": c.node}
            for c in found
        ],
    }
    _emit(_render(lines, obj, args.json), args.out)
    return 0


def cmd_merge_check(args) -> int:
    versioning = _load_corpus(args.corpus)
    patterns = _load_patterns(args.constraints, versioning.type_graph)
    if args.mode == "mvm":
        mvm = comb(versioning)
        found = [(p.name, r) for p in patterns for r in pcheck_m_mv(mvm, p, args.lcp)]
    else:
        found = [(p.name, r) for p in patterns for r in svm_merge_check(versioning, p, args.lcp)]
    lines = [_merge_violation_line(name, r) for name, r in found]
    obj = {
        "format": _JSON_FORMAT,
        "command": "merge-check",
        "total": len(found),
        "violations": [
            {
                "pattern": name,
                "left": r.left,
                "right": r.right,
                "base": r.base,
                "nodes": {q: h for q, h in r.match.nodes},
                "edges": {q: h for q, h in r.match.edges},
            }
            for name, r in found
        ],
    }
    _emit(_render(lines, obj, args.json), args.out)
    return 0


def cmd_oracle(args) -> int:
    versioning = _load_corpus(args.corpus)
    patterns = _load_patterns(args.constraints, versioning.type_graph)
    mvm = comb(versioning)
    lines: list[str] = []
    ok = True

    folded = [(p.name, v) for p in patterns for v in pcheck_mv(mvm, p)]
    plain = [(p.name, v) for p in patterns for v in svm_check(versioning, p)]
    if folded == plain:
        lines.append(f"oracle check ok results={len(folded)}")
    else:
        ok = False
        lines.append(f"oracle check MISMATCH mvm={len(folded)} svm={len(plain)}")

    for mode in LCP_MODES:
        a = mcheck_mv(mvm, mode)
        b = svm_conflicts(versioning, mode)
        if a == b:
            lines.append(f"oracle conflicts lcp={mode} ok results={len(a)}")
        else:
            ok = False
            lines.append(f"oracle conflicts lcp={mode} MISMATCH mvm={len(a)} svm={len(b)}")

    for mode in LCP_MODES:
        a2 = [(p.name, r) for p in patterns for r in pcheck_m_mv(mvm, p, mode)]
        b2 = [(p.name, r) for p in patterns for r in svm_merge_check(versioning, p, mode)]
        if a2 == b2:
            lines.append(f"oracle merge-check lcp={mode} ok results={len(a2)}")
        else:
            ok = False
            lines.append(f"oracle merge-check lcp={mode} MISMATCH mvm={len(a2)} svm={len(b2)}")

    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_generate(args) -> int:
    params = parse_generator_params(_read(args.params))
    versioning = generate_versioning(params)
    _emit(write_corpus(versioning).decode("utf-8"), args.out)
    return 0


def cmd_export_mvm(args) -> int:
    versioning = _load_corpus(args.corpus)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmodel", description="Multi-version model storage, checking, and merge analysis."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, constraints=False, mode=False, lcp=False):
        p.add_argument("-o", "--out", help="write output to this file instead of stdout")
        if constraints:
            p.add_argument("--constraints", required=True, help="constraint patterns file")
        if mode:
            p.add_argument(
                "--mode",
                choices=("mvm", "svm"),
                default="mvm",
                help="mvm analyses the folded history, svm walks each version",
            )
        if lcp:
            p.add_argument(
                "--lcp",
                choices=LCP_MODES,
                default="all",
                help="consider all merge bases per pair, or a single one",
            )

    p = sub.add_parser("validate", help="parse a corpus and run all well-formedness checks")
    p.add_argument("corpus")
    add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("project", help="extract one version as a plain model")
    p.add_argument("corpus")
    p.add_argument("--version", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("check", help="find constraint violations in every version")
    p.add_argument("corpus")
    add_common(p, constraints=True, mode=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("conflicts", help="find merge conflicts between version pairs")
    p.add_argument("corpus")
    add_common(p, mode=True, lcp=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_conflicts)

    p = sub.add_parser(
        "merge-check", help="find constraint violations in prospective merge results"
    )
    p.add_argument("corpus")
    add_common(p, constraints=True, mode=True, lcp=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_merge_check)

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
