"""Command line front end.

Exit codes: 0 success, 1 for model or data errors (and oracle or bench
mismatches), 2 for usage and I/O problems. Report commands exit 0 even
when they find violations; the findings are the output, not a failure.
They run their analysis first, which returns one ``(pattern name,
reports)`` group per pattern, then write the groups a chunk at a time.
Every command writes UTF-8 bytes, to ``-o FILE`` or to stdout.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

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
from .reports import LCP_MODES, total, write_json, write_text
from .tasks import TASKS


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


@contextmanager
def _output(out: str | None):
    """A ``write(str)`` that sends UTF-8 bytes to the file ``out`` or to
    stdout's buffer, whatever the encoding of stdout's text layer; a
    text-only stdout (such as ``io.StringIO``) gets the text."""
    if out is None and not hasattr(sys.stdout, "buffer"):
        yield sys.stdout.write
        return
    sys.stdout.flush()
    with open(out, "wb") if out is not None else nullcontext(sys.stdout.buffer) as f:
        yield lambda text: f.write(text.encode("utf-8"))
        f.flush()


def _emit(text: str, out: str | None) -> None:
    with _output(out) as write:
        write(text)


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
    subject = comb(versioning) if args.mode == "mvm" else versioning
    groups = getattr(task, args.mode)(subject, patterns, lcp)
    # Every analysis has run, so a failing verdict writes nothing.
    with _output(args.out) as write:
        if args.json:
            # pattern tasks report violations; the one without patterns, conflicts
            write_json(groups, args.command, "violations" if task.patterns else "conflicts", write)
        else:
            write_text(groups, write)
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
                lines.append(f"{label} ok results={total(folded)}")
            else:
                ok = False
                lines.append(f"{label} MISMATCH mvm={total(folded)} svm={total(plain)}")
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
