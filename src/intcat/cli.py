"""Command line entry points.

Exit status: 0 when every task finished or refused with evidence, 1 when
any task ended in an engine error, 2 for a bad option or for unreadable or
unparseable input. A refusal is a result, not a failure, so it does not
change the status.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .formats import ParseError, parse_document
from .runner import explain_document, render_human, render_machine, run_document


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="intcat",
        description="run category-theoretic tasks from a document")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="path to a document")
        sp.add_argument("--max-size", type=int, default=512,
                        help="largest stage carrier accepted (default 512)")

    sp = sub.add_parser("validate", help="parse and resolve, then stop")
    common(sp)

    sp = sub.add_parser("run", help="execute the task list")
    common(sp)
    sp.add_argument("--task", action="append", default=None, metavar="NAME",
                    help="keep tasks whose op or argument equals NAME "
                         "(repeatable)")
    sp.add_argument("--format", choices=("human", "machine"), default="human",
                    help="report rendering (default human)")
    sp.add_argument("--seed", type=int, default=0,
                    help="recorded in the report (the engine is deterministic)")
    sp.add_argument("--timing", action="store_true",
                    help="attach wall-clock timing outside the digest")

    sp = sub.add_parser("explain", help="describe declarations and tasks")
    common(sp)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.max_size < 1:
        parser.error(f"argument --max-size: must be at least 1, got {args.max_size}")
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        doc = parse_document(text, max_size=args.max_size)
    except ParseError as e:
        print(f"{args.input}:{e}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"{args.input}: ok ({len(doc.declarations)} declarations, "
              f"{len(doc.tasks)} tasks)")
        return 0
    if args.command == "explain":
        sys.stdout.write(explain_document(doc))
        return 0

    report = run_document(doc, only=args.task, seed=args.seed,
                          timing=args.timing)
    render = render_machine if args.format == "machine" else render_human
    sys.stdout.write(render(report))
    if any(e["outcome"] == "error" for e in report["tasks"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
