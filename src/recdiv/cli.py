"""Command-line interface: eval, table, records, tree, verify.

Exit codes: 0 success, 1 I/O failure, 2 usage, 3 overflow guard,
4 memory guard, 5 verification failure, 6 work budget exceeded,
7 internal check failed (two routes to the same value disagreed).
"""

from __future__ import annotations

import argparse
import sys

from . import formats, records, sieve, verify
from .core import profile
from .errors import BudgetError, MemoryGuardError
from .tree import SvgStyle, layout, self_overlap, to_svg

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_MEMORY = 4
EXIT_VERIFY = 5
EXIT_BUDGET = 6
EXIT_INTERNAL = 7


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _format_arg(text: str) -> formats.ExportFormat:
    try:
        return formats.ExportFormat(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown format {text!r}; use csv, json, or bfile")


def cmd_eval(args: argparse.Namespace) -> int:
    p = profile(args.n)
    print(f"n={p.n}")
    print(f"factorization={p.factorization}")
    print(f"d={p.d} sigma={p.sigma}")
    print(f"a={p.a} b={p.b} g={p.g}")
    print(f"A={p.A} B={p.B}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    arr = sieve.table_array(args.fn, args.max, max_memory=args.max_memory)
    text = formats.format_table(args.fn, arr[1:].tolist(), args.format)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_records(args: argparse.Namespace) -> int:
    kinds = records.parse_kinds(args.kinds)
    table = records.sieve_records(args.max, kinds, max_memory=args.max_memory)
    text = formats.format_records(table, args.format)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_tree(args: argparse.Namespace) -> int:
    style = SvgStyle(
        stroke_width=args.stroke_width,
        margin=args.margin,
        shade_by_depth=not args.no_shading,
    )
    tree = layout(args.n, budget=args.budget)
    _write_output(to_svg(tree, style), args.output)
    print(f"squares={tree.square_count} sidesum={tree.side_sum}")
    if args.check_overlap:
        print(f"overlaps={len(self_overlap(tree))}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suite(args.suite, args.max, max_memory=args.max_memory)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recdiv",
        description="Recursive divisor function toolkit: exact evaluators, sieves, "
        "record searches, divisor-tree rendering, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print the divisor profile of one integer")
    p_eval.add_argument("n", type=_positive_int)
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="sieve a value table over 1..max")
    p_table.add_argument("fn", choices=sorted(sieve.TABLE_BUILDERS))
    p_table.add_argument("max", type=_positive_int)
    p_table.add_argument("--format", type=_format_arg, default=formats.ExportFormat.CSV)
    p_table.add_argument("-o", "--output", default=None)
    p_table.add_argument("--max-memory", type=int, default=None, help="sieve budget in bytes")
    p_table.set_defaults(func=cmd_table)

    p_records = sub.add_parser("records", help="search record-setting integers up to max")
    p_records.add_argument("kinds", help="comma list of RHC,RSA,HC,SA or 'all'")
    p_records.add_argument("max", type=_positive_int)
    p_records.add_argument("--format", type=_format_arg, default=formats.ExportFormat.CSV)
    p_records.add_argument("-o", "--output", default=None)
    p_records.add_argument("--max-memory", type=int, default=None, help="sieve budget in bytes")
    p_records.set_defaults(func=cmd_records)

    p_tree = sub.add_parser("tree", help="render the divisor tree of n as SVG")
    p_tree.add_argument("n", type=_positive_int)
    p_tree.add_argument("-o", "--output", default=None, help="SVG path (default stdout)")
    p_tree.add_argument("--stroke-width", type=float, default=1.0)
    p_tree.add_argument("--margin", type=int, default=2)
    p_tree.add_argument("--no-shading", action="store_true")
    p_tree.add_argument("--check-overlap", action="store_true")
    p_tree.add_argument("--budget", type=int, default=1_000_000, help="square-count budget")
    p_tree.set_defaults(func=cmd_tree)

    p_verify = sub.add_parser("verify", help="run a cross-check suite")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES))
    p_verify.add_argument("max", nargs="?", type=_positive_int, default=None)
    p_verify.add_argument("--max-memory", type=int, default=None, help="sieve budget in bytes")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
