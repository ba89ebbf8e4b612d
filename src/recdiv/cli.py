"""Command-line interface: eval, table, records, tree, verify.

Exit codes: 0 success, 1 I/O failure, 2 usage, 3 overflow guard,
4 memory guard, 5 verification failure, 6 work budget exceeded,
7 internal check failed (two routes to the same value disagreed).

`main` may be called many times in one process. It builds its parser once,
on the first call, and every later call parses with that same parser.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterable

from . import formats, records, sieve, verify
from .core import profile
from .errors import BudgetError, MemoryGuardError
from .tree import DEFAULT_SQUARE_BUDGET, SvgStyle, layout, self_overlap, svg_chunks

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_MEMORY = 4
EXIT_VERIFY = 5
EXIT_BUDGET = 6
EXIT_INTERNAL = 7


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write chunks in order to stdout, or to path when one is given."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _format_arg(text: str) -> formats.ExportFormat:
    try:
        return formats.ExportFormat(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown format {text!r}; use csv, json, or bfile")


def _past_int_str_limit(what: str) -> str:
    return (
        f"{what} more than {sys.get_int_max_str_digits()} digits, the int-to-str limit; "
        "sys.set_int_max_str_digits or PYTHONINTMAXSTRDIGITS sets it"
    )


def _field(name: str, value: object) -> str:
    try:
        return f"{name}={value}"
    except ValueError:
        raise OverflowError(_past_int_str_limit(f"eval cannot print {name}: it has")) from None


def cmd_eval(args: argparse.Namespace) -> int:
    p = profile(args.n)
    # Every line is composed before any is written, so a refusal prints nothing.
    lines = (("n",), ("factorization",), ("d", "sigma"), ("a", "b", "g"), ("A", "B"))
    text = "".join(" ".join(_field(k, getattr(p, k)) for k in line) + "\n" for line in lines)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    arr = sieve.table_array(args.fn, args.max, max_memory=args.max_memory)
    _write_output(formats.table_chunks(args.fn, arr[1:], args.format), args.output)
    return EXIT_OK


def cmd_records(args: argparse.Namespace) -> int:
    kinds = records.parse_kinds(args.kinds)
    table = records.search_records(args.max, kinds)
    _write_output((formats.format_records(table, args.format),), args.output)
    return EXIT_OK


def cmd_tree(args: argparse.Namespace) -> int:
    style = SvgStyle(
        stroke_width=args.stroke_width,
        margin=args.margin,
        shade_by_depth=not args.no_shading,
    )
    tree = layout(args.n, budget=args.budget)
    _write_output(svg_chunks(tree, style), args.output)
    # With the SVG on stdout, the summary goes to stderr so stdout stays a valid document.
    summary = sys.stderr if args.output is None else sys.stdout
    print(f"squares={tree.square_count} sidesum={tree.side_sum}", file=summary)
    if args.check_overlap:
        print(f"overlaps={len(self_overlap(tree))}", file=summary)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suite(args.suite, args.max)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # Digits fail int() only past the int-to-str limit; count them, do not echo them.
        if text.isdecimal():
            refusal = f"expected a positive integer, got {len(text)} digits,"
            raise argparse.ArgumentTypeError(_past_int_str_limit(refusal)) from None
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """Return the recdiv parser, built on the first call and shared after it.

    Parsing leaves a parser as it was: each parse returns a fresh namespace,
    so no option of one call carries over to the next.
    """
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
    p_table.add_argument(
        "--max-memory", type=_positive_int, default=None, help="sieve budget in bytes"
    )
    p_table.set_defaults(func=cmd_table)

    p_records = sub.add_parser("records", help="search record-setting integers up to max")
    p_records.add_argument("kinds", help="comma list of RHC,RSA,HC,SA or 'all'")
    p_records.add_argument("max", type=_positive_int)
    p_records.add_argument("--format", type=_format_arg, default=formats.ExportFormat.CSV)
    p_records.add_argument("-o", "--output", default=None)
    p_records.set_defaults(func=cmd_records)

    p_tree = sub.add_parser("tree", help="render the divisor tree of n as SVG")
    p_tree.add_argument("n", type=_positive_int)
    p_tree.add_argument(
        "-o",
        "--output",
        default=None,
        help="SVG path (default stdout, with the summary lines on stderr)",
    )
    p_tree.add_argument("--stroke-width", type=float, default=1.0)
    p_tree.add_argument("--margin", type=int, default=2)
    p_tree.add_argument("--no-shading", action="store_true")
    p_tree.add_argument("--check-overlap", action="store_true")
    p_tree.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_SQUARE_BUDGET, help="square-count budget"
    )
    p_tree.set_defaults(func=cmd_tree)

    p_verify = sub.add_parser("verify", help="run a cross-check suite")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES))
    p_verify.add_argument("max", nargs="?", type=_positive_int, default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
