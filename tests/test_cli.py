import argparse
import inspect
import sys
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import pytest

from recdiv import a, arith, cli, closedforms, errors, golden, records, verify

from recdiv.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_MEMORY,
    EXIT_OVERFLOW,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from recdiv.errors import MemoryGuardError
from recdiv.formats import CHUNK, ExportFormat, format_table, parse_table
from recdiv.golden import A_FIRST_96
from recdiv.sieve import INT64_SAFE_LIMIT, table_array
from recdiv.tree import SvgStyle, layout, to_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_ten(capsys):
    code, out, _ = run(capsys, "eval", "10")
    assert code == 0
    assert "a=6 b=20" in out
    assert "A=3/5" in out


def test_eval_unit(capsys):
    code, out, _ = run(capsys, "eval", "1")
    assert code == 0
    assert "d=1 sigma=1" in out
    assert "a=1 b=1 g=1" in out


def test_eval_ninety_six(capsys):
    code, out, _ = run(capsys, "eval", "96")
    assert code == 0
    assert "a=224 b=768" in out


def test_eval_rejects_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "0"])
    assert exc.value.code == 2


def test_table_csv_matches_reference(capsys):
    code, out, _ = run(capsys, "table", "a", "96")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a"
    assert len(lines) == 97
    for n, line in enumerate(lines[1:], start=1):
        assert line == f"{n},{A_FIRST_96[n - 1]}"


@pytest.mark.parametrize("fmt", list(ExportFormat))
def test_table_crossing_a_chunk_round_trips(capsys, fmt):
    bound = 70000
    assert bound > CHUNK
    code, out, _ = run(capsys, "table", "g", str(bound), "--format", fmt.value)
    assert code == 0
    sieved = table_array("g", bound)[1:].tolist()
    assert parse_table(out, fmt) == list(enumerate(sieved, start=1))


@pytest.mark.parametrize("length", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("fmt", list(ExportFormat))
@pytest.mark.parametrize("fn", ["a", "b", "d", "g", "sigma"])
def test_table_streams_the_bytes_of_format_table(
    tmp_path, capsys, fn, fmt, length, assert_same_text
):
    expected = format_table(fn, table_array(fn, length)[1:], fmt)
    code, out, err = run(capsys, "table", fn, str(length), "--format", fmt.value)
    assert (code, err) == (0, "")
    assert_same_text(out, expected)
    path = tmp_path / "table.out"
    argv = ("table", fn, str(length), "--format", fmt.value, "-o", str(path))
    assert run(capsys, *argv) == (0, "", "")
    assert_same_text(path.read_bytes().decode(), expected)


def test_table_refuses_an_empty_range(tmp_path, capsys):
    path = tmp_path / "table.out"
    with pytest.raises(SystemExit) as exc:
        main(["table", "b", "0", "-o", str(path)])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert not path.exists()


# Traced bytes one chunk of table_chunks may hold besides the sieved array:
# its uint32 cell matrix, the digit temporaries, the matrix's bytes with and
# without the NULs, and its text. Measured at 2.2 MB for CHUNK = 16,384, the
# same at 2*10^5 and 10^6 rows.
CHUNK_ALLOWANCE = 4_000_000


def test_table_output_memory_is_bounded_by_one_chunk(tmp_path):
    bound = 200_000
    path = tmp_path / "b.json"
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        code = main(["table", "b", str(bound), "--format", "json", "-o", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # The text is larger than the allowance, so holding it whole would fail.
    assert path.stat().st_size > CHUNK_ALLOWANCE
    assert peak - base < 8 * (bound + 1) + CHUNK_ALLOWANCE


def test_table_single_line_bfile(capsys):
    code, out, _ = run(capsys, "table", "a", "1", "--format", "bfile")
    assert code == 0
    assert out == "1 1\n"


def test_records_command(capsys):
    code, out, _ = run(capsys, "records", "RHC", "100", "--format", "bfile")
    assert code == 0
    assert out.splitlines() == [
        f"{i} {n}" for i, n in enumerate([1, 2, 4, 6, 8, 12, 24, 36, 48, 72, 96], start=1)
    ]


def test_records_sa_kind(capsys):
    code, out, _ = run(capsys, "records", "sa", "10", "--format", "bfile")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 2", "3 4", "4 6"]


@pytest.mark.parametrize("kinds", ["all,foo", "foo,all"])
def test_records_refuses_an_unknown_kind_on_either_side_of_all(capsys, kinds):
    code, out, err = run(capsys, "records", kinds, "10")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: unknown record kind 'FOO'; choose from RHC, RSA, HC, SA or all\n"


def test_tree_command_writes_file(tmp_path, capsys):
    path = tmp_path / "tree.svg"
    code, out, _ = run(capsys, "tree", "10", "-o", str(path), "--check-overlap")
    assert code == 0
    assert "squares=6 sidesum=20" in out
    assert "overlaps=0" in out
    assert path.read_text().count("<rect") == 6


def test_tree_to_stdout_keeps_the_document_valid(capsys):
    code, out, err = run(capsys, "tree", "6", "--check-overlap")
    assert code == 0
    assert out.endswith("</svg>\n")
    assert ElementTree.fromstring(out).tag.endswith("svg")
    assert err.splitlines() == ["squares=6 sidesum=14", "overlaps=0"]


@pytest.mark.parametrize("n", [1, 96, 4608])
def test_tree_streams_the_bytes_of_to_svg(tmp_path, capsys, n, assert_same_text):
    tree = layout(n)
    expected = to_svg(tree)
    summary = f"squares={tree.square_count} sidesum={tree.side_sum}\n"
    # A bare tree N puts the SVG alone on stdout and the summary on stderr.
    code, out, err = run(capsys, "tree", str(n))
    assert (code, err) == (0, summary)
    assert_same_text(out, expected)
    path = tmp_path / "tree.svg"
    assert run(capsys, "tree", str(n), "-o", str(path)) == (0, summary, "")
    assert_same_text(path.read_bytes().decode(), expected)


def test_tree_of_one_hundred(tmp_path, capsys):
    path = tmp_path / "tree.svg"
    code, out, _ = run(capsys, "tree", "100", "-o", str(path))
    assert code == 0
    assert "squares=52 sidesum=340" in out


def test_tree_budget_exit(capsys):
    code, _, err = run(capsys, "tree", "96", "--budget", "10")
    assert code == EXIT_BUDGET
    assert err == (
        "error: divisor tree of 224 squares for 96 exceeds the work budget of 10 squares; "
        "layout's budget (tree --budget) sets it\n"
    )


@pytest.mark.parametrize(
    "option, value",
    [
        ("--margin", "-100"),
        ("--stroke-width", "-1"),
        ("--stroke-width", "inf"),
        ("--stroke-width", "nan"),
    ],
)
def test_tree_refuses_a_style_svg_forbids(tmp_path, capsys, option, value):
    path = tmp_path / "tree.svg"
    for out in ([], ["-o", str(path)]):
        code, stdout, err = run(capsys, "tree", "12", option, value, *out)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert option.lstrip("-").replace("-", "_") in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [("table", "a", "10", "--max-memory"), ("tree", "12", "--budget")],
    ids=["table-max-memory", "tree-budget"],
)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_budget_options_take_positive_integers(capsys, argv, value):
    # Neither value admits any work, so both are usage errors before any runs.
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a positive integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [("eval", "1e3"), ("table", "a", "10", "--max-memory", "1e9")],
    ids=["eval", "table-max-memory"],
)
def test_integer_arguments_name_the_text_they_refuse(capsys, argv):
    # argparse's own message for a ValueError names the type function.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": expected a positive integer, got '{argv[-1]}'\n")
    assert "_positive_int" not in captured.err


def test_integer_argument_past_the_int_to_str_limit_is_counted_not_echoed(capsys):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "7" * (limit + 1)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"argument n: expected a positive integer, got {limit + 1} digits, "
        f"more than {limit} digits, the int-to-str limit; "
        "sys.set_int_max_str_digits or PYTHONINTMAXSTRDIGITS sets it\n"
    )
    assert "7" * 8 not in captured.err


def test_tree_unwritable_path(capsys):
    code, _, err = run(capsys, "tree", "10", "-o", "/nonexistent-dir/x.svg")
    assert code == EXIT_IO
    assert err


def test_verify_tables(capsys):
    code, out, _ = run(capsys, "verify", "tables", "96")
    assert code == 0
    assert "PASS suite tables" in out


def test_verify_trees_small(capsys):
    code, out, _ = run(capsys, "verify", "trees", "60")
    assert code == 0
    assert out.count("PASS") >= 3


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    wrong = list(golden.A_FIRST_96)
    wrong[11] += 1  # a(12)
    monkeypatch.setattr(golden, "A_FIRST_96", tuple(wrong))
    code, out, _ = run(capsys, "verify", "tables")
    assert code == EXIT_VERIFY
    lines = out.splitlines()
    assert lines[0].startswith("FAIL sieved tables match reference values (1 of 96): n=12:")
    assert lines[-1] == "FAIL suite tables"


def test_verify_lemmas_reports_a_failing_enumeration(monkeypatch, capsys):
    real = verify.g_enumerated
    monkeypatch.setattr(verify, "g_enumerated", lambda n: real(n) + (n == 12))
    code, out, _ = run(capsys, "verify", "lemmas", "100")
    assert code == EXIT_VERIFY
    assert out.splitlines()[2:] == [
        "FAIL count equals twice the enumerated ordered factorizations (2 of 100): "
        "n=12: a=16 vs 2*9; enumeration of 12 must find 8 tuples",
        "FAIL suite lemmas",
    ]


def test_verify_closedforms_fails_every_shape_of_a_wrong_n(monkeypatch, capsys):
    # The definition is evaluated once per n; both prime orders of 72 must
    # still be checked against it, and fail.
    real = verify.b
    monkeypatch.setattr(verify, "b", lambda n: real(n) + (n == 72))
    code, out, _ = run(capsys, "verify", "closedforms", "100")
    assert code == EXIT_VERIFY
    lines = out.splitlines()
    assert lines[1] == (
        "FAIL sum: recursion matches the definition (2 of 13308): "
        "n=72 ((2, 3), (3, 2)): 524 != 525; n=72 ((3, 2), (2, 3)): 524 != 525"
    )
    assert lines[2] == (
        "FAIL ratio closed form matches the definition (1-2 primes) (2 of 768): "
        "n=72 ((2, 3), (3, 2)): 131/18 != 175/24; n=72 ((3, 2), (2, 3)): 131/18 != 175/24"
    )
    assert lines[-1] == "FAIL suite closedforms"


def test_verify_closedforms_fails_every_shape_of_a_wrong_exponent_tuple(monkeypatch, capsys):
    # The count routes are evaluated once per exponent tuple; every shape with
    # that tuple must still be tallied as a failure, in grid order.
    real = closedforms.a_closed
    monkeypatch.setattr(
        closedforms, "a_closed", lambda shape: real(shape) + (shape.exponents == (2, 1))
    )
    cases = list(verify._grid_cases())
    wrong = [(n, tuple(zip(primes, exps))) for n, primes, exps in cases if exps == (2, 1)]
    code, out, _ = run(capsys, "verify", "closedforms", "100")
    assert code == EXIT_VERIFY
    shown = "; ".join(
        f"n={n} {pairs}: recursion {a(n)}, closed {a(n) + 1}, want {a(n)}" for n, pairs in wrong[:3]
    )
    lines = out.splitlines()
    assert lines[0] == (
        "FAIL count: recursion and closed form match the definition "
        f"({len(wrong)} of {len(cases)}): {shown}"
    )
    assert lines[1].startswith("PASS sum: recursion matches the definition")
    assert lines[-1] == "FAIL suite closedforms"


@pytest.mark.parametrize(
    "suite, bound, reference", [("tables", 97, 96), ("records", 10**6 + 1, 10**6)]
)
def test_verify_refuses_bounds_past_reference_data(capsys, suite, bound, reference):
    code, out, err = run(capsys, "verify", suite, str(bound))
    assert code == EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"bound {bound} " in err and f"ends at {reference};" in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_memory_guard_exit_code(capsys):
    code, _, err = run(capsys, "table", "a", "1000000", "--max-memory", "100")
    assert code == EXIT_MEMORY
    assert "bytes" in err
    # Without a flag the guard names the constant that sets it, and refuses
    # before the suite does any other work.
    code, _, err = run(capsys, "verify", "lemmas", "100000000")
    assert code == EXIT_MEMORY
    assert "800,000,008 bytes" in err and "sieve.DEFAULT_MAX_MEMORY" in err


def test_closedforms_guard_runs_before_the_shape_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("the shape grid ran before the memory guard")

    monkeypatch.setattr(closedforms, "kappa_table", refuse)
    monkeypatch.setattr(closedforms, "a_closed", refuse)
    with pytest.raises(MemoryGuardError):
        verify.run_suite("closedforms", 10**8)


BUDGETS = [("lemmas", "LEMMAS_BUDGET"), ("closedforms", "CLOSEDFORMS_BUDGET")]


@pytest.mark.parametrize("suite, setting", BUDGETS)
def test_verify_work_budget_exit(monkeypatch, capsys, suite, setting):
    monkeypatch.setattr(verify, setting, 100)
    code, out, err = run(capsys, "verify", suite, "101")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        f"error: verify {suite} to 101 exceeds the work budget of 100; verify.{setting} sets it\n"
    )
    code, out, _ = run(capsys, "verify", suite, "100")
    assert code == 0
    assert out.endswith(f"PASS suite {suite}\n")


@pytest.mark.parametrize("suite, setting", BUDGETS)
def test_verify_work_budget_admits_the_documented_bounds(capsys, suite, setting):
    # The default bounds and the CI bounds run; every bound the sieve guard
    # admits past the budget is refused before any work, and the guard still
    # answers first at 10^8.
    budget = getattr(verify, setting)
    default = inspect.signature(verify.SUITES[suite]).parameters["limit"].default
    assert max(default, 20_000 if suite == "lemmas" else 100_000) <= budget
    code, _, err = run(capsys, "verify", suite, str(budget + 1))
    assert code == EXIT_BUDGET and f"verify.{setting}" in err
    code, _, err = run(capsys, "verify", suite, str(4 * 10**7))
    assert code == EXIT_BUDGET
    code, _, err = run(capsys, "verify", suite, str(10**8))
    assert code == EXIT_MEMORY and "sieve.DEFAULT_MAX_MEMORY" in err


def test_overflow_guard_exit_code(capsys):
    code, _, err = run(
        capsys, "table", "a", str(INT64_SAFE_LIMIT + 1), "--max-memory", str(10**20)
    )
    assert code == EXIT_OVERFLOW
    assert "int64" in err


def test_eval_past_the_int_to_str_limit_prints_nothing(capsys):
    # n = 2^2120 and sigma = 2^2121 − 1 have 639 digits and b = 2^2119·2122
    # has 642, so at a 640-digit limit n and sigma convert but b does not.
    n = str(2**2120)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "eval", n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == EXIT_OVERFLOW
    assert out == ""
    assert err == (
        "error: eval cannot print b: it has more than 640 digits, the int-to-str limit; "
        "sys.set_int_max_str_digits or PYTHONINTMAXSTRDIGITS sets it\n"
    )


def test_eval_refuses_an_unprintable_sigma_before_kappa(monkeypatch, capsys):
    # n = 2^2126 has 640 digits and sigma = 2^2127 − 1 has 641, so at a
    # 640-digit limit n parses and prints but sigma does not.  sigma needs
    # only the factorization, so kappa is never evaluated.
    n = 2**2126
    assert (len(str(n)), len(str(2 * n - 1))) == (640, 641)
    evaluated = []
    monkeypatch.setattr(cli, "profile_of", evaluated.append)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "eval", str(n))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, evaluated) == (EXIT_OVERFLOW, "", [])
    assert err == (
        "error: eval cannot print sigma: it has more than 640 digits, the int-to-str limit; "
        "sys.set_int_max_str_digits or PYTHONINTMAXSTRDIGITS sets it\n"
    )


def test_verify_failure_exit_code_is_distinct():
    assert len({2, EXIT_IO, EXIT_OVERFLOW, EXIT_MEMORY, EXIT_VERIFY, EXIT_BUDGET}) == 6


def test_internal_check_failure_exit_code(monkeypatch, capsys):
    def disagree(*args, **kwargs):
        raise AssertionError("a(12): sieve and recursion disagree")

    monkeypatch.setattr(records, "search_records", disagree)
    code, _, err = run(capsys, "records", "all", "100")
    assert code == EXIT_INTERNAL
    others = {0, EXIT_IO, 2, EXIT_OVERFLOW, EXIT_MEMORY, EXIT_VERIFY, EXIT_BUDGET}
    assert EXIT_INTERNAL not in others
    assert err == "error: internal check failed: a(12): sieve and recursion disagree\n"


def test_factorization_budget_exit(monkeypatch, capsys):
    # Two primes near 2^32 need about 10^5 rho steps; 64 steps cannot split them.
    monkeypatch.setattr(arith, "RHO_BUDGET", 64)
    n = 4294967279 * 4294967291
    code, out, err = run(capsys, "eval", str(n))
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        f"error: factoring {n} exceeds the work budget of 64 rho steps; "
        "arith.RHO_BUDGET sets it\n"
    )


def test_every_budget_error_comes_from_one_helper():
    # Every work guard refuses through errors.budget_error, so its message
    # names the value, the budget and the setting in one form.
    src = Path(errors.__file__).parent
    raised = {
        path.name for path in src.glob("*.py") if "BudgetError(" in path.read_text("utf-8")
    }
    assert raised == {"errors.py"}


def test_records_budget_exit(monkeypatch, capsys):
    monkeypatch.setattr(records, "SEARCH_LIMIT", 1000)
    code, out, err = run(capsys, "records", "all", "1000")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        "error: record search to 1000 exceeds the work budget of 999; "
        "records.SEARCH_LIMIT sets it\n"
    )


def test_records_takes_no_memory_flag(capsys):
    # Only `table` sieves on request; `verify` keeps the default guard.
    for argv in (["records", "all", "100"], ["verify", "tables"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--max-memory", "100"])
        assert exc.value.code == EXIT_USAGE


def run_any(capsys, *argv):
    """run, with argparse's own exits (usage errors, --help) read as exit codes."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Successes, argparse exits and a command's own usage error, with an option
# (--no-shading) that must not outlive its call.
SEQUENCE = [
    ("eval", "12"),
    ("table", "x", "10"),
    ("eval", "0"),
    ("tree", "12", "--no-shading"),
    ("tree", "12"),
    ("table", "a", "10", "--format", "json"),
    ("records", "all", "100", "--format", "bfile"),
    ("verify", "tables"),
    (),
    ("--help",),
]


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    run_any(capsys, "eval", "12")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in SEQUENCE:
        run_any(capsys, *argv)
    assert built == []


def test_a_sequence_of_calls_gives_the_same_results_twice(capsys):
    first = [run_any(capsys, *argv) for argv in SEQUENCE]
    assert first == [run_any(capsys, *argv) for argv in SEQUENCE]
    assert [code for code, _, _ in first] == [0, 2, 2, 0, 0, 0, 2, 0, 2, 0]


def test_an_option_does_not_carry_over_to_the_next_call(capsys):
    tree = layout(12)
    flat = to_svg(tree, SvgStyle(shade_by_depth=False))
    assert run_any(capsys, "tree", "12", "--no-shading")[1] == flat
    shaded = run_any(capsys, "tree", "12")[1]
    assert shaded == to_svg(tree) != flat
