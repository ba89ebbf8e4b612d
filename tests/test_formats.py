import json
from fractions import Fraction

import numpy as np
import pytest

from recdiv import RecordKind, sieve_records
from recdiv.formats import (
    CHUNK,
    ExportFormat,
    format_records,
    format_table,
    parse_table,
    rational_str,
    table_chunks,
)
from recdiv.sieve import table_array


def test_rational_strings_never_decimal():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(4)) == "4/1"
    assert rational_str(Fraction(768, 96)) == "8/1"


def test_table_csv_layout():
    text = format_table("a", [1, 2, 2, 4], ExportFormat.CSV)
    assert text.splitlines()[0] == "n,a"
    assert text.splitlines()[2] == "2,2"


def test_table_bfile_layout(assert_same_text):
    text = format_table("a", [1], ExportFormat.BFILE)
    assert_same_text(text, "1 1\n")
    longer = format_table("b", [1, 3, 4], ExportFormat.BFILE)
    assert_same_text(longer, "1 1\n2 3\n3 4\n")


def test_table_round_trips():
    values = [1, 2, 2, 4, 2, 6, 2, 8]
    pairs = list(enumerate(values, start=1))
    for fmt in ExportFormat:
        assert parse_table(format_table("a", values, fmt), fmt) == pairs


@pytest.mark.parametrize("name", ["a", "b", "g", "d", "sigma"])
def test_table_json_matches_json_dumps(name, assert_same_text):
    values = [int(v) for v in table_array(name, 3000)[1:]] + [2**70 + 1]
    rows = [{"n": n, name: v} for n, v in enumerate(values, start=1)]
    oracle = json.dumps(rows, separators=(",", ":")) + "\n"
    assert_same_text(format_table(name, values, ExportFormat.JSON), oracle)
    assert_same_text(format_table(name, [], ExportFormat.JSON), "[]\n")


def _per_row(name, values, fmt):
    """Reference bytes: one f-string per row for CSV and b-file, json.dumps for JSON."""
    if fmt is ExportFormat.CSV:
        return "\n".join([f"n,{name}"] + [f"{n},{v}" for n, v in enumerate(values, start=1)]) + "\n"
    if fmt is ExportFormat.JSON:
        rows = [{"n": n, name: v} for n, v in enumerate(values, start=1)]
        return json.dumps(rows, separators=(",", ":")) + "\n"
    return "\n".join(f"{n} {v}" for n, v in enumerate(values, start=1)) + "\n"


# Lengths around the end of the first chunk and of the fourth, and one row
# into the ninth chunk; and lengths at which n gains a digit inside a chunk.
@pytest.mark.parametrize(
    "length",
    [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 8 * CHUNK + 1]
    + [9, 10, 99, 100, 10**4, 10**5 + 1],
)
@pytest.mark.parametrize("fmt", list(ExportFormat))
def test_table_chunks_match_per_row_form(length, fmt, assert_same_text):
    arr = table_array("b", 8 * CHUNK + 1)[1 : length + 1]
    values = arr.tolist()
    text = format_table("b", values, fmt)
    assert_same_text(text, _per_row("b", values, fmt))
    assert_same_text(format_table("b", arr, fmt), text)


def test_table_formats_values_beyond_int64(assert_same_text):
    values = [1, 2**70 + 1, 3]
    for fmt in ExportFormat:
        assert_same_text(format_table("g", values, fmt), _per_row("g", values, fmt))
    assert "2,1180591620717411303425\n" in format_table("g", values, ExportFormat.CSV)


# Values at the edges of the four-digit groups, and the largest int64.
DIGIT_EDGES = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 2**63 - 1]


@pytest.mark.parametrize("fmt", list(ExportFormat))
def test_table_digit_edges(fmt, assert_same_text):
    for value in DIGIT_EDGES:
        assert_same_text(format_table("g", [value], fmt), _per_row("g", [value], fmt))
    text = format_table("g", DIGIT_EDGES, fmt)
    assert_same_text(text, _per_row("g", DIGIT_EDGES, fmt))
    assert_same_text(format_table("g", np.array(DIGIT_EDGES, dtype=np.int64), fmt), text)


@pytest.mark.parametrize("fmt", list(ExportFormat))
def test_table_chunk_mixing_int64_and_larger_values(fmt, assert_same_text):
    # One chunk holds 2**70 + 1, so all of its values are Python ints; the
    # chunks on either side stay int64.
    values = table_array("a", 3 * CHUNK)[1:].tolist()
    values[CHUNK + 7] = 2**70 + 1
    values[CHUNK + 8 : CHUNK + 8 + len(DIGIT_EDGES)] = DIGIT_EDGES
    text = format_table("a", values, fmt)
    assert_same_text(text, _per_row("a", values, fmt))
    assert_same_text(format_table("a", np.array(values, dtype=object), fmt), text)


# Each chunk is one matrix of cells, kept for the next chunk while the row
# count and the groups of n and of the value stay the same. These chunk
# sequences change the value's width, its dtype and the row count between
# chunks, so a constant or digit cell left over from an earlier chunk shows.
WIDE = [10**12 + 7 * k for k in range(CHUNK)]  # 13 digits: four groups
NARROW = [k % 10 for k in range(CHUNK)]  # 1 digit: one group


@pytest.mark.parametrize(
    "values",
    [
        WIDE + NARROW,
        NARROW + WIDE,
        NARROW + [2**70 + 1] + WIDE[1:] + NARROW[: CHUNK // 2] + WIDE[: CHUNK // 2],
        WIDE + [5],
        NARROW + WIDE + [10**12 - 1],
    ],
    ids=[
        "wide-then-narrow",
        "narrow-then-wide",
        "object-between-int64",
        "one-row-after-one-chunk",
        "one-row-after-two-chunks",
    ],
)
@pytest.mark.parametrize("fmt", list(ExportFormat))
def test_table_chunks_do_not_leak_cells_between_chunks(values, fmt, assert_same_text):
    text = format_table("b", values, fmt)
    assert_same_text(text, _per_row("b", values, fmt))
    if all(v < 2**63 for v in values):
        assert_same_text(format_table("b", np.array(values, dtype=np.int64), fmt), text)


@pytest.mark.parametrize("values", [[1, -5, 3, -7], np.array([1, -5, 3, -7])])
def test_table_refuses_negative_values(values):
    for fmt in ExportFormat:
        chunks = table_chunks("a", values, fmt)
        with pytest.raises(ValueError, match="n = 2 has -5$"):
            next(chunks)


def test_table_empty_input_bytes(assert_same_text):
    assert_same_text(format_table("a", [], ExportFormat.CSV), "n,a\n")
    assert_same_text(format_table("a", [], ExportFormat.JSON), "[]\n")
    assert_same_text(format_table("a", [], ExportFormat.BFILE), "\n")


def test_table_json_key_with_percent(assert_same_text):
    want = _per_row("5%", [7], ExportFormat.JSON)
    assert_same_text(format_table("5%", [7], ExportFormat.JSON), want)


def test_bfile_stable_across_runs(assert_same_text):
    values = list(range(1, 300))
    first = format_table("g", values, ExportFormat.BFILE)
    second = format_table("g", values, ExportFormat.BFILE)
    assert_same_text(first, second)


def test_records_csv():
    table = sieve_records(100)
    text = format_records(table, ExportFormat.CSV)
    lines = text.splitlines()
    assert lines[0].startswith("n,factorization,kinds,a,b,d,sigma,tau,tau_cofactor")
    row_96 = next(line for line in lines if line.startswith("96,"))
    assert "2^5 * 3" in row_96
    assert "8/1" in row_96  # b(96)/96 serialized exactly
    # a(48) = 96 = 6·2^4, 4 the largest exponent of 48; b(48) = 304, d = 10, σ = 124.
    assert "48,2^4 * 3,RHC|RSA|HC|SA,96,304,10,124,4,6,19/3,31/12" in lines


def test_records_json():
    table = sieve_records(50)
    rows = json.loads(format_records(table, ExportFormat.JSON))
    by_n = {row["n"]: row for row in rows}
    assert by_n[48]["a"] == 96
    assert by_n[48]["kinds"] == ["RHC", "RSA", "HC", "SA"]
    assert by_n[48]["b_over_n"] == "19/3"


def test_records_bfile_needs_single_kind():
    table = sieve_records(100)
    with pytest.raises(ValueError):
        format_records(table, ExportFormat.BFILE)
    single = sieve_records(100, RecordKind.RHC)
    text = format_records(single, ExportFormat.BFILE)
    assert text.splitlines()[0] == "1 1"
    assert text.splitlines()[-1] == "11 96"
