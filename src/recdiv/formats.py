"""Serialization: CSV, JSON, and OEIS b-file output for tables and records.

Rationals are serialized as "numerator/denominator" strings, never as
floating decimals, so files round-trip exactly.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .records import RecordEntry, RecordKind, RecordTable, kind_names


class ExportFormat(Enum):
    CSV = "csv"
    JSON = "json"
    BFILE = "bfile"


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# Rows per chunk of table_chunks, and so the most rows it holds as text at
# once: a large table holds neither one Python string per row nor its whole text.
CHUNK = 16384

# Digits are written four at a time, each group of four as one uint32 cell
# that holds its four ASCII bytes in text order. A group k < 10^4 of a
# number's digits is looked up at k + 10^4 when more digits stand to its left,
# where the entry is k zero-padded, and at k otherwise, where k's leading
# zeros are NUL bytes that _rows deletes. At k = 0, _UPPER holds four NULs and
# _LOWEST, for a number's last four digits, holds "0". Splitting a group off
# with // and a subtraction costs about a tenth of np.divmod on int64, and
# min(rest, low + 10^4) is the lookup index in one pass: it is rest itself
# exactly when no digit stands left of the group.
_GROUP = 10**4


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    # uint16 keeps the temporaries small: they are built at every import.
    k = np.arange(_GROUP, dtype=np.uint16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.uint16)
    text = (k // place % 10 + ord("0")).astype(np.uint8)
    padded = text.view(np.uint32).ravel().copy()
    text[k < place] = 0
    upper = np.concatenate([text.view(np.uint32).ravel(), padded])
    text[0, -1] = ord("0")
    return upper, np.concatenate([text.view(np.uint32).ravel(), padded])


_UPPER, _LOWEST = _digit_tables()


def _groups(largest: int) -> int:
    """How many four-digit groups a non-negative integer's digits take."""
    return -(-len(str(largest)) // 4)


def _digits(column: np.ndarray, cells: np.ndarray) -> None:
    """Write the decimal digits of a non-negative integer column into cells.

    cells is a (len(column), groups) uint32 view, groups at least
    _groups(column.max()); the digits end right-aligned in it, with leading
    zeros as NUL bytes. An object column of Python ints takes the same steps.
    """
    rest = column
    for group in reversed(range(cells.shape[1])):
        high = rest // _GROUP
        index = rest - high * _GROUP
        index += _GROUP
        np.minimum(index, rest, out=index)
        table = _LOWEST if group == cells.shape[1] - 1 else _UPPER
        cells[:, group] = table[index.astype(np.intp, copy=False)]
        rest = high


def _column(chunk: Sequence[int]) -> np.ndarray:
    """chunk as an array: int64 when every value fits, else Python ints (object)."""
    if isinstance(chunk, np.ndarray):
        return chunk
    try:
        return np.array(chunk, dtype=np.int64)
    except OverflowError:
        return np.array(chunk, dtype=object)


def _cells(text: str) -> np.ndarray:
    """text as whole uint32 cells, padded in front with NUL bytes."""
    data = text.encode("ascii")
    return np.frombuffer(data.rjust(-(-len(data) // 4) * 4, b"\0"), np.uint32)


def _rows(values: Sequence[int], head: str, middle: str, tail: str, sep: str) -> Iterator[str]:
    """Yield head + n + middle + value + tail for n = 1..len(values), joined by sep.

    Each chunk of CHUNK rows is one uint32 matrix with one row per n, turned
    so that it reads tail + sep + head, n, middle, value: the text between
    two rows is one constant. The constants sit in whole cells, written once
    while the chunks keep their row count and their groups of n and of the
    value, and the digits of n and of its value fill their cells. A chunk's
    text is the matrix's bytes with every NUL deleted; the first chunk drops
    its leading tail + sep, and the last tail follows the last chunk.
    """
    between, middle_cells = _cells(tail + sep + head), _cells(middle)
    layout = None
    for start in range(0, len(values), CHUNK):
        stop = min(start + CHUNK, len(values))
        column = _column(values[start:stop])
        key = (stop - start, _groups(stop), _groups(column.max()))
        if key != layout:
            layout = key
            n_end = len(between) + key[1]
            value_start = n_end + len(middle_cells)
            matrix = np.empty((key[0], value_start + key[2]), np.uint32)
            matrix[:, : len(between)] = between
            matrix[:, n_end:value_start] = middle_cells
        _digits(np.arange(start + 1, stop + 1), matrix[:, len(between) : n_end])
        _digits(column, matrix[:, value_start:])
        text = matrix.tobytes().translate(None, b"\0")
        yield (text[len(tail) + len(sep) :] if start == 0 else text).decode("ascii")
    if len(values):
        yield tail


def _refuse_negative(values: Sequence[int]) -> None:
    if not len(values):
        return
    lowest = values.min() if isinstance(values, np.ndarray) else min(values)
    if lowest < 0:
        n, value = next((n, v) for n, v in enumerate(values, start=1) if v < 0)
        raise ValueError(f"table values must be non-negative; n = {n} has {value}")


def table_chunks(name: str, values: Sequence[int], fmt: ExportFormat) -> Iterator[str]:
    """Yield format_table's text in order, at most CHUNK rows per string.

    The CLI writes these to its output handle one at a time, so the text of
    a table is never held whole. A negative value raises ValueError before
    any text is yielded: the digit kernel writes no sign.
    """
    _refuse_negative(values)
    if fmt is ExportFormat.CSV:
        yield f"n,{name}\n"
        yield from _rows(values, "", ",", "\n", "")
    elif fmt is ExportFormat.JSON:
        # The bytes of json.dumps over [{"n": n, name: v}, ...] with compact
        # separators, without building one dict per value.
        yield "["
        yield from _rows(values, '{"n":', "," + json.dumps(name) + ":", "}", ",")
        yield "]\n"
    elif len(values):
        yield from _rows(values, "", " ", "\n", "")
    else:
        yield "\n"  # An empty b-file is one bare newline.


def format_table(name: str, values: Sequence[int], fmt: ExportFormat) -> str:
    """Serialize values for n = 1..len(values) under the given format.

    values is a sequence of ints or a 1-D integer ndarray. b-file lines are
    "n value", 1-indexed and newline-terminated. The text is the chunks of
    table_chunks joined, and byte for byte what one f-string per row gives
    (tests/test_formats.py keeps that form as the oracle).
    """
    return "".join(table_chunks(name, values, fmt))


def parse_table(text: str, fmt: ExportFormat) -> list[tuple[int, int]]:
    """Parse format_table output back into (n, value) pairs."""
    if fmt is ExportFormat.CSV:
        lines = [line for line in text.splitlines() if line]
        out = []
        for line in lines[1:]:
            n_text, value_text = line.split(",")
            out.append((int(n_text), int(value_text)))
        return out
    if fmt is ExportFormat.JSON:
        rows = json.loads(text)
        out = []
        for row in rows:
            n = row["n"]
            (value,) = (v for k, v in row.items() if k != "n")
            out.append((int(n), int(value)))
        return out
    out = []
    for line in text.splitlines():
        if not line:
            continue
        n_text, value_text = line.split()
        out.append((int(n_text), int(value_text)))
    return out


_RECORD_COLUMNS = (
    "n",
    "factorization",
    "kinds",
    "a",
    "b",
    "d",
    "sigma",
    "tau",
    "tau_cofactor",
    "b_over_n",
    "sigma_over_n",
)


def _record_values(e: RecordEntry) -> tuple:
    """One entry's values in _RECORD_COLUMNS order; kinds is a list of names."""
    return (
        e.n,
        str(e.factorization),
        kind_names(e.kinds),
        e.a,
        e.b,
        e.d,
        e.sigma,
        e.tau,
        e.tau_cofactor,
        rational_str(e.b_ratio),
        rational_str(e.sigma_ratio),
    )


def format_records(table: RecordTable, fmt: ExportFormat) -> str:
    """Serialize a record table.

    CSV and JSON share one value tuple per entry; CSV joins the kinds with
    "|", JSON keeps them a list.  The b-file form holds a single sequence, so
    it requires the table to have been searched for exactly one kind.
    """
    if fmt is ExportFormat.BFILE:
        single = [k for k in RecordKind if k in table.kinds]
        if len(single) != 1:
            raise ValueError("b-file export needs a table searched for exactly one kind")
        ns = table.numbers(single[0])
        return "\n".join(f"{i} {n}" for i, n in enumerate(ns, start=1)) + "\n"
    rows = [_record_values(e) for e in table.entries]
    if fmt is ExportFormat.CSV:
        lines = [",".join(_RECORD_COLUMNS)]
        for values in rows:
            cells = ("|".join(v) if isinstance(v, list) else str(v) for v in values)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    return json.dumps([dict(zip(_RECORD_COLUMNS, values)) for values in rows], indent=2) + "\n"
