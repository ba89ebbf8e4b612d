"""Serialization: CSV, JSON, and OEIS b-file output for tables and records.

Rationals are serialized as "numerator/denominator" strings, never as
floating decimals, so files round-trip exactly.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .records import RecordKind, RecordTable, kind_names


class ExportFormat(Enum):
    CSV = "csv"
    JSON = "json"
    BFILE = "bfile"


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# Rows per %-format in table_chunks, and so the most rows it holds as text at
# once: a large table holds neither one Python string per row nor its whole text.
CHUNK = 16384


def _rows(values: Sequence[int], row: str, sep: str) -> Iterator[str]:
    """Yield the rows for n = 1..len(values) in chunks, each formatted by one %-operation.

    The chunks concatenate to the rows joined by sep: every chunk after the
    first starts with sep. An ndarray chunk goes through .tolist(), so %d
    sees Python ints.
    """
    to_list = hasattr(values, "tolist")
    for start in range(0, len(values), CHUNK):
        stop = min(start + CHUNK, len(values))
        chunk = values[start:stop]
        flat = [0] * (2 * (stop - start))
        flat[0::2] = range(start + 1, stop + 1)
        flat[1::2] = chunk.tolist() if to_list else chunk
        lead = sep if start else ""
        yield (lead + (row + sep) * (stop - start - 1) + row) % tuple(flat)


def table_chunks(name: str, values: Sequence[int], fmt: ExportFormat) -> Iterator[str]:
    """Yield format_table's text in order, at most CHUNK rows per string.

    The CLI writes these to its output handle one at a time, so the text of
    a table is never held whole.
    """
    if fmt is ExportFormat.CSV:
        yield f"n,{name}\n"
        yield from _rows(values, "%d,%d\n", "")
    elif fmt is ExportFormat.JSON:
        # The bytes of json.dumps over [{"n": n, name: v}, ...] with compact
        # separators, without building one dict per value.
        key = json.dumps(name).replace("%", "%%")
        yield "["
        yield from _rows(values, '{"n":%d,' + key + ":%d}", ",")
        yield "]\n"
    elif len(values):
        yield from _rows(values, "%d %d\n", "")
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


def format_records(table: RecordTable, fmt: ExportFormat) -> str:
    """Serialize a record table.

    The b-file form holds a single sequence, so it requires the table to
    have been searched for exactly one kind.
    """
    if fmt is ExportFormat.BFILE:
        single = [k for k in RecordKind if k in table.kinds]
        if len(single) != 1:
            raise ValueError("b-file export needs a table searched for exactly one kind")
        ns = table.numbers(single[0])
        return "\n".join(f"{i} {n}" for i, n in enumerate(ns, start=1)) + "\n"
    if fmt is ExportFormat.CSV:
        lines = [",".join(_RECORD_COLUMNS)]
        for e in table.entries:
            lines.append(
                f"{e.n},{e.factorization},{'|'.join(kind_names(e.kinds))},"
                f"{e.a},{e.b},{e.d},{e.sigma},{e.tau},{e.tau_cofactor},"
                f"{rational_str(e.b_ratio)},{rational_str(e.sigma_ratio)}"
            )
        return "\n".join(lines) + "\n"
    rows = []
    for e in table.entries:
        rows.append(
            {
                "n": e.n,
                "factorization": str(e.factorization),
                "kinds": kind_names(e.kinds),
                "a": e.a,
                "b": e.b,
                "d": e.d,
                "sigma": e.sigma,
                "tau": e.tau,
                "tau_cofactor": e.tau_cofactor,
                "b_over_n": rational_str(e.b_ratio),
                "sigma_over_n": rational_str(e.sigma_ratio),
            }
        )
    return json.dumps(rows, indent=2) + "\n"
