import tracemalloc
from fractions import Fraction

import pytest

from recdiv import (
    ALL_KINDS,
    MemoryGuardError,
    RecordKind,
    classify,
    sieve_records,
    tau_decompose,
)
from recdiv import records, sieve
from recdiv.records import parse_kinds


def test_count_records_to_ten():
    table = sieve_records(10, RecordKind.RHC)
    assert table.numbers(RecordKind.RHC) == [1, 2, 4, 6, 8]


def test_classical_count_records_to_ten():
    table = sieve_records(10, RecordKind.HC)
    assert table.numbers(RecordKind.HC) == [1, 2, 4, 6]


def test_ratio_records_to_fifty():
    # 8 qualifies: b(8)/8 = 5/2 strictly beats every earlier ratio (the
    # previous maximum is b(6)/6 = 7/3).
    table = sieve_records(50, RecordKind.RSA)
    assert table.numbers(RecordKind.RSA) == [1, 2, 4, 6, 8, 12, 24, 36, 48]


def test_classical_ratio_records_to_ten():
    table = sieve_records(10, RecordKind.SA)
    assert table.numbers(RecordKind.SA) == [1, 2, 4, 6]


def test_bound_one_single_entry():
    table = sieve_records(1)
    assert len(table.entries) == 1
    entry = table.entries[0]
    assert entry.n == 1
    assert entry.kinds == ALL_KINDS


def test_entry_values_and_ratios():
    table = sieve_records(100)
    entry = table.entry(96)
    assert entry is not None
    assert (entry.a, entry.b) == (224, 768)
    assert entry.b_ratio == Fraction(8)
    assert entry.record_value(RecordKind.RHC) == 224
    assert entry.record_value(RecordKind.RSA) == Fraction(8)
    assert str(entry.factorization) == "2^5 * 3"


def test_classify_everything_at_720(record_search_1m):
    table, _ = record_search_1m
    assert classify(720, table) == ALL_KINDS


def test_classify_prime_is_no_record(record_search_1m):
    table, _ = record_search_1m
    assert classify(7, table) == RecordKind(0)


def test_classify_the_exceptional_ratio_record(record_search_1m):
    table, _ = record_search_1m
    kinds = classify(181440, table)
    assert RecordKind.RSA in kinds
    assert RecordKind.RHC not in kinds


def test_classify_rejects_out_of_range():
    table = sieve_records(100)
    with pytest.raises(ValueError):
        classify(101, table)
    with pytest.raises(ValueError):
        classify(0, table)


def test_tau_decompose_examples():
    assert tau_decompose(360) == (3, 151)
    assert tau_decompose(720) == (4, 236)
    assert tau_decompose(1) == (0, 1)
    for p in (2, 3, 13, 97):
        assert tau_decompose(p) == (1, 1)


def test_record_values_strictly_increase(record_search_1m):
    table, _ = record_search_1m
    for kind in (RecordKind.RHC, RecordKind.RSA, RecordKind.HC, RecordKind.SA):
        chain = [e.record_value(kind) for e in table.entries if kind in e.kinds]
        assert chain[0] is not None
        assert all(u < v for u, v in zip(chain, chain[1:]))
        first = next(e for e in table.entries if kind in e.kinds)
        assert first.n == 1


def test_memory_guard():
    with pytest.raises(MemoryGuardError):
        sieve_records(10**6, max_memory=1000)


def test_parse_kinds():
    assert parse_kinds("rhc,rsa") == RecordKind.RHC | RecordKind.RSA
    assert parse_kinds("ALL") == ALL_KINDS
    assert parse_kinds("SA") == RecordKind.SA
    with pytest.raises(ValueError):
        parse_kinds("XYZ")
    with pytest.raises(ValueError):
        parse_kinds(",")


@pytest.mark.parametrize(
    "fn, kind",
    [("a", RecordKind.RHC), ("b", RecordKind.RSA), ("d", RecordKind.HC), ("sigma", RecordKind.SA)],
)
def test_sieve_disagreement_is_caught(monkeypatch, fn, kind):
    # 12 is a record of every kind to 50, and raising its value keeps it one,
    # so the per-n cross-check must reach it and refuse the table.
    build = sieve.TABLE_BUILDERS[fn]

    def off_by_one_at_twelve(limit):
        arr = build(limit)
        arr[12] += 1
        return arr

    monkeypatch.setitem(sieve.TABLE_BUILDERS, fn, off_by_one_at_twelve)
    with pytest.raises(AssertionError, match=rf"^{fn}\(12\): sieve and \w+ disagree$"):
        sieve_records(50, kind)


def _exact_records(arr, ratio):
    """Oracle: strict records of arr[n] (or arr[n]/n) by one exact Python scan."""
    out, best_num, best_den = [], 0, 1
    for n in range(1, len(arr)):
        den = n if ratio else 1
        if int(arr[n]) * best_den > best_num * den:
            out.append(n)
            best_num, best_den = int(arr[n]), den
    return out


@pytest.mark.parametrize("fn, ratio", [("a", False), ("b", True)])
def test_blocked_scans_match_exact_scan(fn, ratio):
    block = records._SCAN_BLOCK
    arr = sieve.TABLE_BUILDERS[fn](2 * block + 1)
    want = _exact_records(arr, ratio)
    scan = records._ratio_record_indices if ratio else records._int_record_indices
    for bound in (1, 2, block - 1, block, block + 1, 2 * block, 2 * block + 1):
        assert scan(arr[: bound + 1]) == [n for n in want if n <= bound], f"bound={bound}"


def test_record_search_memory_stays_near_its_budget():
    # check_budget charges the four int64 tables; the record scans and the
    # sieve kernel's scratch may add only a small fraction on top.
    bound = 10**6
    tracemalloc.start()
    try:
        sieve_records(bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 4 * 8 * (bound + 1)
