import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import prod
from operator import or_

import pytest

from recdiv import (
    ALL_KINDS,
    BudgetError,
    MemoryGuardError,
    RecordKind,
    a_sized,
    classify,
    factorize,
    search_records,
    sieve_records,
    tau_decompose,
)
from recdiv import arith, closedforms, core, records, sieve
from recdiv.formats import ExportFormat, format_records
from recdiv.records import RecordTable, candidates, parse_kinds

SINGLE_KINDS = (RecordKind.RHC, RecordKind.RSA, RecordKind.HC, RecordKind.SA)
KIND_SUBSETS = [
    reduce(or_, subset) for size in range(1, 5) for subset in combinations(SINGLE_KINDS, size)
]
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def test_count_records_to_ten():
    table = search_records(10, RecordKind.RHC)
    assert table.numbers(RecordKind.RHC) == [1, 2, 4, 6, 8]


def test_classical_count_records_to_ten():
    table = search_records(10, RecordKind.HC)
    assert table.numbers(RecordKind.HC) == [1, 2, 4, 6]


def test_ratio_records_to_fifty():
    # 8 qualifies: b(8)/8 = 5/2 strictly beats every earlier ratio (the
    # previous maximum is b(6)/6 = 7/3).
    table = search_records(50, RecordKind.RSA)
    assert table.numbers(RecordKind.RSA) == [1, 2, 4, 6, 8, 12, 24, 36, 48]


def test_classical_ratio_records_to_ten():
    table = search_records(10, RecordKind.SA)
    assert table.numbers(RecordKind.SA) == [1, 2, 4, 6]


def test_bound_one_single_entry():
    table = search_records(1)
    assert len(table.entries) == 1
    entry = table.entries[0]
    assert entry.n == 1
    assert entry.kinds == ALL_KINDS


def test_entry_values_and_ratios():
    table = search_records(100)
    entry = table.entry(96)
    assert entry is not None
    assert (entry.a, entry.b) == (224, 768)
    assert entry.b_ratio == Fraction(8)
    assert entry.record_value(RecordKind.RHC) == 224
    assert entry.record_value(RecordKind.RSA) == Fraction(8)
    assert str(entry.factorization) == "2^5 * 3"


def test_classify_everything_at_720(record_search_1m):
    assert classify(720, record_search_1m) == ALL_KINDS


def test_classify_prime_is_no_record(record_search_1m):
    assert classify(7, record_search_1m) == RecordKind(0)


def test_classify_the_exceptional_ratio_record(record_search_1m):
    kinds = classify(181440, record_search_1m)
    assert RecordKind.RSA in kinds
    assert RecordKind.RHC not in kinds


def test_classify_rejects_out_of_range():
    table = search_records(100)
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
    entries = record_search_1m.entries
    for kind in (RecordKind.RHC, RecordKind.RSA, RecordKind.HC, RecordKind.SA):
        chain = [e.record_value(kind) for e in entries if kind in e.kinds]
        assert chain[0] is not None
        assert all(u < v for u, v in zip(chain, chain[1:]))
        first = next(e for e in entries if kind in e.kinds)
        assert first.n == 1


def test_memory_guard(monkeypatch):
    monkeypatch.setattr(sieve, "DEFAULT_MAX_MEMORY", 1000)
    with pytest.raises(MemoryGuardError):
        sieve_records(10**6)


def test_parse_kinds():
    assert parse_kinds("rhc,rsa") == RecordKind.RHC | RecordKind.RSA
    assert parse_kinds("ALL") == ALL_KINDS
    assert parse_kinds("rhc,all") == ALL_KINDS
    assert parse_kinds("SA") == RecordKind.SA
    with pytest.raises(ValueError):
        parse_kinds("XYZ")
    with pytest.raises(ValueError):
        parse_kinds(",")
    with pytest.raises(ValueError, match="unknown record kind 'FOO'"):
        parse_kinds("all,foo")


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


@pytest.mark.parametrize("fn, ratio", [("a", False), ("b", True), ("d", False), ("sigma", True)])
def test_blocked_scans_match_exact_scan(fn, ratio):
    block = records._SCAN_BLOCK
    arr = sieve.TABLE_BUILDERS[fn](2 * block + 1)
    want = _exact_records(arr, ratio)
    for bound in (1, 2, block - 1, block, block + 1, 2 * block, 2 * block + 1):
        got = records._record_indices(arr[: bound + 1], ratio)
        assert got == [n for n in want if n <= bound], f"bound={bound}"


# (n, value) pairs for the one strict-record rule both routes share, with the
# n it keeps.  An n left out has value 0, which never sets a record.
STRICT_CASES = [
    # Equal counts tie: 5 at n = 2 is not a record after 5 at n = 1.
    ([(1, 5), (2, 5), (3, 6)], False, [1, 3]),
    # Equal ratios tie: 6/4 is not a record after 3/2; 8/5 is.
    ([(2, 3), (4, 6), (5, 8)], True, [2, 5]),
    # The first positive value qualifies, whatever n it comes at.
    ([(1, 0), (2, 0), (3, 7)], False, [3]),
    ([(1, 0), (2, 0), (3, 7)], True, [3]),
    # float64 rounds both values, and both ratios, to the same double 2**53.
    ([(1, 2**53), (2, 2**53 + 1)], False, [1, 2]),
    ([(1, 2**53), (2, 2**54 + 1)], True, [1, 2]),
]


@pytest.mark.parametrize("pairs, ratio, want", STRICT_CASES)
def test_strict_rule_matches_exact_scan(pairs, ratio, want):
    arr = [0] * (pairs[-1][0] + 1)
    for n, value in pairs:
        arr[n] = value
    assert _exact_records(arr, ratio) == want
    assert records._strict(pairs, ratio) == want


def test_strict_cases_near_2_53_are_one_double():
    assert float(2**53 + 1) == float(2**53)
    assert float(2**54 + 1) / 2 == float(2**53)


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


def test_record_search_factors_each_entry_once(monkeypatch):
    seen = []
    real = arith.factorize

    def counting(n):
        seen.append(n)
        return real(n)

    for module in (arith, core):
        monkeypatch.setattr(module, "factorize", counting)
    for search in (search_records, sieve_records):
        seen.clear()
        table = search(10**5)
        assert sorted(seen) == [e.n for e in table.entries], search.__name__


def _outputs(table):
    """format_records of a table in every format that admits it."""
    single = len(records.kind_names(table.kinds)) == 1
    return {
        fmt: format_records(table, fmt)
        for fmt in ExportFormat
        if single or fmt is not ExportFormat.BFILE
    }


@pytest.mark.parametrize("kinds", KIND_SUBSETS, ids=lambda k: "+".join(records.kind_names(k)))
def test_search_output_matches_sieve_oracle_to_200(kinds):
    for bound in range(1, 201):
        assert _outputs(search_records(bound, kinds)) == _outputs(
            sieve_records(bound, kinds)
        ), f"bound={bound}"


@pytest.mark.parametrize("kinds", KIND_SUBSETS, ids=lambda k: "+".join(records.kind_names(k)))
def test_search_output_matches_sieve_oracle_at_1e6(kinds):
    assert _outputs(search_records(10**6, kinds)) == _outputs(sieve_records(10**6, kinds))


def _restricted(table, kinds):
    """The table a search for `kinds` alone gives: each kind's records do not depend on the others."""
    entries = tuple(replace(e, kinds=e.kinds & kinds) for e in table.entries if e.kinds & kinds)
    return RecordTable(bound=table.bound, kinds=kinds, entries=entries)


def test_search_output_matches_sieve_oracle_at_1e7():
    # One sieve of all four kinds (320 MB of int64 tables); the subsets are
    # read off it, since each kind's records are found independently.
    oracle = sieve_records(10**7)
    for kinds in KIND_SUBSETS:
        want = _restricted(oracle, kinds)
        assert _outputs(search_records(10**7, kinds)) == _outputs(want), records.kind_names(kinds)


def _is_candidate(n):
    pairs = factorize(n).pairs
    primes = [p for p, _ in pairs]
    exps = [e for _, e in pairs]
    return primes == list(FIRST_PRIMES[: len(pairs)]) and exps == sorted(exps, reverse=True)


def test_candidates_are_the_non_increasing_exponent_integers():
    facs = candidates(10**4)
    assert [f.n for f in facs] == [n for n in range(1, 10**4 + 1) if _is_candidate(n)]
    assert all(f.factorization == factorize(f.n) for f in facs)


@pytest.mark.parametrize("bound, count", [(10**6, 289), (10**7, 492), (10**12, 4357)])
def test_candidate_counts(bound, count):
    assert len(candidates(bound)) == count


def test_search_at_1e12_matches_the_lattice_walk():
    table = search_records(10**12)
    assert [len(table.numbers(k)) for k in SINGLE_KINDS] == [189, 123, 95, 66]
    for e in table.entries:
        assert e.a == a_sized(e.n).total, e.n
        assert e.b_ratio == closedforms.B_from_A(e.n), e.n


def test_candidates_past_the_primorial_of_fifteen_primes():
    # The last of the 51,148 candidates up to the product of the first 16
    # primes is that product, so the search must generate the 16th prime, 53.
    bound = prod(FIRST_PRIMES)
    facs = candidates(bound)
    assert len(facs) == 51_148
    assert facs[-1].pairs == tuple((p, 1) for p in FIRST_PRIMES)
    assert all(_is_candidate(f.n) for f in facs[-100:])


def test_search_budget_is_checked_before_any_evaluation(monkeypatch):
    monkeypatch.setattr(records, "SEARCH_LIMIT", 100)
    # Listing or reducing a candidate, comparing a record or building an
    # entry would raise TypeError instead.
    monkeypatch.setattr(records, "_binomial_rows", None)
    monkeypatch.setattr(records, "_coefficients", None)
    monkeypatch.setattr(records, "_KINDS", None)
    monkeypatch.setattr(records, "profile", None)
    refusal = "^record search to 100 exceeds the work budget of 99; records.SEARCH_LIMIT sets it$"
    with pytest.raises(BudgetError, match=refusal):
        search_records(100)


def _admitted(monkeypatch, bound):
    """Whether candidates(bound) passes its guard, whose first step past it builds a table."""
    monkeypatch.setattr(records, "_binomial_rows", None)
    try:
        candidates(bound)
    except TypeError:
        return True
    except BudgetError:
        return False


def test_search_limit_is_the_300001st_candidate():
    # The oracle is a plain depth-first count that carries no values: exactly
    # 300,000 candidates lie below SEARCH_LIMIT, and the limit is the next.
    limit = records.SEARCH_LIMIT
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    count = 0
    stack = [(1, 0, limit.bit_length())]
    while stack:
        n, k, cap = stack.pop()
        count += 1
        for e in range(1, cap + 1):
            n *= primes[k]
            if n >= limit:
                break
            stack.append((n, k + 1, e))
    assert count == 300_000
    assert _is_candidate(limit)


def test_search_budget_boundary(monkeypatch):
    # A bound below the limit is admitted and the limit itself is refused,
    # at the default and at a limit of 1000, below which 39 candidates lie.
    for limit in (records.SEARCH_LIMIT, 1000):
        monkeypatch.setattr(records, "SEARCH_LIMIT", limit)
        assert _admitted(monkeypatch, limit - 1)
        assert not _admitted(monkeypatch, limit)
    monkeypatch.undo()
    assert len(candidates(999)) == 39


def test_default_budget_admits_1e26_and_refuses_1e27(monkeypatch):
    assert _admitted(monkeypatch, 10**26)
    monkeypatch.undo()
    refusal = (
        f"^record search to {10**27} exceeds the work budget of 165398522165420543999999999; "
        "records.SEARCH_LIMIT sets it$"
    )
    with pytest.raises(BudgetError, match=refusal):
        search_records(10**27)


def test_budget_names_a_bound_past_the_decimal_digit_limit():
    # str refuses integers of more than 4,300 digits; the guards still raise
    # their own errors, naming such a bound by its bit length.
    bound = 10**5000
    with pytest.raises(BudgetError, match="^record search to a 16610-bit integer exceeds "):
        search_records(bound)
    with pytest.raises(OverflowError, match="^bound a 16610-bit integer exceeds "):
        sieve_records(bound)


def _walk_mismatches(facs):
    """The candidates whose carried a, b, d and sigma differ from the per-n evaluators."""
    mismatches = []
    for c in facs:
        fac = c.factorization
        kappas = (core._kappa_of(fac, 0), core._kappa_of(fac, 1))
        if (c.a, c.b, c.d, c.sigma) != (*kappas, arith.d_of(fac), arith.sigma_of(fac)):
            mismatches.append(c.n)
    return mismatches


def test_walk_values_match_the_per_n_evaluators_to_1e12():
    facs = candidates(10**12)
    assert len(facs) == 4357
    assert _walk_mismatches(facs) == []


def test_an_off_by_one_binomial_step_fails_the_walk_checks(monkeypatch):
    def mutant(width):
        rows = [[1] * (width + 1)]
        for e in range(1, width):
            rows.append([binom * (e + k + 1) // e for k, binom in enumerate(rows[-1])])
        return rows

    monkeypatch.setattr(records, "_binomial_rows", mutant)
    assert len(_walk_mismatches(candidates(10**12))) == 4356  # all but n = 1
    with pytest.raises(AssertionError, match="candidate walk and profile disagree"):
        search_records(10**12)


def test_search_keeps_no_vector_per_candidate():
    # A candidate keeps n, its pairs and four integers, under 1 kB: the peak
    # is about 1.9 MB here.  Keeping each candidate's two vectors as well
    # raised it to 13 MB.
    bound = 10**12
    count = len(candidates(bound))
    tracemalloc.start()
    try:
        search_records(bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1000 * count
