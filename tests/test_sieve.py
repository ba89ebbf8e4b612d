import tracemalloc
from math import isqrt

import numpy as np
import pytest

from recdiv import MemoryGuardError, a, b, d, g, sieve, sigma
from recdiv.cli import build_parser
from recdiv.sieve import (
    INT64_SAFE_LIMIT,
    TABLE_BUILDERS,
    a_array,
    b_array,
    check_budget,
    d_array,
    g_array,
    sigma_array,
    table_array,
)

LIMIT = 2000
PUBLIC_SIEVES = [a_array, b_array, d_array, g_array, sigma_array]


def test_arrays_match_per_n_evaluators():
    a_arr = a_array(LIMIT)
    b_arr = b_array(LIMIT)
    g_arr = g_array(LIMIT)
    d_arr = d_array(LIMIT)
    s_arr = sigma_array(LIMIT)
    for n in range(1, LIMIT + 1):
        assert int(a_arr[n]) == a(n)
        assert int(b_arr[n]) == b(n)
        assert int(g_arr[n]) == g(n)
        assert int(d_arr[n]) == d(n)
        assert int(s_arr[n]) == sigma(n)


def test_count_doubles_factorizations_elementwise():
    a_arr = a_array(LIMIT)
    g_arr = g_array(LIMIT)
    assert int(g_arr[1]) == 1
    for n in range(2, LIMIT + 1):
        assert int(a_arr[n]) == 2 * int(g_arr[n])


def test_overflow_guard_refuses_unsafe_bounds():
    check_budget(10, 1)
    with pytest.raises(OverflowError):
        check_budget(INT64_SAFE_LIMIT + 1, 1, max_memory=10**20)


@pytest.mark.parametrize("build", PUBLIC_SIEVES, ids=lambda build: build.__name__)
def test_overflow_guard_names_a_bound_past_the_decimal_digit_limit(build):
    # str refuses integers of more than 4,300 digits, so the guard names them
    # by bit length and still raises its own errors.
    with pytest.raises(OverflowError, match="^bound a 16610-bit integer exceeds "):
        build(10**5000)
    with pytest.raises(ValueError, match="^limit must be >= 1, got a negative 16610-bit integer$"):
        check_budget(-(10**5000), 1)


@pytest.mark.parametrize("build", PUBLIC_SIEVES, ids=lambda build: build.__name__)
def test_memory_guard_reports_footprint(monkeypatch, build):
    monkeypatch.setattr(sieve, "DEFAULT_MAX_MEMORY", 1000)
    refusal = "8,000,008 bytes .* sieve.DEFAULT_MAX_MEMORY allows 1,000$"
    with pytest.raises(MemoryGuardError, match=refusal):
        build(10**6)


def test_one_spec_names_every_table():
    # _TABLES defines each table once; the builders, the public names and the
    # table subcommand's choices all follow from it.
    names = ["a", "b", "d", "g", "sigma"]
    assert sorted(sieve._TABLES) == sorted(TABLE_BUILDERS) == names
    assert [build.__name__ for build in PUBLIC_SIEVES] == [f"{fn}_array" for fn in names]
    table = build_parser()._subparsers._group_actions[0].choices["table"]
    assert next(action for action in table._actions if action.dest == "fn").choices == names


def _traced_peak(fn, limit):
    tracemalloc.start()
    try:
        table_array(fn, limit)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plain_tables_peak_near_the_one_array_check_budget_charges():
    # a peaks at its one int64 array. d and sigma run n downwards and read
    # each block's terms from their own table as a view, so they hold nothing
    # more.
    limit = 10**6
    slack = 64 * 1024
    one_array = _traced_peak("a", limit)
    assert _traced_peak("d", limit) <= one_array + slack
    assert _traced_peak("sigma", limit) <= one_array + slack


def test_table_array_dispatch():
    assert table_array("a", 5)[5] == 2
    assert table_array("sigma", 6)[6] == 12
    with pytest.raises(ValueError):
        table_array("phi", 10)


def test_bound_one():
    assert a_array(1).tolist() == [0, 1]
    assert b_array(1).tolist() == [0, 1]
    assert d_array(1).tolist() == [0, 1]


ORACLE_LIMIT = 10**5


@pytest.fixture(scope="module")
def oracle_tables():
    """Oracle: the per-n slice loops the sieve kernel replaced, one numpy add per n.

    A value at n does not depend on the bound, so one run to ORACLE_LIMIT
    serves every smaller bound as a prefix.
    """
    limit = ORACLE_LIMIT
    a_arr = np.ones(limit + 1, dtype=np.int64)
    a_arr[0] = 0
    b_arr = np.arange(limit + 1, dtype=np.int64)
    g_arr = np.zeros(limit + 1, dtype=np.int64)
    g_arr[1] = 1
    for arr in (a_arr, b_arr, g_arr):
        for n in range(1, limit // 2 + 1):
            arr[2 * n :: n] += arr[n]
    d_arr = np.zeros(limit + 1, dtype=np.int64)
    s_arr = np.zeros(limit + 1, dtype=np.int64)
    for n in range(1, limit + 1):
        d_arr[n::n] += 1
        s_arr[n::n] += n
    return {"a": a_arr, "b": b_arr, "g": g_arr, "d": d_arr, "sigma": s_arr}


def _kernel_bounds():
    # Every bound to 300, then both sides of each square (where isqrt(N), the
    # switch from per-n adds to blocks, steps) and of each power of two.
    edges = {k * k for k in range(2, isqrt(5000) + 2)} | {2**j for j in range(2, 14)}
    near = {e + delta for e in edges for delta in (-1, 0, 1)}
    return sorted(set(range(1, 301)) | near | {ORACLE_LIMIT})


@pytest.mark.parametrize("fn", sorted(TABLE_BUILDERS))
def test_kernel_matches_oracle(oracle_tables, fn):
    want = oracle_tables[fn]
    for limit in _kernel_bounds():
        got = TABLE_BUILDERS[fn](limit)
        assert got.dtype == np.int64 and len(got) == limit + 1
        assert np.array_equal(got, want[: limit + 1]), f"{fn} differs at bound {limit}"
