"""Batch divisor-sum sieves: whole-range arrays, O(N log N) work, O(sqrt N) numpy calls.

`_TABLES` is the one place a table is defined, as name -> (x, recursive).
Each table starts at n**x for n >= 1, except g (x None), which starts at the
Dirichlet unit: 1 at n = 1, 0 elsewhere.  That start value is the n | n
term.  One kernel, `_sieve`, then adds arr[n] for each n to all multiples
k*n (k >= 2), in one of two orders:

- recursive (a, b, g), increasing n: arr[n] is the finished value at n;
- plain divisor sum (d, sigma), decreasing n: arr[n] still holds n**x, since
  every add so far came from some m > n and landed at k*m >= 2m > n.

Schedule: for n <= isqrt(N) one strided slice add per n.  Above that, n runs
in doubling blocks [L, 2L) starting at L = isqrt(N) + 1, with one add per
multiplier k covering the whole block at once: arr[k*L : k*top : k] +=
arr[L:top], a view, so no second array is held.  Plain mode runs the same
steps in reverse.  Every proper divisor of n in [L, 2L) is below L, so in
recursive mode a block's sources are final before it starts, and every
target k*n >= 2L lies past the block, so no add in it changes one of them.
That is about isqrt(N) + 2*sqrt(N) numpy calls in all, where one call per n
would be N/2.

Arrays are int64 and results are immutable once returned.  Overflow guard:
a(n) and b(n) are both <= n^2 (induction: proper divisors of n are n/k for
k >= 2, so their squares sum to < 0.645 n^2), and d, sigma, g are smaller
still.  Every add is non-negative, so each partial value is at most its
final value.  Hence int64 cannot wrap for any bound <= isqrt(2^63 - 1);
larger bounds are refused loudly rather than sieved.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, pairwise
from math import isqrt

import numpy as np

from .errors import MemoryGuardError, bound_text

INT64_SAFE_LIMIT = isqrt(2**63 - 1)

# The one sieve budget outside `table --max-memory`: one int64 table to a
# 4e7 bound, or the four-array record oracle to 1e7.
DEFAULT_MAX_MEMORY = 4 * 8 * (10**7 + 1)


def check_budget(limit: int, arrays: int, max_memory: int | None = None) -> None:
    """Refuse a sieve that would overflow int64 or exceed the memory budget."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {bound_text(limit)}")
    if limit > INT64_SAFE_LIMIT:
        raise OverflowError(
            f"bound {bound_text(limit)} exceeds {INT64_SAFE_LIMIT}, the largest bound for which "
            "int64 accumulation provably cannot wrap"
        )
    setting = "sieve.DEFAULT_MAX_MEMORY" if max_memory is None else "max_memory"
    allowed = DEFAULT_MAX_MEMORY if max_memory is None else max_memory
    needed = arrays * 8 * (limit + 1)
    if needed > allowed:
        raise MemoryGuardError(
            f"sieving to {limit} needs {needed:,} bytes for {arrays} int64 "
            f"array(s); {setting} allows {allowed:,}"
        )


def _sieve(arr: np.ndarray, recursive: bool) -> np.ndarray:
    """Add arr[n] for each n >= 1 to every multiple k*n (k >= 2) in arr, in place.

    Recursive mode runs n upwards and plain mode downwards; steps are the
    n <= isqrt(limit) one at a time, then the blocks between edges.
    """
    limit = len(arr) - 1
    root = isqrt(limit)
    edges = [root + 1]
    while edges[-1] <= limit // 2:
        edges.append(min(2 * edges[-1], limit // 2 + 1))
    upward = pairwise(chain(range(1, root + 1), edges))
    downward = ((low, top) for top, low in pairwise(chain(reversed(edges), range(root, 0, -1))))
    for low, top in upward if recursive else downward:
        if low <= root:
            arr[2 * low :: low] += arr[low]
            continue
        src = arr[low:top]
        for k in range(2, limit // low + 1):
            stop = min(top, limit // k + 1)
            arr[k * low : k * stop : k] += src[: stop - low]
    return arr


_TABLES = {
    "a": (0, True),
    "b": (1, True),
    "g": (None, True),
    "d": (0, False),
    "sigma": (1, False),
}


def _build(fn: str, limit: int) -> np.ndarray:
    x, recursive = _TABLES[fn]
    if x is None:
        arr = np.zeros(limit + 1, dtype=np.int64)
        arr[1] = 1
    else:
        arr = np.arange(limit + 1, dtype=np.int64)
        arr **= x  # in place: no second full-length array
        arr[0] = 0
    return _sieve(arr, recursive)


TABLE_BUILDERS = {fn: partial(_build, fn) for fn in _TABLES}


def table_array(fn: str, limit: int, *, max_memory: int | None = None) -> np.ndarray:
    """Sieve one named table function over 1..limit."""
    try:
        builder = TABLE_BUILDERS[fn]
    except KeyError:
        raise ValueError(f"unknown table function {fn!r}; choose from {sorted(TABLE_BUILDERS)}")
    check_budget(limit, 1, max_memory)
    return builder(limit)


def a_array(limit: int) -> np.ndarray:
    """Counts of recursive divisors for 0..limit (index 0 unused)."""
    return table_array("a", limit)


def b_array(limit: int) -> np.ndarray:
    """Sums of recursive divisors for 0..limit (index 0 unused)."""
    return table_array("b", limit)


def g_array(limit: int) -> np.ndarray:
    """Ordered factorization counts for 0..limit (index 0 unused)."""
    return table_array("g", limit)


def d_array(limit: int) -> np.ndarray:
    """Divisor counts for 0..limit (index 0 unused)."""
    return table_array("d", limit)


def sigma_array(limit: int) -> np.ndarray:
    """Divisor sums for 0..limit (index 0 unused)."""
    return table_array("sigma", limit)
