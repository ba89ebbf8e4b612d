import time
from functools import cache

import pytest

from recdiv import proper_divisors, sieve_records


class Definitional:
    """Oracle: the recursive divisor quantities straight from their definitions.

    kappa(n, x) = n**x plus kappa over the proper divisors of n; g(1) = 1 and
    g(n) is the sum of g over the proper divisors of n; the size table of n
    holds n once plus the merged size tables of its proper divisors.  Each
    is memoized per instance and uses nothing from recdiv.core.
    """

    def __init__(self) -> None:
        self.kappa = cache(self._kappa)
        self.g = cache(self._g)
        self.sized = cache(self._sized)

    def _kappa(self, n: int, x: int) -> int:
        return n**x + sum(self.kappa(m, x) for m in proper_divisors(n))

    def b(self, n: int) -> int:
        return self.kappa(n, 1)

    def _g(self, n: int) -> int:
        return 1 if n == 1 else sum(self.g(m) for m in proper_divisors(n))

    def _sized(self, n: int) -> dict[int, int]:
        counts = {n: 1}
        for m in proper_divisors(n):
            for k, c in self.sized(m).items():
                counts[k] = counts.get(k, 0) + c
        return counts


@pytest.fixture(scope="session")
def definitional():
    """One memoized definitional oracle shared across test modules."""
    return Definitional()


@pytest.fixture(scope="session")
def record_search_1m():
    """Full record search to one million, shared across test modules.

    Returns (table, elapsed_seconds); elapsed feeds the runtime acceptance
    check, so nothing else should be timed into it.
    """
    start = time.perf_counter()
    table = sieve_records(10**6)
    return table, time.perf_counter() - start
