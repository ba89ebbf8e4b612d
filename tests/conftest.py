from functools import cache
from itertools import product
from typing import Iterator

import pytest

from recdiv import divisors, proper_divisors, search_records


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


@cache
def a_from_signature(exponents: tuple[int, ...]) -> int:
    """Oracle: count of recursive divisors for any n with the given exponent signature.

    The count depends only on the exponents, so divisors are enumerated as
    exponent vectors and re-keyed by their own signatures.  This walks every
    sub-signature, exponentially many in the number of primes; recdiv.core
    evaluates the same count from per-prime sums instead.
    """
    total = 1
    for combo in product(*(range(e + 1) for e in exponents)):
        if combo == exponents:
            continue
        sub = tuple(sorted((c for c in combo if c), reverse=True))
        total += a_from_signature(sub)
    return total


def ordered_factorizations(n: int) -> Iterator[tuple[int, ...]]:
    """Oracle: yield every tuple of integers > 1 whose ordered product is n.

    Tuples come in lexicographic order of their entries: the first entry runs
    over the divisors > 1 of n in ascending order, and the rest is the walk of
    the quotient.  n is factored once; every quotient m divides n, so its
    divisors > 1 are read off n's divisor list, and that filtered list is kept
    for this call only.  No count is memoized.  recdiv.core.g_enumerated walks
    the same chains on a stack without building the tuples.
    """
    above_one = divisors(n)[1:]
    firsts: dict[int, list[int]] = {}

    def walk(m: int) -> Iterator[tuple[int, ...]]:
        if m == 1:
            yield ()
            return
        if m not in firsts:
            firsts[m] = [d for d in above_one if m % d == 0]
        for first in firsts[m]:
            for rest in walk(m // first):
                yield (first, *rest)

    return walk(n)


@pytest.fixture(scope="session")
def assert_same_text():
    """Fail unless two texts are equal, naming the first differing character.

    A failing == between two long texts makes pytest diff them, which takes
    minutes for an SVG of thousands of lines or a JSON table of half a
    megabyte on one line.  This reports the offset of the first difference,
    about 80 characters of each text around it, and the two lengths instead.
    """

    def check(got, want):
        if got == want:
            return
        first = next(
            (i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want))
        )
        start = max(0, first - 40)
        pytest.fail(
            f"texts differ first at character {first}: got {got[start : first + 40]!r}, "
            f"want {want[start : first + 40]!r}; lengths {len(got)} and {len(want)}"
        )

    return check


@pytest.fixture(scope="session")
def factorization_tuples():
    """The ordered-factorization listing oracle."""
    return ordered_factorizations


@pytest.fixture(scope="session")
def signature_count():
    """The sub-signature enumeration oracle for a(n), memoized across modules."""
    return a_from_signature


@pytest.fixture(scope="session")
def definitional():
    """One memoized definitional oracle shared across test modules."""
    return Definitional()


@pytest.fixture(scope="session")
def record_search_1m():
    """Full record search to one million, shared across test modules."""
    return search_records(10**6)
