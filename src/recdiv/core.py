"""The recursive divisor function family, evaluated over the divisor lattice.

kappa(n, x) = n^x + Σ kappa(m, x) over the proper divisors m of n.  Its
x = 0 and x = 1 specializations are the two quantities this package revolves
around: the count a(n) and the sum b(n) of recursive divisors.

The definition solves in closed form.  Write F = kappa(., x), f = id_x
(n -> n^x), 1 for the constant function, δ for the Dirichlet unit and ∗ for
Dirichlet convolution.  The definition reads F = f + (F ∗ 1 − F), so
F ∗ (2δ − 1) = f and F = f ∗ (2δ − 1)⁻¹.  The inverse h satisfies
2h(n) − Σ_{d|n} h(d) = δ(n): h(1) = 1 and, for n > 1, h(n) is the sum of h
over the proper divisors of n.  That is the recurrence of g(n), the number of
ordered factorizations of n into integers > 1, so h = g and

    kappa(n, x) = Σ_{d|n} d^x · g(n/d).

Hence a = 1 ∗ g, which is 2g for n > 1; b = id ∗ g; and the size-k count of
a_sized(n) is g(n/k), one chain of proper divisors from n down to k per
ordered factorization of n/k.

g depends only on the exponent signature, so it is read from the
a_from_signature cache.  divisor_lattice factors n once and walks the
exponent vectors of its divisors; every evaluator costs one factorization
plus one cache lookup per divisor.  Every cache here is keyed by exponent
data (a signature or an exponent vector), never by n.  The definitional recursion is kept in the
tests as the oracle, and the tuple enumeration g_enumerated is a second,
independent oracle for g.

All functions are pure; memo caches are process-local functools caches,
safe to share across threads under CPython.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Iterator

# proper_divisors stays importable for perfbench's tracer, which counts calls
# to recdiv.core.proper_divisors; nothing in this module makes one.
from .arith import Factorization, d_of, divisors, factorize, proper_divisors, sigma_of  # noqa: F401
from .errors import BudgetError

DEFAULT_TUPLE_BUDGET = 1_000_000


@cache
def a_from_signature(exponents: tuple[int, ...]) -> int:
    """Count of recursive divisors for any n with the given exponent signature.

    The count depends only on the exponents, so divisors are enumerated as
    exponent vectors and re-keyed by their own signatures.
    """
    total = 1
    for combo in product(*(range(e + 1) for e in exponents)):
        if combo == exponents:
            continue
        sub = tuple(sorted((c for c in combo if c), reverse=True))
        total += a_from_signature(sub)
    return total


@cache
def _g_from_exponents(exponents: tuple[int, ...]) -> int:
    """g for any n with these exponents, in any order and zeros allowed.

    Keyed by the raw vector so that each divisor in divisor_lattice costs one
    lookup rather than a sort into its signature.
    """
    signature = tuple(sorted((e for e in exponents if e), reverse=True))
    return a_from_signature(signature) // 2 if signature else 1


def divisor_lattice(fac: Factorization) -> list[tuple[int, int]]:
    """(d, g(n/d)) for every divisor d of n = fac.n, d = 1 first.

    Divisors are built as exponent vectors, each carrying the complementary
    exponents of its cofactor n/d, so nothing is refactored.
    """
    entries: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    for p, e in fac.pairs:
        steps = [(p**c, e - c) for c in range(e + 1)]
        entries = [(d * power, rest + (r,)) for d, rest in entries for power, r in steps]
    return [(d, _g_from_exponents(rest)) for d, rest in entries]


def kappa(n: int, x: int) -> int:
    """Recursive divisor function: n^x plus kappa over proper divisors.

    Evaluated as Σ_{d|n} d^x · g(n/d) over one factorization of n.
    """
    if x < 0:
        raise ValueError(f"x must be a nonnegative integer, got {x}")
    return sum(d**x * count for d, count in divisor_lattice(factorize(n)))


def a(n: int) -> int:
    """Number of recursive divisors of n."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return a_from_signature(factorize(n).signature.exponents)


def b(n: int) -> int:
    """Sum of recursive divisors of n; depends on the primes, not just exponents."""
    return kappa(n, 1)


def g(n: int) -> int:
    """Number of ordered factorizations of n into integers > 1."""
    _, count = divisor_lattice(factorize(n))[0]
    return count


def ordered_factorizations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every tuple of integers > 1 whose ordered product is n.

    Deliberately unmemoized: this is the independence oracle for the claim
    that a(n) doubles g(n), so it must not share machinery with the
    divisor recursion it checks.
    """
    if n == 1:
        yield ()
        return
    for first in divisors(n)[1:]:
        for rest in ordered_factorizations(n // first):
            yield (first, *rest)


def g_enumerated(n: int, budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Count ordered factorizations by explicit enumeration.

    Walks every tuple, so the cost is g(n) itself; refuses past `budget`.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    count = 0
    for _ in ordered_factorizations(n):
        count += 1
        if count > budget:
            raise BudgetError(
                f"ordered factorization enumeration for {n} exceeded budget {budget}"
            )
    return count


@dataclass(frozen=True)
class SizedCountTable:
    """Counts of recursive divisors of each size k for one n.

    Missing keys mean zero; only divisors of n can appear.
    """

    n: int
    entries: dict[int, int]

    def count(self, k: int) -> int:
        return self.entries.get(k, 0)

    @property
    def total(self) -> int:
        return sum(self.entries.values())


def a_sized(n: int) -> SizedCountTable:
    """Full size-classified table of recursive divisor counts for n.

    The count of size k is g(n/k), read off n's divisor lattice.
    """
    fac = factorize(n)
    table = SizedCountTable(n, dict(sorted(divisor_lattice(fac))))
    if table.count(n) != 1:
        raise AssertionError(f"size table of {n} lost its root entry")
    want = a_from_signature(fac.signature.exponents)
    if table.total != want:
        raise AssertionError(f"size table of {n} sums to {table.total}, expected {want}")
    return table


@dataclass(frozen=True)
class DivisorProfile:
    """Bundle of the divisor quantities of one n, with exact ratio forms."""

    n: int
    d: int
    sigma: int
    a: int
    b: int
    g: int
    A: Fraction
    B: Fraction
    factorization: Factorization


def profile(n: int) -> DivisorProfile:
    """Compute all divisor quantities of n from one factorization and check them."""
    fac = factorize(n)
    lattice = divisor_lattice(fac)
    dv = d_of(fac)
    sv = sigma_of(fac)
    av = a_from_signature(fac.signature.exponents)
    bv = sum(d * count for d, count in lattice)
    gv = lattice[0][1]
    expected_a = 1 if n == 1 else 2 * gv
    if av != expected_a:
        raise AssertionError(f"a({n}) = {av} but ordered factorizations give {gv}")
    if av < dv or bv < sv:
        raise AssertionError(f"recursive counts of {n} fell below the plain divisor ones")
    if av % 2**fac.max_exponent:
        raise AssertionError(f"a({n}) = {av} not divisible by 2^{fac.max_exponent}")
    return DivisorProfile(n, dv, sv, av, bv, gv, Fraction(av, n), Fraction(bv, n), fac)
