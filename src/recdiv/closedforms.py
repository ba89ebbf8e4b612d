"""Recursions and explicit formulas over one- to three-prime shapes.

Everything here is derived independently of the per-prime sums stepped in m
that give core.a and core.b, which list no divisor, precisely so the two
routes can be cross-checked.  b_from_counts and B_from_A sum over n's divisors
with the walk of core.a_sized, each g(n/d) read from core.kappa_table at
x = 0.

The paper's recursions for a and b on p^c, p^c q^d and p^c q^d r^e are one
inclusion–exclusion identity over the primes of n with Jordan's totient J_x,
derived in core.py and filled bottom-up by core.kappa_table, which nests no
call and caches nothing.  The identity is the paper's as written; only its
evaluation differs: kappa_table takes the sum over subsets of primes one
prime at a time, k differences per divisor instead of one term per subset,
and the tests keep the subset form as its oracle.  J_0(n) = 0 for n > 1 and
J_1 = φ.  The three-prime b is this 7-term body, all of it sums of b (no
mixed term); its gate is exact agreement with the per-n evaluator on the
full verification grid.  The recursion takes any number of primes; shapes
keep at most three for a_closed and B_closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .arith import factorize, is_prime
from .core import divisor_lattice, kappa_table


@dataclass(frozen=True)
class PrimePowerShape:
    """An n of the form p^c, p^c q^d, or p^c q^d r^e; zero exponents absorb away."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.pairs) > 3:
            raise ValueError("shapes are limited to three distinct primes")
        primes = [p for p, _ in self.pairs]
        if len(set(primes)) != len(primes):
            raise ValueError(f"primes must be distinct: {primes}")
        for p, e in self.pairs:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e < 0:
                raise ValueError(f"exponent must be >= 0 in {p}^{e}")

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> PrimePowerShape:
        return cls(tuple(pairs))

    def normalized(self) -> PrimePowerShape:
        """Drop zero exponents; a zero-exponent prime contributes nothing."""
        if all(e > 0 for _, e in self.pairs):
            return self
        return PrimePowerShape(tuple((p, e) for p, e in self.pairs if e > 0))

    @property
    def n(self) -> int:
        value = 1
        for p, e in self.pairs:
            value *= p**e
        return value

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.pairs)


def a_distinct_primes(k: int) -> int:
    """Count of recursive divisors for a product of k distinct primes.

    Uses the binomial recursion over subsets of the prime set; the result
    does not depend on which primes are chosen (OEIS A000629 doubled past
    the first term).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    values = [1]
    for j in range(1, k + 1):
        values.append(1 + sum(comb(j, i) * values[i] for i in range(j)))
    return values[k]


def a_recursion(shape: PrimePowerShape) -> int:
    """Recursive-divisor count via the doubling recursion; prime-agnostic."""
    return kappa_table(shape.pairs, 0)[-1]


def _a_closed_two(c: int, d: int) -> int:
    return 2**c * sum(comb(d, i) * comb(c + i, i) for i in range(d + 1))


def a_closed(shape: PrimePowerShape) -> int:
    """Recursive-divisor count via the explicit binomial formulas.

    Evaluated in the order the shape lists its exponents; the value is
    invariant under reordering, which the test grid exercises.
    """
    exps = shape.normalized().exponents
    if not exps:
        return 1
    if len(exps) == 1:
        return 2 ** exps[0]
    if len(exps) == 2:
        return _a_closed_two(*exps)
    c, d, e = exps
    return sum(
        (-1) ** j * comb(d, j) * comb(c + d - j, d) * _a_closed_two(c + d - j, e)
        for j in range(d + 1)
    )


def b_recursion(shape: PrimePowerShape) -> int:
    """Recursive-divisor sum via the same recursion at x = 1; needs concrete primes."""
    return kappa_table(shape.pairs, 1)[-1]


def B_closed(shape: PrimePowerShape) -> Fraction:
    """b(n)/n as an exact rational, from the closed forms for 1-2 primes."""
    pairs = shape.normalized().pairs
    if len(pairs) > 2:
        raise ValueError("closed forms for the normalized ratio cover at most two primes")
    if not pairs:
        return Fraction(1)
    if len(pairs) == 1:
        (p, c), = pairs
        if p == 2:
            return Fraction(c + 2, 2)
        return Fraction((p - 1) * p**c - 2**c, (p - 2) * p**c)
    # Each sum below is taken over one common denominator D, and
    # 1/2 + total/2 = (D + D·total) / (2D) is built as one Fraction.
    (p, c), (q, d) = pairs
    if p == 2:
        # total = Σ_j s_j / q^j, so D = q^d.
        denominator = q**d
        scaled = sum(
            sum(comb(j, k) * comb(c + k + 1, k + 1) for k in range(j + 1)) * q ** (d - j)
            for j in range(d + 1)
        )
    else:
        # total = Σ_{i,j} 2^i s_ij / (p^i q^j), so D = p^c q^d.
        denominator = p**c * q**d
        scaled = sum(
            2**i
            * sum(comb(i + k, k) * comb(j, k) for k in range(j + 1))
            * p ** (c - i)
            * q ** (d - j)
            for i in range(c + 1)
            for j in range(d + 1)
        )
    return Fraction(denominator + scaled, 2 * denominator)


def b_from_counts(n: int) -> int:
    """b(n) as Σ_{d|n} d · g(n/d), summed over n's divisor lattice.

    B(n) = 1/2 + Σ_{m|n} a(m)/(2m) with a(m) = 2 g(m) for m > 1 and
    a(1) = 1 is Σ_{m|n} g(m)/m, so n·B(n) is this sum: the divisors times
    their cached g-column.
    """
    return sum(map(mul, *divisor_lattice(factorize(n))))


def B_from_A(n: int) -> Fraction:
    """b(n)/n computed from recursive-divisor counts over the divisors of n."""
    return Fraction(b_from_counts(n), n)
