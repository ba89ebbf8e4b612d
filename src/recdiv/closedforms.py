"""Recursions and explicit formulas over one- to three-prime shapes.

Everything here except B_from_A is derived independently of the evaluators in
core.py, precisely so the two routes can be cross-checked against each other.
B_from_A sums counts over n's divisors with the walk that core.a_sized uses,
each count from the x = 0 per-prime form; it shares nothing with the x = 1
per-prime sums that give core.b, which lists no divisor.
The recursion for the divisor sum over three primes is implemented with sum
terms throughout its inclusion-exclusion body; its correctness gate is exact
agreement with the per-n evaluator on the full verification grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .arith import factorize, is_prime
from .core import divisor_lattice


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


@cache
def _a_rec(exponents: tuple[int, ...]) -> int:
    exponents = tuple(e for e in exponents if e > 0)
    if not exponents:
        return 1
    if len(exponents) == 1:
        (c,) = exponents
        return 2 * _a_rec((c - 1,))
    if len(exponents) == 2:
        c, e2 = exponents
        return 2 * (_a_rec((c - 1, e2)) + _a_rec((c, e2 - 1)) - _a_rec((c - 1, e2 - 1)))
    c, e2, e3 = exponents
    return 2 * (
        _a_rec((c - 1, e2, e3))
        + _a_rec((c, e2 - 1, e3))
        + _a_rec((c, e2, e3 - 1))
        - _a_rec((c, e2 - 1, e3 - 1))
        - _a_rec((c - 1, e2, e3 - 1))
        - _a_rec((c - 1, e2 - 1, e3))
        + _a_rec((c - 1, e2 - 1, e3 - 1))
    )


def a_recursion(shape: PrimePowerShape) -> int:
    """Recursive-divisor count via the doubling recursions; prime-agnostic."""
    return _a_rec(shape.normalized().exponents)


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


@cache
def _b_rec(pairs: tuple[tuple[int, int], ...]) -> int:
    pairs = tuple((p, e) for p, e in pairs if e > 0)
    if not pairs:
        return 1
    if len(pairs) == 1:
        (p, c), = pairs
        return 2 * _b_rec(((p, c - 1),)) + (p - 1) * p ** (c - 1)
    if len(pairs) == 2:
        (p, c), (q, d) = pairs
        return (
            2
            * (
                _b_rec(((p, c - 1), (q, d)))
                + _b_rec(((p, c), (q, d - 1)))
                - _b_rec(((p, c - 1), (q, d - 1)))
            )
            + (p - 1) * (q - 1) * p ** (c - 1) * q ** (d - 1)
        )
    (p, c), (q, d), (r, e) = pairs
    return (
        2
        * (
            _b_rec(((p, c - 1), (q, d), (r, e)))
            + _b_rec(((p, c), (q, d - 1), (r, e)))
            + _b_rec(((p, c), (q, d), (r, e - 1)))
            - _b_rec(((p, c), (q, d - 1), (r, e - 1)))
            - _b_rec(((p, c - 1), (q, d), (r, e - 1)))
            - _b_rec(((p, c - 1), (q, d - 1), (r, e)))
            + _b_rec(((p, c - 1), (q, d - 1), (r, e - 1)))
        )
        + (p - 1) * (q - 1) * (r - 1) * p ** (c - 1) * q ** (d - 1) * r ** (e - 1)
    )


def b_recursion(shape: PrimePowerShape) -> int:
    """Recursive-divisor sum via the prime-power recursions; needs concrete primes."""
    return _b_rec(shape.normalized().pairs)


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


def B_from_A(n: int) -> Fraction:
    """b(n)/n computed from recursive-divisor counts over the divisors of n.

    B(n) = 1/2 + Σ_{m|n} a(m)/(2m).  One walk over n's divisor lattice gives
    each m = n/d with g(m); a(m) = 2 g(m), except a(1) = 1 at d = n.  Over the
    common denominator n, the term of m is a(m)·d, so B(n) is one Fraction
    (n + Σ a(m)·d) / (2n).
    """
    numerator = sum(
        (2 * count if d < n else 1) * d for d, count in divisor_lattice(factorize(n))
    )
    return Fraction(n + numerator, 2 * n)
