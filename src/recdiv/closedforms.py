"""Recursions and explicit formulas over one- to three-prime shapes.

Everything here except b_from_counts and B_from_A is derived independently of
the evaluators in core.py, precisely so the two routes can be cross-checked
against each other.  Those two sum counts over n's divisors with the walk that
core.a_sized uses, each count from MacMahon's formula; they share nothing with
the per-prime sums stepped in m that give core.b, which list no divisor.

The paper's recursions for a and b on p^c, p^c q^d and p^c q^d r^e are one
identity.  With F = kappa(., x), id_x: n -> n^x, δ the Dirichlet unit, μ the
Möbius function and ∗ Dirichlet convolution, the definition reads
F ∗ (2δ − 1) = id_x.  Convolving with μ (1 ∗ μ = δ) gives F ∗ (2μ − δ) = J_x,
Jordan's totient id_x ∗ μ, with J_x(p^e) = (p^x − 1)·p^{x(e−1)}.  μ is (−1)^|T|
on the product of a set T of n's primes, 0 on other divisors, and T = ∅ gives
2F(n), so

    kappa(n, x) = J_x(n) + 2 Σ_{∅≠T⊆primes(n)} (−1)^{|T|+1} kappa(n / Π_{p∈T} p, x).

J_0(n) = 0 for n > 1 and J_1 = φ.  The three-prime b is this 7-term body, all
of it sums of b (no mixed term); its gate is exact agreement with the per-n
evaluator on the full verification grid.  The recursion takes any number of
primes; shapes keep at most three for a_closed and B_closed.

Every term on the right is kappa of a divisor of n, so kappa_table fills the
recursion bottom-up over n's exponent box, in lexicographic order.  A term
lowers some exponents by one, which gives a lexicographically smaller vector,
so its value is already in the table.  Nothing nests and nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from operator import mul

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


def kappa_table(pairs: tuple[tuple[int, int], ...], x: int) -> dict[tuple[int, ...], int]:
    """kappa(d, x) for every divisor d of n = Π p^e over pairs, keyed by d's exponent tuple.

    Values are listed in product()'s order, where lowering one exponent by one
    steps back by that prime's stride, Π (e + 1) over the primes after it.
    Each prime has a column of its factors J_x(p^e), 1 at e = 0.  terms holds
    the index of d / Π_{p∈T} p and 2(−1)^{|T|+1} for each T, T = ∅ first.
    """
    jordan = [[1] + [(p**x - 1) * p ** (x * (c - 1)) for c in range(1, e + 1)] for p, e in pairs]
    strides = [prod(e + 1 for _, e in pairs[i + 1 :]) for i in range(len(pairs))]
    boxes = [range(e + 1) for _, e in pairs]
    values: list[int] = []
    for exps in product(*boxes):
        total = 1
        terms = [(len(values), -2)]
        for column, e, stride in zip(jordan, exps, strides):
            total *= column[e]
            if e:
                terms += [(i - stride, -c) for i, c in terms]
        for i, c in terms[1:]:
            total += c * values[i]
        values.append(total)
    return dict(zip(product(*boxes), values))


def a_recursion(shape: PrimePowerShape) -> int:
    """Recursive-divisor count via the doubling recursion; prime-agnostic."""
    return kappa_table(shape.pairs, 0)[shape.exponents]


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
    return kappa_table(shape.pairs, 1)[shape.exponents]


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
