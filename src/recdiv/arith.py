"""Exact integer arithmetic: factorization, divisor enumeration, d(n) and sigma(n).

Everything here is a pure function of its arguments and uses unbounded
Python integers, so results are exact at any scale the caller can afford.
"""

from __future__ import annotations

from dataclasses import dataclass

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Gaps between consecutive integers coprime to 30, starting from 7.
_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)


def is_prime(n: int) -> bool:
    """Deterministic primality check adequate for 64-bit-scale inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ExponentSignature:
    """Multiset of factorization exponents, sorted descending.

    Two integers with equal signatures have the same number of recursive
    divisors, which makes this the memoization key for that count.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 1 for e in self.exponents):
            raise ValueError(f"exponents must be >= 1: {self.exponents}")
        if list(self.exponents) != sorted(self.exponents, reverse=True):
            raise ValueError(f"exponents must be sorted descending: {self.exponents}")

    @property
    def omega(self) -> int:
        """Number of prime factors counted with multiplicity."""
        return sum(self.exponents)


@dataclass(frozen=True)
class Factorization:
    """Canonical prime-power decomposition; an empty pair list encodes n = 1."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        primes = [p for p, _ in self.pairs]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError(f"primes must be strictly ascending: {primes}")
        for p, e in self.pairs:
            if e < 1:
                raise ValueError(f"exponent must be >= 1 in {p}^{e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @property
    def n(self) -> int:
        value = 1
        for p, e in self.pairs:
            value *= p**e
        return value

    @property
    def signature(self) -> ExponentSignature:
        return ExponentSignature(tuple(sorted((e for _, e in self.pairs), reverse=True)))

    @property
    def max_exponent(self) -> int:
        """Largest exponent; 0 for n = 1."""
        return max((e for _, e in self.pairs), default=0)

    @property
    def omega(self) -> int:
        return sum(e for _, e in self.pairs)

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.pairs)


def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division over a mod-30 wheel."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    pairs = []
    rest = n
    for p in (2, 3, 5):
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            pairs.append((p, e))
    p = 7
    gap_index = 0
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            pairs.append((p, e))
        p += _WHEEL_GAPS[gap_index]
        gap_index = (gap_index + 1) % len(_WHEEL_GAPS)
    if rest > 1:
        pairs.append((rest, 1))
    return Factorization(tuple(pairs))


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    return divisors_of(factorize(n))


def divisors_of(factorization: Factorization) -> list[int]:
    """Expand a factorization into its ascending divisor list.

    Generates mixed-radix products over the exponents rather than scanning
    up to n.
    """
    divs = [1]
    for p, e in factorization.pairs:
        power = 1
        grown = list(divs)
        for _ in range(e):
            power *= p
            grown.extend(d * power for d in divs)
        divs = grown
    divs.sort()
    return divs


def proper_divisors(n: int) -> list[int]:
    """Divisors of n excluding n itself, ascending."""
    return divisors(n)[:-1]


def d(n: int) -> int:
    """Number of divisors, via the exponent product formula."""
    return d_of(factorize(n))


def d_of(factorization: Factorization) -> int:
    count = 1
    for _, e in factorization.pairs:
        count *= e + 1
    return count


def sigma(n: int) -> int:
    """Sum of divisors, via the geometric-series product formula."""
    return sigma_of(factorize(n))


def sigma_of(factorization: Factorization) -> int:
    total = 1
    for p, e in factorization.pairs:
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total
