"""Exact integer arithmetic: factorization, divisor enumeration, d(n) and sigma(n).

Everything here is a pure function of its arguments and uses unbounded
Python integers, so results are exact at any scale the caller can afford.
The one floating-point step, factorize's pass over a prime table, only
proposes divisors, and exact remainders confirm them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

import numpy as np

from .errors import budget_error

# Miller-Rabin witnesses: the first thirteen primes.  After the first k of
# them pass, n is proven prime when it lies below the k-th bound, the
# smallest strong pseudoprime to those k bases (OEIS A014233).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

# factorize finds the primes below TRIAL_BOUND by one gcd with their product
# and splits what is left in _rho_split.  There a composite part below
# _FLOAT_EXACT_BOUND is first tested against the primes in
# [TRIAL_BOUND, _TABLE_BOUND) up to its square root with one vectorized
# float64 pass, and only a part that none of them divides goes to
# Pollard-Brent rho.  _TABLE_BOUND keeps the pass near 20 µs; below
# _FLOAT_EXACT_BOUND = 2^53 every integer is a float64, which makes the float
# test miss no divisor.
TRIAL_BOUND = 1000
_TABLE_BOUND = 1 << 17
_FLOAT_EXACT_BOUND = 1 << 53

# Most rho steps (one polynomial evaluation each) that one factorize call may
# take.  A 64-bit semiprime needs about 10^5; an n with two prime factors above
# 2^44 typically needs more and is refused with BudgetError.
RHO_BUDGET = 1 << 22

# Rho steps between gcd computations.
_RHO_BATCH = 128


def _prime_table(bound: int) -> np.ndarray:
    """The primes below bound, ascending, by a sieve of Eratosthenes on a numpy array."""
    marks = np.ones(bound, dtype=bool)
    marks[:2] = False
    for p in range(2, isqrt(bound - 1) + 1):
        if marks[p]:
            marks[p * p :: p] = False
    return np.flatnonzero(marks)


_TABLE_PRIMES = _prime_table(_TABLE_BOUND)

# The 168 primes below TRIAL_BOUND, as Python ints, and their product (about
# 1,400 bits): one gcd with the product tells factorize which of them divide n.
# The record search reads its candidates' primes from the tuple too.
_SMALL_PRIMES = tuple(_TABLE_PRIMES[_TABLE_PRIMES < TRIAL_BOUND].tolist())
_SMALL_PRODUCT = prod(_SMALL_PRIMES)

# The 12,083 primes in [TRIAL_BOUND, _TABLE_BOUND) and their reciprocals, as
# float64, for _table_prime_divisors.
_MEDIUM_PRIMES = _TABLE_PRIMES[_TABLE_PRIMES >= TRIAL_BOUND].astype(np.float64)
_MEDIUM_RECIPROCALS = 1.0 / _MEDIUM_PRIMES


def is_prime(n: int) -> bool:
    """Miller-Rabin, proven, below 3.317·10^24; Baillie-PSW at and above it.

    Below 3317044064679887385961981, the smallest strong pseudoprime to the
    first thirteen primes as bases, the rounds with those bases decide n,
    stopping at the first bound n lies below.  At and above it, n takes one
    strong round to base 2 and one strong Lucas test with Selfridge's
    parameters (_strong_lucas; Baillie and Wagstaff, "Lucas pseudoprimes",
    1980).  A True there means n is a BPSW probable prime: no composite is
    known to pass both tests, but that is not a proof.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    proven = n < _MR_PROVEN_BELOW[-1]
    for w, bound in zip(_MR_WITNESSES if proven else (2,), _MR_PROVEN_BELOW):
        x = pow(w, d, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True
    return _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 with Selfridge's parameters.

    D is the first of 5, −7, 9, −11, ... with Jacobi symbol (D/n) = −1, and
    the sequences are U and V for P = 1, Q = (1 − D)/4.  Writing n + 1 as
    d·2^s with d odd, n passes when U_d ≡ 0 or V_{d·2^r} ≡ 0 (mod n) for
    some r < s.  A square n has no such D and fails at once; a D sharing a
    factor with n proves n composite unless n = |D|.  U and V go from index
    k to 2k by U_2k = U_k·V_k and V_2k = V_k^2 − 2Q^k, and from k to k + 1
    by U_k+1 = (U_k + V_k)/2 and V_k+1 = (D·U_k + V_k)/2, halved mod n.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else 2 - D
    q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    u, v, qk = 0, 2, 1
    for bit in bin(d)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            u = (u + n * (u & 1)) // 2 % n
            v = (v + n * (v & 1)) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


@dataclass(frozen=True)
class Factorization:
    """Canonical prime-power decomposition; an empty pair list encodes n = 1.

    The constructor validates the pairs.  factorize and the record search's
    candidate list prove their primes as they find them, and build their
    results through _proven without that check.
    """

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

    @classmethod
    def _proven(cls, pairs: tuple[tuple[int, int], ...]) -> "Factorization":
        """A Factorization of ascending pairs whose primes the caller has proven."""
        fac = object.__new__(cls)
        object.__setattr__(fac, "pairs", pairs)
        return fac

    @property
    def n(self) -> int:
        value = 1
        for p, e in self.pairs:
            value *= p**e
        return value

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


def _pollard_brent(n: int, c: int, limit: int) -> tuple[int | None, int]:
    """Brent's cycle search for a divisor of composite n under y -> y^2 + c mod n.

    Returns (divisor, steps).  The divisor is n itself when this c fails, and
    None when `limit` steps ran out first.
    """
    y, r, q, found, steps = 2, 1, 1, 1, 0
    while found == 1:
        if steps + 2 * r > limit:
            return None, steps
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and found == 1:
            saved = y
            for _ in range(min(_RHO_BATCH, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            found = gcd(q, n)
            k += _RHO_BATCH
        steps += 2 * r
        r *= 2
    if found == n:
        # The batch overshot the collision; replay it one step at a time.
        while True:
            saved = (saved * saved + c) % n
            found = gcd(abs(x - saved), n)
            if found > 1:
                break
    return found, steps


def _table_prime_divisors(part: int) -> list[int]:
    """The table primes up to sqrt(part) that divide part < 2^53, ascending.

    Table primes are those in [TRIAL_BOUND, _TABLE_BOUND).  One float64 pass
    proposes each p with rint(part * (1/p)) * p == part, and an exact
    remainder confirms it.  Stopping at sqrt(part) loses nothing _rho_split
    needs: a part with no prime factor below TRIAL_BOUND has at most one
    above its square root, and that one is all that is left of the part
    once the primes found are divided out.
    """
    x = float(part)
    stop = int(np.searchsorted(_MEDIUM_PRIMES, isqrt(part), "right"))
    primes = _MEDIUM_PRIMES[:stop]
    quotients = x * _MEDIUM_RECIPROCALS[:stop]
    np.rint(quotients, out=quotients)
    quotients *= primes
    proposed = primes[quotients == x].astype(np.int64).tolist()
    return [p for p in proposed if part % p == 0]


def _rho_split(m: int, n: int) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs of m, a cofactor of n, by Pollard-Brent rho.

    A composite part below _FLOAT_EXACT_BOUND (2^53) is first tested against
    the primes in [TRIAL_BOUND, _TABLE_BOUND) in one numpy pass
    (_table_prime_divisors), and rho runs on it only when none of them
    divides it.  The float test only proposes primes; exact remainders
    confirm them, and a prime it missed would stay inside a part that
    is_prime and rho still handle, so the result never depends on floating
    point.  Below 2^53 it misses none: if p divides the part, the quotient
    k is below 2^43, and part * (1/p) in float64 lies within k·2^-52 < 2^-9
    of k, so rint recovers k exactly; k * p, an integer below 2^53, is then
    computed exactly.  The pass takes no
    rho steps.  The primes it finds are pushed after the rest of the part,
    so they are taken first and their repeats divided out of that rest at
    once, not found by another pass each.

    Each prime is divided out of every pending part as soon as it is found,
    its exponent counted on the way, so a repeated prime costs one rho run
    and one primality test rather than one of each per repeat: 1009^400 is
    400 divisions after the first split, not 400 splits of ever smaller
    4,000-bit parts.  The divisor rho returns, usually the smaller part of
    its split, is taken first.

    Raises BudgetError once splitting m takes more than RHO_BUDGET steps.
    """
    found = []
    pending = [m]
    spent = 0
    while pending:
        part = pending.pop()
        if is_prime(part):
            e = 1
            kept = []
            for other in pending:
                while other % part == 0:
                    other //= part
                    e += 1
                if other > 1:
                    kept.append(other)
            found.append((part, e))
            pending = kept
            continue
        if part < _FLOAT_EXACT_BOUND:
            hits = _table_prime_divisors(part)
            if hits:
                # A rest of 1 is dropped when the first hit is divided out.
                pending += [part // prod(hits), *hits]
                continue
        c = 1
        while True:
            factor, steps = _pollard_brent(part, c, RHO_BUDGET - spent)
            spent += steps
            if factor is None:
                raise budget_error("factoring", n, RHO_BUDGET, "arith.RHO_BUDGET", " rho steps")
            if factor != part:
                break
            c += 1
        pending += [part // factor, factor]
    return sorted(found)


def factorize(n: int) -> Factorization:
    """Factor a positive integer, in three stages.

    1. The small-prime gcd.  One gcd of n with _SMALL_PRODUCT, the product
       of the primes below TRIAL_BOUND, gives the small primes that divide
       n, and one walk over _SMALL_PRIMES divides n by those alone
       (Bernstein, "How to find smooth parts of integers", 2004).  The
       cofactor left then has no prime factor below TRIAL_BOUND, so below
       TRIAL_BOUND^2 it is 1 or prime; the walk also stops once p^2 exceeds
       it, when it has no prime factor below p.
    2. The table pass.  _rho_split tests each composite part below 2^53
       against the primes in [TRIAL_BOUND, _TABLE_BOUND) in one vectorized
       float64 pass, confirmed by exact remainders.
    3. Pollard-Brent rho splits a composite part the pass did not, within
       RHO_BUDGET steps in all, and raises BudgetError past them.

    Every prime is decided on the way: the small primes by the table, the
    final cofactor by that bound, and the parts _rho_split takes by
    is_prime, which proves them below 3.317·10^24 and finds them BPSW
    probable primes at and above it.  So the result skips Factorization's
    validation.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    pairs = []
    rest = n
    shared = gcd(n, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if shared == 1 or p * p > rest:
            break
        if shared % p == 0:
            shared //= p
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            pairs.append((p, e))
    if rest >= TRIAL_BOUND * TRIAL_BOUND:
        pairs += _rho_split(rest, n)
    elif rest > 1:
        pairs.append((rest, 1))
    return Factorization._proven(tuple(pairs))


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
