"""The recursive divisor function family, evaluated from per-prime sums.

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

    kappa(n, x) = Σ_{d|n} d^x · g(n/d) = Σ_{d|n} (n/d)^x · g(d).

Hence a = 1 ∗ g, which is 2g for n > 1; b = id ∗ g; and the size-k count of
a_sized(n) is g(n/k), one chain of proper divisors from n down to k per
ordered factorization of n/k.

The divisor sum splits over the primes of n = Π p_k^E_k, Ω = Σ E_k.
MacMahon's formula (OEIS A074206) counts the ordered factorizations of d
into exactly j parts > 1.  The ordered j-tuples of positive integers with
product d number Π_k C(e_k + j − 1, e_k), e_k being the exponent of p_k in
d, and inclusion-exclusion over the parts equal to 1 leaves

    g_j(d) = Σ_{0≤i≤j} (−1)^i C(j, i) Π_k C(e_k + j − i − 1, e_k).

The i = j term counts empty tuples, so it is [d = 1]; drop it.  For d > 1
that changes nothing.  For d = 1 every product is 1 and the sum over i < j
is −(−1)^j instead of 0, so the d = 1 term is taken out by hand below.  For
d > 1, g_j(d) = 0 whenever j > Ω(d), since j parts > 1 need j prime factors;
so j may run to Ω(n) for every divisor, and g(d) = Σ_{j=1}^{Ω(n)} g_j(d).
Put m = j − i.  Both the weight (n/d)^x and the binomial product factor over
the primes, so for each m the sum over all d | n is a product of per-prime
sums, and its d = 1 term is n^x:

    Σ_{d|n} (n/d)^x Π_k C(e_k + m − 1, e_k) = Π_k T_k(m),
    T_k(m) = Σ_{e=0}^{E_k} C(e + m − 1, e) · p_k^{x(E_k − e)}.

Taking the d = 1 term apart (g(1) = 1),

    kappa(n, x) = n^x + Σ_{m=1}^{Ω} c_m · (Π_k T_k(m) − n^x),
    c_m = Σ_{j=m}^{Ω} (−1)^{j−m} C(j, m).

That costs O(Ω · Σ E_k) integer operations and lists no divisor.  T_k(m) is
evaluated by Horner's rule in p_k^x; at x = 0 it is C(E_k + m, E_k).  The
coefficients c depend only on Ω ≤ log2(n).  The divisor walk survives only
where one value per divisor is the output (a_sized, closedforms.B_from_A).
There g of each cofactor n/d > 1, with exponents r_k, is MacMahon's sum
Σ_m c_m Π_k C(r_k + m − 1, r_k) with the same c_m, since j may run to Ω(n).
That column of g(n/d) depends only on n's ordered exponent tuple, so it is
computed once per tuple (n ≤ 10^4 has 148 tuples), and only the divisors
themselves are listed per n.  The definitional recursion and the
sub-signature enumeration of a are kept in the tests as oracles, and
g_enumerated is a further, independent oracle for g: it walks every chain
n → n/f_1 → ... → 1 of an ordered factorization on an explicit stack and
counts the chains that reach 1, memoizing no count.

All functions are pure.  There are two process-local functools caches, safe
to share across threads under CPython, and both bounded by the n asked for.
_coefficients holds one tuple of Ω integers per Ω asked for: at most 64
tuples while every n is below 2^64.  _g_column holds the G_COLUMN_CACHE
(1024) most recently used columns, one tuple of d(n) integers each.  n ≤ 10^5
has 351 tuples and d(n) ≤ 128, so they all fit; in general the cache holds at
most 1024 times the largest d(n) asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, prod

# proper_divisors stays importable for perfbench's tracer, which counts calls
# to recdiv.core.proper_divisors; nothing in this module makes one.
from .arith import Factorization, d_of, divisors, factorize, proper_divisors, sigma_of  # noqa: F401
from .errors import BudgetError

# Most tuples the g_enumerated oracle walks before it refuses n with BudgetError.
TUPLE_BUDGET = 1_000_000

# Most g-columns _g_column keeps, one per ordered exponent tuple.  n <= 10^5
# has 351 such tuples.
G_COLUMN_CACHE = 1024


@cache
def _coefficients(omega: int) -> tuple[int, ...]:
    """(c_1, ..., c_Ω) with c_m = Σ_{j=m}^{Ω} (−1)^{j−m} C(j, m)."""
    return tuple(
        sum((-1) ** (j - m) * comb(j, m) for j in range(m, omega + 1))
        for m in range(1, omega + 1)
    )


def _prime_sum(q: int, e: int, m: int) -> int:
    """T(m) = Σ_{k=0}^{e} C(k + m − 1, k) · q^(e − k), by Horner's rule in q = p^x."""
    t = binom = 1
    for k in range(1, e + 1):
        binom = binom * (k + m - 1) // k
        t = t * q + binom
    return t


def _kappa_of(fac: Factorization, x: int) -> int:
    """kappa(n, x) for n = fac.n from the per-prime sums; no divisor is listed."""
    pairs = [(p**x, e) for p, e in fac.pairs]
    n_x = prod(q**e for q, e in pairs)
    total = n_x
    for m, c in enumerate(_coefficients(fac.omega), start=1):
        if x == 0:
            product = prod(comb(e + m, e) for _, e in pairs)
        else:
            product = prod(_prime_sum(q, e, m) for q, e in pairs)
        total += c * (product - n_x)
    return total


def divisor_lattice(fac: Factorization) -> list[tuple[int, int]]:
    """(d, g(n/d)) for every divisor d of n = fac.n, d = 1 first and n last.

    Divisors are listed in mixed radix over fac.pairs, the last prime
    fastest; the g(n/d) column in the same order depends only on the
    exponents and comes from _g_column.
    """
    divisors = [1]
    for p, e in fac.pairs:
        powers = [p**c for c in range(e + 1)]
        divisors = [d * power for d in divisors for power in powers]
    return list(zip(divisors, _g_column(tuple(e for _, e in fac.pairs))))


@lru_cache(maxsize=G_COLUMN_CACHE)
def _g_column(exponents: tuple[int, ...]) -> tuple[int, ...]:
    """g(n/d) over the divisors d of any n with these ordered exponents.

    Divisors are walked as exponent vectors in divisor_lattice's order.  With
    j running to Ω(n) for every divisor, MacMahon's formula gives
    g(n/d) = Σ_m c_m Π_k C(r_k + m − 1, r_k) for d < n, r_k being the
    exponents of n/d; so each divisor carries, per prime, the row of those
    binomials at its cofactor's exponent.  g(1) = 1 ends the column.
    """
    omega = sum(exponents)
    top = max(exponents, default=0)
    rows = [tuple(comb(r + j, r) for j in range(omega)) for r in range(top + 1)]
    factors: list[tuple[tuple[int, ...], ...]] = [(_coefficients(omega),)]
    for e in exponents:
        steps = [rows[e - c] for c in range(e + 1)]
        factors = [f + (row,) for f in factors for row in steps]
    return tuple(sum(map(prod, zip(*f))) for f in factors[:-1]) + (1,)


def kappa(n: int, x: int) -> int:
    """Recursive divisor function: n^x plus kappa over proper divisors.

    Evaluated from per-prime sums over one factorization of n.
    """
    if x < 0:
        raise ValueError(f"x must be a nonnegative integer, got {x}")
    return _kappa_of(factorize(n), x)


def a(n: int) -> int:
    """Number of recursive divisors of n."""
    return kappa(n, 0)


def b(n: int) -> int:
    """Sum of recursive divisors of n; depends on the primes, not just exponents."""
    return kappa(n, 1)


def g(n: int) -> int:
    """Number of ordered factorizations of n into integers > 1: a(n)/2 for n > 1."""
    count = a(n)
    return count // 2 if count > 1 else 1


def g_enumerated(n: int) -> int:
    """Count ordered factorizations by walking every chain of quotients.

    An ordered factorization (f_1, ..., f_k) of n is the chain of quotients
    n → n/f_1 → ... → 1, each step dividing by a divisor > 1.  The walk keeps
    an explicit stack of the quotients still to leave.  Each quotient popped
    ends one chain that reaches 1 (m > 1 by the step m → 1, and n = 1 by the
    empty chain) and pushes the quotients m/f > 1 that go on, so the count is
    one per quotient popped.  Every quotient divides n, so its list of next
    quotients is read once per call from n's divisor list and kept for this
    call only.  No count is memoized and every chain is walked, so the cost
    is g(n) itself: this is the independence oracle for the claim that a(n)
    doubles g(n), and it shares no machinery with the per-prime evaluation it
    checks.  TUPLE_BUDGET is checked at every chain; past it, BudgetError.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    above_one = divisors(n)[1:]
    onward: dict[int, list[int]] = {}
    stack = [n]
    count = 0
    while stack:
        m = stack.pop()
        count += 1
        if count > TUPLE_BUDGET:
            raise BudgetError(
                f"ordered factorization enumeration for {n} exceeded budget {TUPLE_BUDGET}"
            )
        if m not in onward:
            onward[m] = [m // f for f in above_one if f < m and m % f == 0]
        stack += onward[m]
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
    want = _kappa_of(fac, 0)
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
    dv = d_of(fac)
    sv = sigma_of(fac)
    av = _kappa_of(fac, 0)
    bv = _kappa_of(fac, 1)
    gv = av // 2 if n > 1 else 1
    if av < dv or bv < sv:
        raise AssertionError(f"recursive counts of {n} fell below the plain divisor ones")
    if av % 2**fac.max_exponent:
        raise AssertionError(f"a({n}) = {av} not divisible by 2^{fac.max_exponent}")
    return DivisorProfile(n, dv, sv, av, bv, gv, Fraction(av, n), Fraction(bv, n), fac)
