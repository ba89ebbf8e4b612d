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

No divisor is listed.  Each T_k is stepped in m, not in e.  Drop the index
k, write q = p^x and E for the exponent, and T_m(E) for T(m).  Two rules
relate neighbouring sums:

    Horner's rule:  T_m(E) = q · T_m(E − 1) + C(E + m − 1, E),
    Pascal's rule:  T_m(E) − T_{m−1}(E) = T_m(E − 1),

the second from C(e + m − 1, e) − C(e + m − 2, e) = C(e + m − 2, e − 1).
Eliminating T_m(E − 1) gives

    (q − 1) · T_m(E) = q · T_{m−1}(E) − C(E + m − 1, E),   T_0(E) = q^E,

and the division is exact for q > 1.  At x = 0, q = 1 and the sum is
C(E + m, E) = C(E + m − 1, E) · (E + m)/m, which is also the binomial that
the step for q > 1 needs at m + 1.  Either way a prime costs one multiply
and one exact divide per m, and its column T(1), ..., T(Ω) costs Ω steps,
so the sums cost O(Ω · k) integer operations for k distinct primes.  Then
Π_k T_k(m) is multiplied out for every m.  Summed over m first,
Σ_{m=1}^{j} (−1)^{j−m} C(j, m) = (−1)^{j+1}, so Σ_m c_m is Ω mod 2 and

    kappa(n, x) = n^x · (1 − Ω mod 2) + Σ_{m=1}^{Ω} c_m Π_k T_k(m).

The record search (records.py) steps the same sums in e, down its walk, and
profile cross-checks each record entry against this route.

The work is bounded for n of up to 4,300 digits, the most an int parses from
text by default, so n < 10^4300.  For k primes Ω is largest when n is
2^(Ω−k+1) times the first k − 1 odd primes, so Ω · k is at most 5,265,040, at
2^7039 times the odd primes to 5,101 (Ω = 7,720, k = 682).  a and b of that n
take about 5.5 s together on 2 CPUs, and of 2^14284, the largest Ω, about
3.5 s; factoring is bounded apart, by arith.RHO_BUDGET.  tests/test_core.py
pins the bound and the time of b.

The coefficients c depend only on Ω ≤ log2(n) and take O(Ω) steps: summing
C(j, m) = C(j + 1, m + 1) − C(j, m + 1) over j gives c_{m+1} plus
(−1)^{Ω−m} C(Ω + 1, m + 1) from the first term and −c_{m+1} from the second, so

    c_m = 2 c_{m+1} + (−1)^{Ω−m} C(Ω + 1, m + 1),  c_{Ω+1} = 0,

each binomial from the last by one multiply and one exact divide.

The divisor walk survives only where one value per divisor is the output
(a_sized, and closedforms.b_from_counts behind B_from_A), and its g(n/d)
column comes from the paper's own recursion.  Convolving F ∗ (2δ − 1) = id_x
with the Möbius function μ gives F ∗ (2μ − δ) = J_x, Jordan's totient, with
J_x(p^e) = (p^x − 1)·p^{x(e−1)}; μ is (−1)^|T| on the product of a set T of
n's primes and 0 on other divisors, and T = ∅ gives 2F(n), so

    kappa(n, x) = J_x(n) + 2 Σ_{∅≠T⊆primes(n)} (−1)^{|T|+1} kappa(n / Π_{p∈T} p, x).

Each term on the right is kappa of a proper divisor of n, so kappa_table
fills the recursion bottom-up over n's exponent box in lexicographic order,
into a list in divisor_lattice's order: position i holds kappa of the i-th
divisor and the last holds kappa(n).
The sum over T is kappa ∗ μ on the box, taken one prime at a time: with
P_0 = kappa and P_j(d) = P_{j−1}(d) − P_{j−1}(d/p_j) where p_j divides d,
P_k = kappa ∗ μ, so 2 P_k(d) − kappa(d) = J_x(d).  P_j(d) − kappa(d) reads
only divisors below d, which gives kappa(d) and then each P_j(d) in k
differences.  p_j reads P_{j−1} one stride of p_j back, so past P_0 each
is kept as a window of that many entries.  A box of k primes then costs
k · Π (e + 1) steps rather than one term per subset, Π (2e + 1).  At x = 0
it holds a(d), and a(n/d) at the mirrored index, so the column is the table
reversed and halved, with g(1) = 1.  J_0 reads no prime, so one column
serves each ordered exponent tuple (n ≤ 10^4 has 148).
a_sized checks the column's total against the per-prime sums.
The definitional recursion, the sub-signature enumeration of a and
MacMahon's per-divisor sum are kept in the tests as oracles, and g_enumerated
is a further, independent oracle for g: it walks every chain
n → n/f_1 → ... → 1 of an ordered factorization on an explicit stack and
counts the chains that reach 1, memoizing no count.

All functions are pure.  There is one process-local functools cache, safe
to share across threads under CPython and bounded in entries: _g_column holds
the G_COLUMN_CACHE (2048) most recently used columns, one tuple of d(n)
integers each, from one kappa_table at x = 0.  n ≤ 10^5 has 351 tuples and
d(n) ≤ 128; n ≤ 2.5·10^6, the larger verify budget, has 1,061 tuples and
d(n) ≤ 320, so they all fit.  In general the cache holds at most 2048 times
the largest d(n) asked for.  The coefficient rows for Ω < 64, every n below
2^64, are built once at import (64 tuples, about 77 KiB); a larger Ω computes
its row per call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import itemgetter, mul

# proper_divisors stays importable for perfbench's tracer, which counts calls
# to recdiv.core.proper_divisors; nothing in this module makes one.
from .arith import Factorization, d_of, divisors, factorize, proper_divisors, sigma_of  # noqa: F401
from .errors import bound_text, budget_error

# Most tuples the g_enumerated oracle walks before it refuses n with BudgetError.
TUPLE_BUDGET = 1_000_000

# Most g-columns _g_column keeps, one per ordered exponent tuple.  n <= 10^5
# has 351 such tuples and n <= 2.5·10^6, the larger verify budget, has 1,061.
G_COLUMN_CACHE = 2048

_exponent = itemgetter(1)


# _coefficients for every Ω < 64, so every n < 2^64; filled at import, below.
_COEFFICIENT_ROWS: tuple[tuple[int, ...], ...] = ()


def _coefficients(omega: int) -> tuple[int, ...]:
    """(c_1, ..., c_Ω) by the recurrence above, s = (−1)^{Ω−m} C(Ω + 1, m + 1)."""
    if omega < len(_COEFFICIENT_ROWS):
        return _COEFFICIENT_ROWS[omega]
    coefficients = []
    c, s = 0, 1
    for m in range(omega, 0, -1):
        c = 2 * c + s
        coefficients.append(c)
        s = -s * (m + 1) // (omega + 1 - m)
    return tuple(reversed(coefficients))


_COEFFICIENT_ROWS = tuple(map(_coefficients, range(64)))


def _kappa_of(fac: Factorization, x: int) -> int:
    """kappa(n, x) for n = fac.n from the per-prime sums stepped in m; no divisor is listed.

    Each prime's column T(1), ..., T(Ω) starts from T(0) = q^e, q = p^x, and
    count = C(e + m − 1, e), which is T(m − 1) at x = 0.  Columns are built
    in increasing order of exponent and merged like a binary counter, two of
    equal weight at a time: most multiplies are then of small integers, the
    large column of a high power meets the others last, and at most
    log2(k) + 1 columns are held at once.
    """
    omega = fac.omega
    steps = range(1, omega + 1)
    n_x = 1
    pending: list[tuple[int, list[int]]] = []
    for p, e in sorted(fac.pairs, key=_exponent):
        column = []
        count = 1
        if x:
            q = p**x
            t = q**e
            n_x *= t
            for m in steps:
                t = (q * t - count) // (q - 1)
                column.append(t)
                count = count * (e + m) // m
        else:
            for m in steps:
                count = count * (e + m) // m
                column.append(count)
        weight = 1
        while pending and pending[-1][0] == weight:
            column = list(map(mul, pending.pop()[1], column))
            weight *= 2
        pending.append((weight, column))
    products = pending.pop()[1] if pending else []
    for _, column in reversed(pending):
        products = list(map(mul, products, column))
    return n_x * (1 - omega % 2) + sum(map(mul, _coefficients(omega), products))


def divisor_lattice(fac: Factorization) -> tuple[list[int], tuple[int, ...]]:
    """Every divisor d of n = fac.n, d = 1 first and n last, and the g(n/d) column.

    Divisors are listed in mixed radix over fac.pairs, the last prime
    fastest; the g(n/d) column in the same order depends only on the
    exponents and comes from _g_column.
    """
    divisors = [1]
    for p, e in fac.pairs:
        powers = [p**c for c in range(e + 1)]
        divisors = [d * power for d in divisors for power in powers]
    return divisors, _g_column(tuple(e for _, e in fac.pairs))


def kappa_table(pairs: tuple[tuple[int, int], ...], x: int) -> list[int]:
    """kappa(d, x) for every divisor d of n = Π p^e over pairs, in divisor_lattice's order.

    The list follows product()'s order over the exponent box, the last prime
    fastest, so position i holds the i-th divisor and the last holds n.
    Lowering one exponent by one steps back by that prime's stride,
    Π (e + 1) over the primes after it.
    Each prime has a column of its factors J_x(p^e), 1 at e = 0.  The subset
    sum is taken one prime at a time.  P_j is the table with the first j
    primes differenced out, P_0 = kappa, and rest steps
    R_j(d) = P_j(d) − kappa(d) = R_{j−1}(d) − P_{j−1}(d/p_j) over the primes,
    so kappa(d) = J_x(d) − 2 R_k(d) and P_j(d) = kappa(d) + R_j(d).  p_j
    reads P_{j−1} one stride of p_j back, so values holds P_0 and windows
    holds P_1, ..., P_{k−1}, each a deque of that stride.  A box costs
    k · Π (e + 1) steps, not one term per subset, Π (2e + 1).
    """
    jordan = [[1] + [(p**x - 1) * p ** (x * (c - 1)) for c in range(1, e + 1)] for p, e in pairs]
    strides = [prod(e + 1 for _, e in pairs[i + 1 :]) for i in range(len(pairs))]
    boxes = [range(e + 1) for _, e in pairs]
    values: list[int] = []
    windows = [deque(maxlen=stride) for stride in strides[1:]]
    steps = list(zip(jordan, strides, [values, *windows]))
    for exps in product(*boxes):
        total, rest = 1, 0
        rests = []
        for (column, stride, window), e in zip(steps, exps):
            total *= column[e]
            if e:
                rest -= window[-stride]
            rests.append(rest)
        total -= 2 * rest
        values.append(total)
        for window, r in zip(windows, rests):
            window.append(total + r)
    return values


@lru_cache(maxsize=G_COLUMN_CACHE)
def _g_column(exponents: tuple[int, ...]) -> tuple[int, ...]:
    """g(n/d) over the divisors d of any n with these ordered exponents.

    a(d) at x = 0 does not read the primes, so 2 stands in for each; the
    table reversed lists a(n/d), halved for n/d > 1, and g(1) = 1 ends it.
    """
    counts = kappa_table(tuple((2, e) for e in exponents), 0)
    return tuple(count // 2 for count in reversed(counts[1:])) + (1,)


def kappa(n: int, x: int) -> int:
    """Recursive divisor function: n^x plus kappa over proper divisors.

    Evaluated from per-prime sums over one factorization of n.
    """
    if x < 0:
        raise ValueError(f"x must be a nonnegative integer, got {bound_text(x)}")
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
    above_one = divisors(n)[1:]
    onward: dict[int, list[int]] = {}
    stack = [n]
    count = 0
    while stack:
        m = stack.pop()
        count += 1
        if count > TUPLE_BUDGET:
            raise budget_error(
                "ordered factorization enumeration for", n, TUPLE_BUDGET, "core.TUPLE_BUDGET",
                " tuples",
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
    table = SizedCountTable(n, dict(sorted(zip(*divisor_lattice(fac)))))
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
