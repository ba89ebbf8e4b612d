"""Search for record-setting integers.

Four kinds of records are tracked: counts of recursive divisors (RHC) and
their classical analogue d(n) (HC), plus the normalized sums b(n)/n (RSA)
and sigma(n)/n (SA).  A record is strict: n sets one when its value beats
that of every m < n, so ties never qualify.  Ratio kinds are decided by
exact cross-multiplied integer comparison.

search_records, the route the CLI takes, evaluates only the candidates: the
integers whose exponents do not increase along the consecutive primes
2, 3, 5, ... (the Hardy-Ramanujan integers, OEIS A025487).  Every strict
record-setter of each kind is a candidate.  All four quantities are sums
over the divisors of n,

    f(n) = Σ_{d|n} w(d) / d^x,

with x = 0 for the counts and x = 1 for the ratios, and a weight w that
depends only on the exponent signature of d: w = 1 for d and sigma(n)/n,
w = g, the ordered-factorization count, for a = 1 ∗ g and for
b(n)/n = Σ_{d|n} g(d)/d (b = id ∗ g, see core).  Let n be no candidate.
Then one of two moves gives some n' < n with a bijection from the divisors
of n onto those of n' that keeps w and never raises d, so f(n') ≥ f(n) and
n is no strict record:

- Some prime q divides n while a smaller prime p does not.  Replace q by p
  in n and in every divisor.
- Two primes p < q divide n with exponents E < F.  Let n' swap the two
  exponents.  A divisor p^i q^j r of n (r prime to pq) with j ≤ E is also
  one of n' and maps to itself.  One with j > E ≥ i maps to p^j q^i r,
  which divides n', has the same signature, and is smaller by (q/p)^(j−i).

For a and d this is plain: they depend only on the signature, so the
sorted rearrangement of n ties it.  For sigma(n)/n it is the argument of
Alaoglu and Erdős (1944) for superabundant numbers.

Records among the candidates are records among all n.  If a candidate n
beat every smaller candidate but some m < n had f(m) ≥ f(n), the least m
reaching max_{m<n} f(m) would set a strict record, so it would be a
candidate below n with a value not below f(n).  The search therefore scans
the candidates ascending with the same strict comparison as a scan of
1..bound.  It lists them depth-first, reading the primes from arith's
table.  There are 289 candidates up to 10^6, 4,357 up to 10^12,
32,749 up to 10^18 and 172,513 up to 10^24.

The walk also evaluates every candidate, by core's per-prime sums carried
down the tree.  For n = Π p_k^E_k (see core),

    kappa(n, x) = n^x + Σ_{m=1}^{Ω} c_m · (P_x[m] − n^x),   P_x[m] = Π_k T_k(m),
    T_k(m) = Σ_{e=0}^{E_k} C(e + m − 1, e) · p_k^{x(E_k − e)}.

Depth-first neighbours share all but their last prime, so each stack entry
carries the vectors P_0 and P_1.  A child that adds prime p with exponent e
multiplies its parent's vectors elementwise by T for that p and e, stepped
from e − 1 by Horner's rule: T_e(m) = p^x · T_{e−1}(m) + C(e + m − 1, e),
with T_0 = 1.  At x = 0 the sum telescopes to C(e + m, e).  The binomials
form one table per search, each row from the last by one multiply and one
exact divide per entry.  Since Σ_{m=1}^{Ω} c_m is Ω mod 2, the sum above is
n^x · (1 − Ω mod 2) + Σ c_m P_x[m].  At m = 1 every binomial is 1, so
P_0[1] = Π_k (E_k + 1) = d(n) and P_1[1] = Π_k (1 + p_k + ... + p_k^E_k) =
sigma(n): all four ranked quantities come from the walk, in O(log n)
integer operations per candidate.

Every descendant of n, n itself included, has at most Ω(n) + log2(bound/n)
prime factors, so n's vectors need no more entries than that, and they
shrink down the tree.  Each candidate is reduced to its four scalars when
it is popped, so no vector outlives the stack.  The work grows with the
number of candidates, so a bound at or past SEARCH_LIMIT, the 300,001st
candidate, is refused with BudgetError before any is listed.  Each
record entry comes from profile(n), which factors n again and evaluates it
by the per-n routes; the search raises AssertionError unless its
factorization, a, b, d and sigma equal the walk's.

sieve_records, the oracle that tests and `verify records` compare against,
sieves the requested quantities over 1..bound and scans every n.  A
conservative float prescan narrows every scan, never its decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Flag, auto
from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple

import numpy as np

from . import sieve
from .arith import _SMALL_PRIMES, Factorization
from .core import DivisorProfile, _coefficients, profile
from .errors import bound_text, budget_error

# The first bound search_records refuses: the 300,001st candidate, so a
# bound below it has at most 300,000.  There are 172,513 candidates up to
# 10^24 (about 6 s whole process with Python 3.11 on a 2-CPU VM), 284,452 up
# to 10^26, 300,000 up to SEARCH_LIMIT − 1 (about 8 s, 175 MB peak RSS) and
# 362,249 up to 10^27.
SEARCH_LIMIT = 165398522165420544000000000


class RecordKind(Flag):
    RHC = auto()
    RSA = auto()
    HC = auto()
    SA = auto()


ALL_KINDS = RecordKind.RHC | RecordKind.RSA | RecordKind.HC | RecordKind.SA

# What each kind ranks: the quantity's name, which is the DivisorProfile,
# RecordEntry and Candidate field and the sieve table; and whether it is
# ranked as value/n.
_KINDS = {
    RecordKind.RHC: ("a", False),
    RecordKind.RSA: ("b", True),
    RecordKind.HC: ("d", False),
    RecordKind.SA: ("sigma", True),
}


def _single(kinds: RecordKind) -> list[RecordKind]:
    return [k for k in RecordKind if k in kinds]


def kind_names(kinds: RecordKind) -> list[str]:
    return [k.name for k in _single(kinds)]


def parse_kinds(text: str) -> RecordKind:
    """Parse a comma-separated kind list such as 'RHC,RSA' (case-insensitive)."""
    kinds = RecordKind(0)
    for token in text.split(","):
        token = token.strip().upper()
        if not token:
            continue
        if token == "ALL":
            return ALL_KINDS
        try:
            kinds |= RecordKind[token]
        except KeyError:
            raise ValueError(f"unknown record kind {token!r}; choose from RHC, RSA, HC, SA")
    if not kinds:
        raise ValueError("no record kinds given")
    return kinds


@dataclass(frozen=True)
class RecordEntry:
    """One record-setting integer with every tracked quantity attached."""

    n: int
    factorization: Factorization
    kinds: RecordKind
    a: int
    b: int
    d: int
    sigma: int
    tau: int
    tau_cofactor: int

    @property
    def b_ratio(self) -> Fraction:
        return Fraction(self.b, self.n)

    @property
    def sigma_ratio(self) -> Fraction:
        return Fraction(self.sigma, self.n)

    def record_value(self, kind: RecordKind) -> int | Fraction:
        """The quantity this kind sets records in."""
        if kind not in _KINDS:
            raise ValueError(f"record_value needs a single kind, got {kind}")
        name, ratio = _KINDS[kind]
        value = getattr(self, name)
        return Fraction(value, self.n) if ratio else value


@dataclass(frozen=True)
class RecordTable:
    """Record-setters up to a bound, ascending by n, flagged by kind."""

    bound: int
    kinds: RecordKind
    entries: tuple[RecordEntry, ...]

    def numbers(self, kind: RecordKind) -> list[int]:
        return [e.n for e in self.entries if kind in e.kinds]

    def entry(self, n: int) -> RecordEntry | None:
        return next((e for e in self.entries if e.n == n), None)

    def check(self) -> None:
        """Internal consistency: strict growth per kind, n=1 first, RHC shape."""
        for kind in _single(self.kinds):
            chain = [e for e in self.entries if kind in e.kinds]
            if not chain or chain[0].n != 1:
                raise AssertionError(f"{kind.name} records must start at n=1")
            values = [e.record_value(kind) for e in chain]
            if any(u >= v for u, v in zip(values, values[1:])):
                raise AssertionError(f"{kind.name} record values must strictly increase")
        if RecordKind.RHC in self.kinds:
            for e in self.entries:
                if RecordKind.RHC in e.kinds:
                    exps = [x for _, x in e.factorization.pairs]
                    if exps != sorted(exps, reverse=True):
                        raise AssertionError(
                            f"count record {e.n} has increasing exponents: {exps}"
                        )


# Record scans run over fixed blocks so their temporaries stay small beside
# the int64 tables that check_budget charges for.
_SCAN_BLOCK = 1 << 16


def _record_indices(arr: np.ndarray, ratio: bool) -> list[int]:
    """n >= 1 where arr[n] (or arr[n]/n when ratio) beats every earlier value."""
    # Conservative prescan: float error is ~1e-15 relative, so no true record
    # can fall below the shifted running max by a 1e-9 factor.  The running
    # max carries across blocks, so the prescan is that of one full scan.
    prescan: list[int] = []
    best = 0.0
    for start in range(1, len(arr), _SCAN_BLOCK):
        values = arr[start : start + _SCAN_BLOCK].astype(np.float64)
        if ratio:
            values /= np.arange(start, start + len(values), dtype=np.float64)
        running = np.maximum(np.maximum.accumulate(values), best)
        prev_max = np.concatenate(([best], running[:-1]))
        prescan.extend((np.nonzero(values >= prev_max * (1 - 1e-9))[0] + start).tolist())
        best = float(running[-1])
    out: list[int] = []
    best_num, best_den = 0, 1
    for n in prescan:
        value, den = int(arr[n]), n if ratio else 1
        if value * best_den > best_num * den:
            out.append(n)
            best_num, best_den = value, den
    return out


def _table(
    bound: int,
    kinds: RecordKind,
    flags: dict[int, RecordKind],
    agrees: Callable[[DivisorProfile], None],
) -> RecordTable:
    """The checked table of the flagged n, each entry from profile(n).

    agrees(p) is the route's own check of profile p against the values it
    ranked p.n by, and raises AssertionError when they differ.
    """
    entries = []
    for n in sorted(flags):
        p = profile(n)
        agrees(p)
        tau = p.factorization.max_exponent
        entries.append(
            RecordEntry(n, p.factorization, flags[n], p.a, p.b, p.d, p.sigma, tau, p.a >> tau)
        )
    table = RecordTable(bound=bound, kinds=kinds, entries=tuple(entries))
    table.check()
    return table


class Candidate(NamedTuple):
    """One candidate integer with the four quantities its walk carried."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    a: int
    b: int
    d: int
    sigma: int

    @property
    def factorization(self) -> Factorization:
        return Factorization._proven(self.pairs)


def _binomial_rows(width: int) -> list[list[int]]:
    """rows[e][k] = C(e + k, e) for e < width and k <= width.

    Each row comes from the last by one multiply and one exact divide per
    entry: C(e + k, e) = C(e − 1 + k, e − 1) · (e + k) / e.
    """
    rows = [[1] * (width + 1)]
    for e in range(1, width):
        rows.append([binom * (e + k) // e for k, binom in enumerate(rows[-1])])
    return rows


def candidates(bound: int) -> list[Candidate]:
    """Integers up to bound with non-increasing exponents on 2, 3, 5, ..., ascending.

    Depth-first: each node extends its prefix by the next prime to an
    exponent no larger than the last one.
    Each stack entry carries P_0[m] and P_1[m] for every m up to the most
    prime factors its subtree can hold, and each candidate is reduced to its
    a, b, d and sigma when it is popped (see the module docstring).  A bound
    at or past SEARCH_LIMIT raises BudgetError before any work.  The primes
    come from arith's table of the 168 below 1000; a bound below
    SEARCH_LIMIT needs the first 20 of them.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound_text(bound)}")
    if bound >= SEARCH_LIMIT:
        raise budget_error("record search to", bound, SEARCH_LIMIT - 1, "records.SEARCH_LIMIT")
    found: list[Candidate] = []
    width = bound.bit_length()
    rows = _binomial_rows(width)
    ones = rows[0][:width]
    stack = [(1, (), width, 0, ones, ones)]
    while stack:
        n, pairs, cap, omega, p0, p1 = stack.pop()
        coeffs = _coefficients(omega)
        even = 1 - omega % 2
        a = even + sum(map(mul, coeffs, p0))
        b = even * n + sum(map(mul, coeffs, p1))
        found.append(Candidate(n, pairs, a, b, p0[0], p1[0]))
        p = _SMALL_PRIMES[len(pairs)]
        t1 = ones
        child = n
        for e in range(1, cap + 1):
            child *= p
            if child > bound:
                break
            size = omega + e + (bound // child).bit_length() - 1
            row = rows[e]
            t1 = [p * t + binom for t, binom in zip(t1, row[:size])]
            stack.append(
                (
                    child,
                    pairs + ((p, e),),
                    e,
                    omega + e,
                    list(map(mul, p0, row[1 : size + 1])),
                    list(map(mul, p1, t1)),
                )
            )
    found.sort()
    return found


def search_records(bound: int, kinds: RecordKind = ALL_KINDS) -> RecordTable:
    """Find every strict record-setter up to bound among the candidates.

    See the module docstring for why no other n can set a record.  Bounds
    below SEARCH_LIMIT are admitted, so the walk lists at most 300,000
    candidates.
    Each entry comes from profile(n), which factors n again and evaluates
    it by the per-n routes; it must agree with the walk's values.
    """
    if not kinds:
        raise ValueError("no record kinds requested")
    cands = candidates(bound)
    flags: dict[int, RecordKind] = {}
    found: dict[int, Candidate] = {}
    for kind in _single(kinds):
        name, ratio = _KINDS[kind]
        best_num, best_den = 0, 1
        for cand in cands:
            value, n = getattr(cand, name), cand.n
            den = n if ratio else 1
            if value * best_den > best_num * den:
                best_num, best_den = value, den
                flags[n] = flags.get(n, RecordKind(0)) | kind
                found[n] = cand

    def agrees(p: DivisorProfile) -> None:
        cand = found[p.n]
        walked = (cand.factorization, cand.a, cand.b, cand.d, cand.sigma)
        if (p.factorization, p.a, p.b, p.d, p.sigma) != walked:
            raise AssertionError(f"{p.n}: the candidate walk and profile disagree")

    return _table(bound, kinds, flags, agrees)


def tau_decompose(n: int) -> tuple[int, int]:
    """Split a(n) as cofactor * 2**tau, tau being the largest exponent of n."""
    p = profile(n)  # checks that 2**tau divides a(n)
    tau = p.factorization.max_exponent
    return tau, p.a >> tau


def sieve_records(bound: int, kinds: RecordKind = ALL_KINDS) -> RecordTable:
    """Oracle: every strict record-setter up to bound, by sieving and scanning 1..bound.

    The sieves are int64 arrays, so the bound is held to sieve.check_budget.
    """
    if not kinds:
        raise ValueError("no record kinds requested")
    wanted = _single(kinds)
    sieve.check_budget(bound, len(wanted))

    flags: dict[int, RecordKind] = {}
    arrays: dict[str, np.ndarray] = {}
    for kind in wanted:
        name, ratio = _KINDS[kind]
        arrays[name] = arr = sieve.TABLE_BUILDERS[name](bound)
        for n in _record_indices(arr, ratio):
            flags[n] = flags.get(n, RecordKind(0)) | kind

    # Each batch sieve must agree with the per-n profile: the core evaluators
    # for a and b, the factorization formulas for d and sigma.
    def agrees(p: DivisorProfile) -> None:
        for name, arr in arrays.items():
            if getattr(p, name) != int(arr[p.n]):
                raise AssertionError(f"{name}({p.n}): sieve and profile disagree")

    return _table(bound, kinds, flags, agrees)


def classify(n: int, table: RecordTable) -> RecordKind:
    """Record flags for n according to a finished table; empty flag if none."""
    if n < 1 or n > table.bound:
        raise ValueError(f"n = {n} is outside the table bound {table.bound}")
    entry = table.entry(n)
    return entry.kinds if entry is not None else RecordKind(0)
