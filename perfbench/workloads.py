"""Seeded input generation for the four benchmark workloads.

A workload run is a sequence of passes; each pass is one list of CLI argv
lists that a fresh worker process executes. `generate(workload, seed, k)`
returns pass k, so the same seed always yields the same argv lists. Output
paths hold the placeholder OUT, which the runner replaces with the pass's
output directory.

The generator shares no code with recdiv: the program under test receives
only the generated argv, and a change to recdiv cannot change its inputs.

Draws are stratified: each class is split into as many equal strata as it
has draws, by a cost proxy (magnitude, divisor count or square count), and
one member is drawn per stratum. Every member keeps its chance of being
drawn, but the heavy end of each class is always represented, so the
per-pass cost and latency tail do not swing with the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import isqrt

OUT = "{out}"

WORKLOADS = ("sweep", "eval", "trees", "verify")

# One line each; BENCHMARK.json repeats them verbatim.
WHY = {
    "sweep": "records all and table b --format json to 10^6: "
    "the sieves, the record scan and serialization",
    "eval": "1000 eval n (uniform, smooth A025487, semiprime): "
    "factorization and per-n recursion with its caches",
    "trees": "tree --check-overlap on 150 small n plus 3 large A025487 trees: "
    "layout, SVG and the overlap scan",
    "verify": "verify tables, lemmas, closedforms and trees: "
    "closed forms and dense consecutive n through core",
}

SWEEP_BOUND = 10**6

EVAL_UNIFORM, EVAL_SMOOTH, EVAL_SEMIPRIME = 750, 150, 100
EVAL_UNIFORM_MAX = 10**9
EVAL_SMOOTH_RANGE = (10**6, 10**10)
EVAL_P_RANGE = (10**4, 10**5)
EVAL_Q_RANGE = (10**5, 10**6)

TREE_SMALL = 150
TREE_SMALL_MAX = 3000
# Square counts a(n) that make a tree "large"; smaller trees are "small".
TREE_LARGE_BAND = (10**4, 5 * 10**4)
# Quantiles of the large band, by a(n), that pick the large trees.
TREE_LARGE_QUANTILES = (1 / 6, 1 / 2, 5 / 6)

VERIFY_SUITES = ("tables", "lemmas", "closedforms", "trees")

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv, its input class, and the integer it is about."""

    argv: tuple[str, ...]
    kind: str
    n: int | None = None


def is_prime(n: int) -> bool:
    """Trial division; the generator only tests n below 10^6."""
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def hardy_ramanujan(within) -> list[tuple[int, tuple[int, ...]]]:
    """Integers with non-increasing exponents on 2, 3, 5, ... (OEIS A025487).

    Returns (n, exponents) pairs, ascending by n, for which within(n, exponents)
    holds. The predicate must fail for every multiple of an integer it fails
    for, because the search stops extending there.
    """
    out: list[tuple[int, tuple[int, ...]]] = []

    def extend(index: int, n: int, exps: tuple[int, ...], max_e: int) -> None:
        out.append((n, exps))
        m = n
        for e in range(1, max_e + 1):
            m *= _PRIMES[index]
            if not within(m, exps + (e,)):
                break
            extend(index + 1, m, exps + (e,), e)

    extend(0, 1, (), 64)
    return sorted(out)


def divisor_count(exps: tuple[int, ...]) -> int:
    count = 1
    for e in exps:
        count *= e + 1
    return count


@cache
def square_count(exps: tuple[int, ...]) -> int:
    """a(n) from n's sorted exponent signature: 1 plus a over every proper divisor."""
    total = 1
    stack = [()]
    for e in exps:
        stack = [prefix + (k,) for prefix in stack for k in range(e + 1)]
    for sub in stack:
        if sub != exps:
            total += square_count(tuple(sorted((k for k in sub if k), reverse=True)))
    return total


def square_counts_upto(limit: int) -> list[int]:
    """a(n) for 0..limit by the recursive divisor sieve (index 0 unused)."""
    a = [1] * (limit + 1)
    a[0] = 0
    for n in range(1, limit // 2 + 1):
        for m in range(2 * n, limit + 1, n):
            a[m] += a[n]
    return a


def strata(items: list, count: int) -> list[list]:
    """Split items into `count` contiguous, nearly equal strata."""
    return [items[i * len(items) // count : (i + 1) * len(items) // count] for i in range(count)]


def _sweep_ops() -> list[Op]:
    bound = str(SWEEP_BOUND)
    return [
        Op(("records", "all", bound, "-o", f"{OUT}/records.csv"), "records", SWEEP_BOUND),
        Op(("table", "b", bound, "--format", "json", "-o", f"{OUT}/b.json"), "table", SWEEP_BOUND),
    ]


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        candidate = rng.randrange(lo, hi)
        if is_prime(candidate):
            return candidate


@cache
def _smooth_strata() -> list[list[int]]:
    lo, hi = EVAL_SMOOTH_RANGE
    members = hardy_ramanujan(lambda n, _: n <= hi)
    smooth = [(divisor_count(e), n) for n, e in members if n >= lo]
    return strata([n for _, n in sorted(smooth)], EVAL_SMOOTH)


def _eval_ops(rng: random.Random) -> list[Op]:
    width = EVAL_UNIFORM_MAX // EVAL_UNIFORM
    picks = [
        ("uniform", rng.randrange(i * width, (i + 1) * width) + 1) for i in range(EVAL_UNIFORM)
    ]
    picks += [("smooth", rng.choice(stratum)) for stratum in _smooth_strata()]
    p_lo, p_hi = EVAL_P_RANGE
    p_width = (p_hi - p_lo) // EVAL_SEMIPRIME
    for i in range(EVAL_SEMIPRIME):
        p = _random_prime(rng, p_lo + i * p_width, p_lo + (i + 1) * p_width)
        picks.append(("semiprime", p * _random_prime(rng, *EVAL_Q_RANGE)))
    rng.shuffle(picks)
    return [Op(("eval", str(n)), kind, n) for kind, n in picks]


@cache
def _tree_inputs() -> tuple[list[list[int]], tuple[int, ...]]:
    a = square_counts_upto(TREE_SMALL_MAX)
    lo, hi = TREE_LARGE_BAND
    small = sorted((a[n], n) for n in range(1, TREE_SMALL_MAX + 1) if a[n] < lo)
    # a(n) grows along divisibility, so the search can stop above the band.
    members = hardy_ramanujan(lambda _, e: square_count(e) <= hi)
    band = sorted((square_count(e), n) for n, e in members if square_count(e) >= lo)
    large = tuple(band[int(q * len(band))][1] for q in TREE_LARGE_QUANTILES)
    return strata([n for _, n in small], TREE_SMALL), large


def _tree_ops(rng: random.Random) -> list[Op]:
    small_strata, large = _tree_inputs()
    picks = [("small", rng.choice(stratum)) for stratum in small_strata]
    picks += [("large", n) for n in large]
    rng.shuffle(picks)
    return [
        Op(("tree", str(n), "-o", f"{OUT}/tree{i}.svg", "--check-overlap"), kind, n)
        for i, (kind, n) in enumerate(picks)
    ]


def _verify_ops() -> list[Op]:
    return [Op(("verify", suite), suite) for suite in VERIFY_SUITES]


def generate(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The ops of one pass; identical for identical arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "sweep":
        return _sweep_ops()
    if workload == "eval":
        return _eval_ops(rng)
    if workload == "trees":
        return _tree_ops(rng)
    return _verify_ops()


def class_counts(ops: list[Op]) -> dict[str, int]:
    return dict(Counter(op.kind for op in ops))
