"""Machine verification suites behind the `verify` CLI command.

Each suite cross-checks independent computation routes (batch sieve versus
per-n evaluators, recursions versus closed forms, layouts versus counting
identities) and reports one line per identity with the number of cases
checked.

SUITES is the one registry of these checks: the CLI runs a suite from it,
and the acceptance tests run every suite at its default bound, the `limit`
default in its signature.  The tables and records suites compare against
frozen reference data, so they refuse a bound past its end.  The lemmas
and closedforms suites check the sieve memory guard first and then refuse a
bound past LEMMAS_BUDGET or CLOSEDFORMS_BUDGET with BudgetError.

A check's failure detail is built only when the case fails: `tally` takes a
zero-argument callable, so a passing case formats no text.

A route is evaluated once per distinct input it depends on, and every case
is still tallied on its own: the closedforms suite evaluates the definition
once per n, the recursion as one table of sums per ordered prime tuple and
one table of counts, and the count's closed form once per exponent tuple,
then checks each of its 13,308 ordered shapes against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import prod
from typing import Callable
from xml.etree import ElementTree

from . import closedforms, golden, records, sieve
from .arith import _SMALL_PRIMES, d_of, factorize, is_prime, sigma_of
from .core import a, a_sized, b, g_enumerated
from .errors import budget_error
from .tree import SvgStyle, layout, to_svg

GRID_PRIMES = (2, 3, 5, 7, 11, 13)
GRID_MAX_EXPONENT = 5
GRID_MAX_N = 10**9

# Largest bounds verify lemmas and verify closedforms admit, each about a
# minute of work on 2 CPUs; a larger bound is refused with BudgetError.
LEMMAS_BUDGET = 1_500_000
CLOSEDFORMS_BUDGET = 2_500_000


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def tally(self, condition: bool, detail: Callable[[], str]) -> None:
        """Count one case; on failure, record the text that detail() builds.

        detail is called before tally returns, so it may read loop variables.
        """
        self.checked += 1
        if not condition:
            self.failures.append(detail())

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.checked} checked)"
        shown = "; ".join(self.failures[:3])
        return f"FAIL {self.name} ({len(self.failures)} of {self.checked}): {shown}"


@dataclass
class SuiteReport:
    suite: str
    results: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        out.append(f"{'PASS' if self.passed else 'FAIL'} suite {self.suite}")
        return out


def _within_reference(suite: str, limit: int, reference: int) -> None:
    if limit > reference:
        raise ValueError(
            f"verify {suite} compares against reference data that ends at {reference}; "
            f"bound {limit} is past it, give at most {reference}"
        )


def verify_tables(limit: int = 96) -> SuiteReport:
    """First-96 reference values against both evaluation strategies."""
    _within_reference("tables", limit, len(golden.A_FIRST_96))
    a_arr = sieve.a_array(limit)
    b_arr = sieve.b_array(limit)
    sieve_check = CheckResult("sieved tables match reference values")
    recursive_check = CheckResult("per-n recursion matches reference values")
    for n in range(1, limit + 1):
        want = (golden.A_FIRST_96[n - 1], golden.B_FIRST_96[n - 1])
        sieved = (int(a_arr[n]), int(b_arr[n]))
        recursive = (a(n), b(n))
        sieve_check.tally(sieved == want, lambda: f"n={n}: sieve gave {sieved}, want {want}")
        recursive_check.tally(
            recursive == want, lambda: f"n={n}: recursion gave {recursive}, want {want}"
        )
    return SuiteReport("tables", [sieve_check, recursive_check])


def verify_lemmas(limit: int = 5000) -> SuiteReport:
    """Size-classified counting identities and the ordered-factorization link.

    One pass over m = 1..limit holds one size table at a time.  Its size keys
    are exactly the divisors k of m, so the scaled identity is checked at every
    (k, n = m // k) with k * n <= limit, against the size-1 count of n <= m,
    which is the one integer kept per m.
    """
    sieve.check_budget(limit, 1)
    if limit > LEMMAS_BUDGET:
        raise budget_error("verify lemmas to", limit, LEMMAS_BUDGET, "verify.LEMMAS_BUDGET")
    halves = CheckResult("size-1 count is half the total count")
    scaled = CheckResult("size-k count of k*n equals size-1 count of n and the sieved g(n)")
    doubling = CheckResult("count equals twice the enumerated ordered factorizations")
    g_values = sieve.g_array(limit).tolist()
    enum_limit = min(limit, 2000)
    size_one = [0]
    for m in range(1, limit + 1):
        table = a_sized(m)
        size_one.append(table.count(1))
        if m > 1:
            # a_sized has checked the table's total against a(m) from the
            # per-prime sums, so m is not factored again for it.
            total = table.total
            halves.tally(
                2 * size_one[m] == total,
                lambda: f"n={m}: size-1 count {size_one[m]} vs total {total}",
            )
            if m <= enum_limit:
                tuples = g_enumerated(m)
                doubling.tally(total == 2 * tuples, lambda: f"n={m}: a={total} vs 2*{tuples}")
        for k, got in table.entries.items():
            n = m // k
            want = size_one[n]
            scaled.tally(
                got == want == g_values[n],
                lambda: f"k={k} n={n}: {got} != {want} (sieved g(n) = {g_values[n]})",
            )
    doubling.tally(g_enumerated(12) == 8, lambda: "enumeration of 12 must find 8 tuples")
    return SuiteReport("lemmas", [halves, scaled, doubling])


def _grid_cases():
    """(n, primes, exponents) for every ordered prime-power shape of the grid.

    Shapes take 1 to 3 distinct GRID_PRIMES, in every order, each with an
    exponent from 1 to GRID_MAX_EXPONENT, and n <= GRID_MAX_N.  GRID_PRIMES
    are proven prime first.  Each prime has one list of its (e, p^e), and n
    is the product of the chosen powers, so a shape past the bound is never
    built.  The last prime's exponent runs fastest.
    """
    composite = [p for p in GRID_PRIMES if not is_prime(p)]
    if composite:
        raise ValueError(f"GRID_PRIMES holds non-primes: {composite}")
    powers = {p: [(e, p**e) for e in range(1, GRID_MAX_EXPONENT + 1)] for p in GRID_PRIMES}
    for count in (1, 2, 3):
        for primes in permutations(GRID_PRIMES, count):
            for chosen in product(*map(powers.__getitem__, primes)):
                exponents, factors = zip(*chosen)
                n = prod(factors)
                if n <= GRID_MAX_N:
                    yield n, primes, exponents


def verify_closedforms(limit: int = 10_000) -> SuiteReport:
    """Recursions and closed forms against the definitional evaluators.

    Shapes that differ only in prime order share n, and the definitional
    route is pure, so (a(n), b(n)) is evaluated once per n.  The recursion is
    read from kappa tables to GRID_MAX_EXPONENT, each keyed here by exponent
    tuple: one of sums per ordered prime tuple, held while the grid lists that
    tuple's shapes, and one of counts on the first three grid primes, read
    with the exponents padded by zeros, since the count does not depend on
    the primes.  a_closed is evaluated once per ordered exponent tuple (the
    grid has 155) and kept in a dict local to this call.  Every ordered shape
    is still tallied against the definition of its own n.
    """
    sieve.check_budget(limit, 1)
    if limit > CLOSEDFORMS_BUDGET:
        raise budget_error(
            "verify closedforms to", limit, CLOSEDFORMS_BUDGET, "verify.CLOSEDFORMS_BUDGET"
        )
    count_routes = CheckResult("count: recursion and closed form match the definition")
    sum_routes = CheckResult("sum: recursion matches the definition")
    ratio_closed = CheckResult("ratio closed form matches the definition (1-2 primes)")
    definition: dict[int, tuple[int, int]] = {}
    closed_counts: dict[tuple[int, ...], int] = {}

    def table(primes: tuple[int, ...], x: int) -> dict[tuple[int, ...], int]:
        values = closedforms.kappa_table(tuple((p, GRID_MAX_EXPONENT) for p in primes), x)
        return dict(zip(product(range(GRID_MAX_EXPONENT + 1), repeat=len(primes)), values))

    count_primes = GRID_PRIMES[:3]
    count_table = table(count_primes, 0)
    sum_primes, sum_table = (), {}
    for n, primes, exponents in _grid_cases():
        if n not in definition:
            definition[n] = (a(n), b(n))
        want_a, want_b = definition[n]
        pairs = tuple(zip(primes, exponents))
        if exponents not in closed_counts:
            closed_counts[exponents] = closedforms.a_closed(closedforms.PrimePowerShape(pairs))
        got_rec = count_table[exponents + (0,) * (len(count_primes) - len(exponents))]
        got_closed = closed_counts[exponents]
        count_routes.tally(
            got_rec == want_a and got_closed == want_a,
            lambda: f"n={n} {pairs}: recursion {got_rec}, closed {got_closed}, want {want_a}",
        )
        if primes != sum_primes:
            sum_primes = primes
            sum_table = table(primes, 1)
        got_b = sum_table[exponents]
        sum_routes.tally(got_b == want_b, lambda: f"n={n} {pairs}: {got_b} != {want_b}")
        if len(primes) <= 2:
            want_ratio = Fraction(want_b, n)
            got_ratio = closedforms.B_closed(closedforms.PrimePowerShape(pairs))
            ratio_closed.tally(
                got_ratio == want_ratio,
                lambda: f"n={n} {pairs}: {got_ratio} != {want_ratio}",
            )

    distinct = CheckResult("distinct-prime counts match reference and definition")
    for k in range(0, 8):
        value = closedforms.a_distinct_primes(k)
        if k < len(golden.DISTINCT_PRIME_COUNTS):
            distinct.tally(
                value == golden.DISTINCT_PRIME_COUNTS[k],
                lambda: f"k={k}: {value} != {golden.DISTINCT_PRIME_COUNTS[k]}",
            )
        primorial = prod(_SMALL_PRIMES[:k])
        distinct.tally(value == a(primorial), lambda: f"k={k}: {value} != a({primorial})")

    # n·B_from_A(n) is b_from_counts(n), so the ratio is checked as exact
    # integers against the sieved sums.  item() reads one as a Python int
    # without a list of them all, which would be about 90 MB at the budget.
    from_counts = CheckResult("ratio from counts matches the sum for all n up to the limit")
    sums = sieve.b_array(limit)
    for n in range(1, limit + 1):
        got = closedforms.b_from_counts(n)
        want = sums.item(n)
        from_counts.tally(
            got == want, lambda: f"n={n}: {Fraction(got, n)} != {Fraction(want, n)}"
        )
    return SuiteReport(
        "closedforms", [count_routes, sum_routes, ratio_closed, distinct, from_counts]
    )


def verify_records(limit: int = golden.RECORDS_BOUND) -> SuiteReport:
    """Record search against the frozen reference lists and the sieve oracle."""
    _within_reference("records", limit, golden.RECORDS_BOUND)
    table = records.search_records(limit)
    rhc = CheckResult("count records match reference (n, cofactor, tau)")
    want_rhc = [(n, c, t) for n, c, t in golden.RHC_RECORDS if n <= limit]
    got_rhc = [
        (e.n, e.tau_cofactor, e.tau) for e in table.entries if records.RecordKind.RHC in e.kinds
    ]
    rhc.tally(got_rhc == want_rhc, lambda: f"got {len(got_rhc)} entries, want {len(want_rhc)}")

    rsa = CheckResult("ratio records match reference list")
    want_rsa = [n for n in golden.RSA_RECORDS if n <= limit]
    got_rsa = table.numbers(records.RecordKind.RSA)
    rsa.tally(got_rsa == want_rsa, lambda: f"got {got_rsa[:8]}..., want {want_rsa[:8]}...")

    hc = CheckResult("divisor-count records match reference (n, d)")
    want_hc = [(n, dv) for n, dv in golden.HC_RECORDS if n <= limit]
    got_hc = [(e.n, e.d) for e in table.entries if records.RecordKind.HC in e.kinds]
    hc.tally(got_hc == want_hc, lambda: f"got {len(got_hc)} entries, want {len(want_hc)}")

    sa = CheckResult("divisor-sum ratio records match reference list")
    want_sa = [n for n in golden.SA_RECORDS if n <= limit]
    got_sa = table.numbers(records.RecordKind.SA)
    sa.tally(got_sa == want_sa, lambda: f"got {len(got_sa)} entries, want {len(want_sa)}")

    exception = CheckResult("every ratio record is a count record, save the known one")
    for n in got_rsa:
        kinds = records.classify(n, table)
        if n == golden.RSA_NOT_RHC:
            exception.tally(
                records.RecordKind.RHC not in kinds,
                lambda: f"{n} unexpectedly sets a count record",
            )
        else:
            exception.tally(
                records.RecordKind.RHC in kinds,
                lambda: f"{n} sets a ratio record but no count record",
            )

    shape = CheckResult("count records have non-increasing exponents")
    for e in table.entries:
        if records.RecordKind.RHC in e.kinds:
            exps = [x for _, x in e.factorization.pairs]
            shape.tally(exps == sorted(exps, reverse=True), lambda: f"n={e.n}: exponents {exps}")

    oracle = CheckResult("record search matches the sieve oracle")
    sieved = records.sieve_records(limit)
    oracle.tally(
        table == sieved,
        lambda: f"tables differ: {len(table.entries)} entries searched, "
        f"{len(sieved.entries)} sieved",
    )
    return SuiteReport("records", [rhc, rsa, hc, sa, exception, shape, oracle])


def verify_trees(limit: int = 500) -> SuiteReport:
    """Layout counting identities and SVG structure."""
    identities = CheckResult("square count, side sum, and main arm match the four functions")
    for n in range(1, limit + 1):
        tree = layout(n)
        fac = factorize(n)
        arm = tree.rows[tree.rows[:, 3] <= 1, 0]
        ok = (
            tree.square_count == a(n)
            and tree.side_sum == b(n)
            and len(arm) == d_of(fac)
            and int(arm.sum()) == sigma_of(fac)
        )
        identities.tally(ok, lambda: f"n={n}: ({tree.square_count}, {tree.side_sum}) counts")

    svg_counts = CheckResult("SVG holds exactly one rect per recursive divisor")
    for n in (10, 24, 96):
        doc = ElementTree.fromstring(to_svg(layout(n)))
        rects = [el for el in doc.iter() if el.tag.endswith("rect")]
        svg_counts.tally(len(rects) == a(n), lambda: f"n={n}: {len(rects)} rects, want {a(n)}")

    stable = CheckResult("rendering is byte-identical across runs")
    for n in (1, 36, 96):
        style = SvgStyle()
        stable.tally(
            to_svg(layout(n), style) == to_svg(layout(n), style),
            lambda: f"n={n}: outputs differ",
        )
    return SuiteReport("trees", [identities, svg_counts, stable])


SUITES = {
    "tables": verify_tables,
    "lemmas": verify_lemmas,
    "closedforms": verify_closedforms,
    "records": verify_records,
    "trees": verify_trees,
}


def run_suite(name: str, limit: int | None = None) -> SuiteReport:
    """Run one suite, at its default bound unless a limit is given."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]() if limit is None else SUITES[name](limit)
