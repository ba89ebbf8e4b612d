"""Machine verification suites behind the `verify` CLI command.

Each suite cross-checks independent computation routes (batch sieve versus
per-n evaluators, recursions versus closed forms, layouts versus counting
identities) and reports one line per identity with the number of cases
checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from xml.etree import ElementTree

from . import closedforms, golden, records, sieve
from .arith import d_of, factorize, sigma_of
from .core import a, a_sized, b, g_enumerated
from .tree import SvgStyle, layout, to_svg

GRID_PRIMES = (2, 3, 5, 7, 11, 13)
GRID_MAX_EXPONENT = 5
GRID_MAX_N = 10**9


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def tally(self, condition: bool, detail: str) -> None:
        self.checked += 1
        if not condition:
            self.failures.append(detail)

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


def verify_tables(limit: int = 96, max_memory: int | None = None) -> SuiteReport:
    """First-96 reference values against both evaluation strategies."""
    limit = min(limit, 96)
    a_arr = sieve.a_array(limit, max_memory=max_memory)
    b_arr = sieve.b_array(limit, max_memory=max_memory)
    sieve_check = CheckResult("sieved tables match reference values")
    recursive_check = CheckResult("per-n recursion matches reference values")
    for n in range(1, limit + 1):
        want_a = golden.A_FIRST_96[n - 1]
        want_b = golden.B_FIRST_96[n - 1]
        sieve_check.tally(
            int(a_arr[n]) == want_a and int(b_arr[n]) == want_b,
            f"n={n}: sieve gave ({int(a_arr[n])}, {int(b_arr[n])}), want ({want_a}, {want_b})",
        )
        recursive_check.tally(
            a(n) == want_a and b(n) == want_b,
            f"n={n}: recursion gave ({a(n)}, {b(n)}), want ({want_a}, {want_b})",
        )
    return SuiteReport("tables", [sieve_check, recursive_check])


def verify_lemmas(limit: int = 5000, max_memory: int | None = None) -> SuiteReport:
    """Size-classified counting identities and the ordered-factorization link."""
    halves = CheckResult("size-1 count is half the total count")
    scaled = CheckResult("size-k count of k*n equals size-1 count of n and the sieved g(n)")
    doubling = CheckResult("count equals twice the enumerated ordered factorizations")
    g_values = sieve.g_array(limit, max_memory=max_memory).tolist()
    tables = {m: a_sized(m) for m in range(1, limit + 1)}
    for n in range(2, limit + 1):
        table = tables[n]
        total = a(n)
        halves.tally(
            2 * table.count(1) == total,
            f"n={n}: size-1 count {table.count(1)} vs total {total}",
        )
    for k in range(1, limit + 1):
        for n in range(1, limit // k + 1):
            got = tables[k * n].count(k)
            want = tables[n].count(1)
            scaled.tally(
                got == want == g_values[n],
                f"k={k} n={n}: {got} != {want} (sieved g(n) = {g_values[n]})",
            )
    enum_limit = min(limit, 2000)
    for n in range(2, enum_limit + 1):
        tuples = g_enumerated(n)
        doubling.tally(a(n) == 2 * tuples, f"n={n}: a={a(n)} vs 2*{tuples}")
    doubling.tally(g_enumerated(12) == 8, "enumeration of 12 must find 8 tuples")
    return SuiteReport("lemmas", [halves, scaled, doubling])


def shape_grid():
    """Ordered prime-power shapes over the verification grid."""
    for count in (1, 2, 3):
        for primes in permutations(GRID_PRIMES, count):
            for exps in _exponent_combos(count):
                shape = closedforms.PrimePowerShape(tuple(zip(primes, exps)))
                if shape.n <= GRID_MAX_N:
                    yield shape


def _exponent_combos(count: int):
    if count == 1:
        return [(c,) for c in range(1, GRID_MAX_EXPONENT + 1)]
    if count == 2:
        return [
            (c, d)
            for c in range(1, GRID_MAX_EXPONENT + 1)
            for d in range(1, GRID_MAX_EXPONENT + 1)
        ]
    return [
        (c, d, e)
        for c in range(1, GRID_MAX_EXPONENT + 1)
        for d in range(1, GRID_MAX_EXPONENT + 1)
        for e in range(1, GRID_MAX_EXPONENT + 1)
    ]


def verify_closedforms(limit: int = 10_000, max_memory: int | None = None) -> SuiteReport:
    """Recursions and closed forms against the definitional evaluators."""
    count_routes = CheckResult("count: recursion and closed form match the definition")
    sum_routes = CheckResult("sum: recursion matches the definition")
    ratio_closed = CheckResult("ratio closed form matches the definition (1-2 primes)")
    for shape in shape_grid():
        n = shape.n
        want_a = a(n)
        got_rec = closedforms.a_recursion(shape)
        got_closed = closedforms.a_closed(shape)
        count_routes.tally(
            got_rec == want_a and got_closed == want_a,
            f"n={n} {shape.pairs}: recursion {got_rec}, closed {got_closed}, want {want_a}",
        )
        want_b = b(n)
        got_b = closedforms.b_recursion(shape)
        sum_routes.tally(got_b == want_b, f"n={n} {shape.pairs}: {got_b} != {want_b}")
        if len(shape.pairs) <= 2:
            want_ratio = Fraction(want_b, n)
            got_ratio = closedforms.B_closed(shape)
            ratio_closed.tally(
                got_ratio == want_ratio,
                f"n={n} {shape.pairs}: {got_ratio} != {want_ratio}",
            )

    distinct = CheckResult("distinct-prime counts match reference and definition")
    primorial = 1
    for k in range(0, 8):
        value = closedforms.a_distinct_primes(k)
        if k < len(golden.DISTINCT_PRIME_COUNTS):
            distinct.tally(
                value == golden.DISTINCT_PRIME_COUNTS[k],
                f"k={k}: {value} != {golden.DISTINCT_PRIME_COUNTS[k]}",
            )
        if k > 0:
            primorial *= GRID_PRIMES[k - 1] if k <= 6 else 17
        distinct.tally(value == a(primorial), f"k={k}: {value} != a({primorial})")

    from_counts = CheckResult("ratio from counts matches the sum for all n up to the limit")
    b_arr = sieve.b_array(limit, max_memory=max_memory)
    for n in range(1, limit + 1):
        got = closedforms.B_from_A(n)
        want = Fraction(int(b_arr[n]), n)
        from_counts.tally(got == want, f"n={n}: {got} != {want}")
    return SuiteReport(
        "closedforms", [count_routes, sum_routes, ratio_closed, distinct, from_counts]
    )


def verify_records(limit: int = 10**6, max_memory: int | None = None) -> SuiteReport:
    """Record search against the frozen reference lists."""
    table = records.sieve_records(limit, max_memory=max_memory)
    rhc = CheckResult("count records match reference (n, cofactor, tau)")
    want_rhc = [(n, c, t) for n, c, t in golden.RHC_RECORDS if n <= limit]
    got_rhc = [
        (e.n, e.tau_cofactor, e.tau) for e in table.entries if records.RecordKind.RHC in e.kinds
    ]
    rhc.tally(got_rhc == want_rhc, f"got {len(got_rhc)} entries, want {len(want_rhc)}")

    rsa = CheckResult("ratio records match reference list")
    want_rsa = [n for n in golden.RSA_RECORDS if n <= limit]
    got_rsa = table.numbers(records.RecordKind.RSA)
    rsa.tally(got_rsa == want_rsa, f"got {got_rsa[:8]}..., want {want_rsa[:8]}...")

    hc = CheckResult("divisor-count records match reference (n, d)")
    want_hc = [(n, dv) for n, dv in golden.HC_RECORDS if n <= limit]
    got_hc = [(e.n, e.d) for e in table.entries if records.RecordKind.HC in e.kinds]
    hc.tally(got_hc == want_hc, f"got {len(got_hc)} entries, want {len(want_hc)}")

    sa = CheckResult("divisor-sum ratio records match reference list")
    want_sa = [n for n in golden.SA_RECORDS if n <= limit]
    got_sa = table.numbers(records.RecordKind.SA)
    sa.tally(got_sa == want_sa, f"got {len(got_sa)} entries, want {len(want_sa)}")

    exception = CheckResult("every ratio record is a count record, save the known one")
    for n in got_rsa:
        kinds = records.classify(n, table)
        if n == golden.RSA_NOT_RHC:
            exception.tally(
                records.RecordKind.RHC not in kinds,
                f"{n} unexpectedly sets a count record",
            )
        else:
            exception.tally(
                records.RecordKind.RHC in kinds, f"{n} sets a ratio record but no count record"
            )

    shape = CheckResult("count records have non-increasing exponents")
    for e in table.entries:
        if records.RecordKind.RHC in e.kinds:
            exps = [x for _, x in e.factorization.pairs]
            shape.tally(exps == sorted(exps, reverse=True), f"n={e.n}: exponents {exps}")
    return SuiteReport("records", [rhc, rsa, hc, sa, exception, shape])


def verify_trees(limit: int = 500, max_memory: int | None = None) -> SuiteReport:
    """Layout counting identities and SVG structure."""
    identities = CheckResult("square count, side sum, and main arm match the four functions")
    for n in range(1, limit + 1):
        tree = layout(n)
        fac = factorize(n)
        arm = tree.main_arm()
        ok = (
            tree.square_count == a(n)
            and tree.side_sum == b(n)
            and len(arm) == d_of(fac)
            and sum(s.side for s in arm) == sigma_of(fac)
        )
        identities.tally(ok, f"n={n}: ({tree.square_count}, {tree.side_sum}) counts")

    svg_counts = CheckResult("SVG holds exactly one rect per recursive divisor")
    for n in (10, 24, 96):
        doc = ElementTree.fromstring(to_svg(layout(n)))
        rects = [el for el in doc.iter() if el.tag.endswith("rect")]
        svg_counts.tally(len(rects) == a(n), f"n={n}: {len(rects)} rects, want {a(n)}")

    stable = CheckResult("rendering is byte-identical across runs")
    for n in (1, 36, 96):
        style = SvgStyle()
        stable.tally(
            to_svg(layout(n), style) == to_svg(layout(n), style), f"n={n}: outputs differ"
        )
    return SuiteReport("trees", [identities, svg_counts, stable])


SUITES = {
    "tables": verify_tables,
    "lemmas": verify_lemmas,
    "closedforms": verify_closedforms,
    "records": verify_records,
    "trees": verify_trees,
}

DEFAULT_LIMITS = {
    "tables": 96,
    "lemmas": 5000,
    "closedforms": 10_000,
    "records": 10**6,
    "trees": 500,
}


def run_suite(name: str, limit: int | None = None, max_memory: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    bound = DEFAULT_LIMITS[name] if limit is None else limit
    return SUITES[name](bound, max_memory=max_memory)
