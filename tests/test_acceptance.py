"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3 is split in two: the record search, cofactors, and the
classical column reproduce exactly; the starred ratio-record column is
checked against the strict record rule.  That rule returns the printed
stars plus seven values the listing leaves unstarred, and the test proves
each of the seven from routes that do not use the sieve (see README,
"Erratum: seven unstarred ratio records").
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from xml.etree import ElementTree

from recdiv import (
    B_closed,
    B_from_A,
    RecordKind,
    a,
    a_closed,
    a_distinct_primes,
    a_recursion,
    a_sized,
    b,
    b_recursion,
    d,
    factorize,
    g_enumerated,
    layout,
    sigma,
    spf_sieve,
    to_svg,
)
from recdiv.golden import (
    B_FIRST_96,
    HC_RECORDS,
    RHC_RECORDS,
    RSA_NOT_RHC,
    RSA_RECORDS,
    SA_RECORDS,
)
from recdiv.sieve import a_array, b_array
from recdiv.verify import shape_grid


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_count_table_first_96():
    with criterion(1, "first 96 counts reproduce exactly in under a second"):
        start = time.perf_counter()
        arr = a_array(96)
        computed = arr[1:].tolist()
        elapsed = time.perf_counter() - start
        from recdiv.golden import A_FIRST_96

        assert computed == list(A_FIRST_96)
        assert elapsed < 1.0


def test_criterion_02_sum_table_first_96():
    with criterion(2, "first 96 sums reproduce exactly in under a second"):
        start = time.perf_counter()
        arr = b_array(96)
        computed = arr[1:].tolist()
        elapsed = time.perf_counter() - start

        assert computed == list(B_FIRST_96)
        assert elapsed < 1.0


def test_criterion_03_record_table_reproduction(record_search_1m):
    with criterion(3, "record search to one million reproduces the reference table"):
        table, elapsed = record_search_1m
        got_rhc = [
            (e.n, e.tau_cofactor, e.tau)
            for e in table.entries
            if RecordKind.RHC in e.kinds
        ]
        assert got_rhc == list(RHC_RECORDS)
        by_n = {entry[0]: entry for entry in got_rhc}
        assert by_n[360] == (360, 151, 3)
        assert by_n[967680] == (967680, 163934, 10)

        got_hc = [(e.n, e.d) for e in table.entries if RecordKind.HC in e.kinds]
        assert got_hc == list(HC_RECORDS)
        assert dict(got_hc)[720720] == 240

        got_sa = table.numbers(RecordKind.SA)
        assert got_sa == list(SA_RECORDS)

        exceptional = table.entry(RSA_NOT_RHC)
        assert exceptional is not None
        assert RecordKind.RSA in exceptional.kinds
        assert RecordKind.RHC not in exceptional.kinds
        rsa_only = [
            e.n
            for e in table.entries
            if RecordKind.RSA in e.kinds and RecordKind.RHC not in e.kinds
        ]
        assert rsa_only == [RSA_NOT_RHC]

        assert elapsed < 60.0


# The ratio-record column as printed in the reference table, verbatim.
RSA_AS_PRINTED = (
    1, 2, 4, 6, 12, 24, 36, 48, 120, 240, 360, 720, 1152, 1440, 2160, 2880,
    4320, 5760, 8640, 11520, 17280, 25920, 30240, 34560, 51840, 60480, 69120,
    103680, 120960, 172800, 181440, 207360, 241920, 345600, 362880, 414720,
    483840, 725760, 967680,
)

# Strict b(n)/n record-setters below one million that the printed column
# leaves unstarred.  The reference sums alone force the first: b(8)/8 = 5/2
# beats the running maximum b(6)/6 = 7/3, so no record rule on b(n)/n can
# omit 8.  The test below proves all seven without the sieve.
RSA_UNSTARRED = (8, 72, 96, 144, 288, 480, 576)


def _is_strict_ratio_record(n: int, sums) -> bool:
    """b(n)/n beats b(m)/m for every m < n, by integer cross-multiplication."""
    bn = sums(n)
    return all(bn * m > sums(m) * n for m in range(1, n))


def test_criterion_03_rsa_stars_as_printed(record_search_1m, definitional):
    """The starred ratio-record column, checked exactly against the strict rule.

    The sieve's ratio records to one million must be the printed stars plus
    the seven unstarred records, nothing more or less, and must equal the
    frozen RSA_RECORDS.  Each of the seven is proved a strict record here by
    routes independent of the sieve: the 96-term reference sums (for n <= 96),
    the per-n b(m) and B_from_A built from recursive-divisor counts (both
    walk core.divisor_lattice), and the definitional recursion for b from
    the `definitional` fixture, which shares nothing with recdiv.core.
    """
    with criterion(3, "starred ratio-record listing plus the seven unstarred records"):
        table, _ = record_search_1m
        got_rsa = table.numbers(RecordKind.RSA)
        assert set(RSA_AS_PRINTED) <= set(got_rsa)  # nothing starred is missed
        expected = sorted(set(RSA_AS_PRINTED) | set(RSA_UNSTARRED))
        assert len(expected) == len(RSA_AS_PRINTED) + len(RSA_UNSTARRED)
        assert got_rsa == expected
        assert list(RSA_RECORDS) == expected

        ratios = {m: B_from_A(m) for m in range(1, max(RSA_UNSTARRED) + 1)}
        for n in RSA_UNSTARRED:
            if n <= len(B_FIRST_96):
                assert _is_strict_ratio_record(n, lambda m: B_FIRST_96[m - 1]), f"n={n}"
            assert _is_strict_ratio_record(n, b), f"n={n}"
            assert _is_strict_ratio_record(n, definitional.b), f"n={n}"
            assert all(ratios[n] > ratios[m] for m in range(1, n)), f"n={n}"


def test_criterion_04_count_doubles_enumerated_factorizations():
    with criterion(4, "count equals twice the enumerated ordered factorizations to 2000"):
        assert g_enumerated(12) == 8
        for n in range(2, 2001):
            assert a(n) == 2 * g_enumerated(n), f"n={n}"


def test_criterion_05_sized_count_identities():
    with criterion(5, "size-classified count identities hold to 5000"):
        for n in range(2, 5001):
            assert 2 * a_sized(n).count(1) == a(n), f"n={n}"
        for k in range(1, 5001):
            for n in range(1, 5000 // k + 1):
                assert a_sized(k * n).count(k) == a_sized(n).count(1), f"k={k} n={n}"


def test_criterion_06_ratio_from_counts_identity():
    with criterion(6, "ratio-from-counts identity holds exactly to 10^4"):
        arr = b_array(10_000)
        for n in range(1, 10_001):
            assert B_from_A(n) == Fraction(int(arr[n]), n), f"n={n}"


def test_criterion_07_closed_form_triple_agreement():
    with criterion(7, "definitional, recursion, and closed-form evaluators agree"):
        shapes = 0
        for shape in shape_grid():
            n = shape.n
            want = a(n)
            assert a_recursion(shape) == want, f"shape={shape.pairs}"
            assert a_closed(shape) == want, f"shape={shape.pairs}"
            assert b_recursion(shape) == b(n), f"shape={shape.pairs}"
            if len(shape.pairs) <= 2:
                assert B_closed(shape) == Fraction(b(n), n), f"shape={shape.pairs}"
            shapes += 1
        assert shapes > 10_000  # grid covers all orderings under the cap


def test_criterion_08_distinct_prime_sequence():
    with criterion(8, "distinct-prime counts are 2, 6, 26, 150, 1082, 9366"):
        assert [a_distinct_primes(k) for k in range(1, 7)] == [2, 6, 26, 150, 1082, 9366]


def test_criterion_09_divisibility_by_max_exponent_power():
    with criterion(9, "2^tau divides every count to 10^5"):
        arr = a_array(100_000)
        spf = spf_sieve(100_000)
        for n in range(2, 100_001):
            tau = 0
            m = n
            while m > 1:
                p = spf[m]
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                if e > tau:
                    tau = e
            assert int(arr[n]) % (1 << tau) == 0, f"n={n}"


def test_criterion_10_tree_identities():
    with criterion(10, "tree counts and sums match the four functions to 500"):
        for n in range(1, 501):
            tree = layout(n)
            assert tree.square_count == a(n), f"n={n}"
            assert tree.side_sum == b(n), f"n={n}"
            arm = tree.main_arm()
            assert len(arm) == d(n), f"n={n}"
            assert sum(s.side for s in arm) == sigma(n), f"n={n}"
        for n in (10, 24, 96):
            doc = ElementTree.fromstring(to_svg(layout(n)))
            rects = sum(1 for el in doc.iter() if el.tag.endswith("rect"))
            assert rects == a(n), f"n={n}"


def test_criterion_11_count_records_have_monotone_exponents(record_search_1m):
    with criterion(11, "count records have non-increasing exponents"):
        table, _ = record_search_1m
        checked = 0
        for entry in table.entries:
            if RecordKind.RHC in entry.kinds:
                exps = [e for _, e in factorize(entry.n).pairs]
                assert exps == sorted(exps, reverse=True), f"n={entry.n}"
                checked += 1
        assert checked == len(RHC_RECORDS)
