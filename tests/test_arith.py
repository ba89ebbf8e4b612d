import time
from collections import Counter
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv import (
    Factorization,
    d,
    divisors,
    factorize,
    is_prime,
    proper_divisors,
    sigma,
)
from recdiv import arith
from recdiv.arith import divisors_of


def test_factorize_unit():
    assert factorize(1).pairs == ()
    assert factorize(1).n == 1
    assert str(factorize(1)) == "1"


def test_factorize_examples():
    assert factorize(12).pairs == ((2, 2), (3, 1))
    assert factorize(5040).pairs == ((2, 4), (3, 2), (5, 1), (7, 1))
    assert str(factorize(5040)) == "2^4 * 3^2 * 5 * 7"


@pytest.mark.parametrize("bad", [0, -1, -12])
def test_factorize_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_factorization_validates_invariants():
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # primes out of order
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # zero exponent
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # composite entry


def test_factorize_skips_validation_the_constructor_keeps(monkeypatch):
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    assert factorize(5040 * 997 * 1009).pairs == (
        (2, 4), (3, 2), (5, 1), (7, 1), (997, 1), (1009, 1)
    )
    assert calls == []
    with pytest.raises(ValueError, match="^4 is not prime$"):
        Factorization(((4, 1),))
    assert calls == [4]


@given(st.integers(min_value=1, max_value=10**18))
@settings(max_examples=200)
def test_factorize_output_passes_validation(n):
    fac = factorize(n)
    assert Factorization(fac.pairs) == fac


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(10) == [1, 2, 5, 10]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert proper_divisors(12) == [1, 2, 3, 4, 6]
    assert proper_divisors(1) == []


def test_d_examples():
    assert d(1) == 1
    assert d(5040) == 60
    assert d(336) == 20


def test_sigma_examples():
    assert sigma(1) == 1
    assert sigma(10) == 18
    # Oracle: enumerate and sum the divisors of 96 directly.
    assert sum(divisors(96)) == 252
    assert sigma(96) == 252


def test_formulas_match_enumeration_below_1e4():
    for n in range(1, 10_001):
        divs = divisors(n)
        assert divs[-1] == n
        assert d(n) == len(divs)
        assert sigma(n) == sum(divs)


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=200)
def test_round_trip_trial_division(n):
    fac = factorize(n)
    assert fac.n == n
    assert all(is_prime(p) for p, _ in fac.pairs)


@given(st.integers(min_value=1, max_value=50_000))
@settings(max_examples=200)
def test_divisors_closed_under_complement(n):
    divs = divisors(n)
    assert sorted(n // m for m in divs) == divs


def test_divisors_of_matches_scan():
    for n in (1, 2, 36, 97, 720):
        assert divisors_of(factorize(n)) == [m for m in range(1, n + 1) if n % m == 0]


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200)
def test_is_prime_matches_trial_division(n):
    trial = all(n % p for p in range(2, int(n**0.5) + 1))
    assert is_prime(n) == trial


def test_factorize_splits_64_bit_semiprime_quickly():
    n = 4294967279 * 4294967291  # two primes just below 2^32
    start = time.perf_counter()
    fac = factorize(n)
    assert time.perf_counter() - start < 1.0
    assert fac.pairs == ((4294967279, 1), (4294967291, 1))


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=arith.TRIAL_BOUND, max_value=2 * arith._TABLE_BOUND),
            st.integers(min_value=arith.TRIAL_BOUND, max_value=10**7),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=arith.TRIAL_BOUND),
)
@settings(max_examples=100)
def test_rho_splits_cofactors_past_trial_division(seeds, small):
    # Cofactors built from primes above TRIAL_BOUND, repeats included, on both
    # sides of _TABLE_BOUND: a composite part below 2^53 loses its primes below
    # _TABLE_BOUND to the table pass, and rho splits what is left.
    primes = [_next_prime(s) for s in seeds]
    n = small
    for p in primes:
        n *= p
    expected = Counter(dict(_oracle_pairs(small)))
    expected.update(primes)
    assert factorize(n).pairs == tuple(sorted(expected.items()))


def _next_prime(n):
    while not all(n % p for p in range(2, int(n**0.5) + 1)):
        n += 1
    return n


def _strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_primality_bounds_are_strong_pseudoprimes():
    """Each bound passes the bases it covers and is composite, so no larger bound holds."""
    witnesses = arith._MR_WITNESSES
    for k, bound in enumerate(arith._MR_PROVEN_BELOW, start=1):
        assert all(_strong_probable_prime(bound, w) for w in witnesses[:k]), k
    # The last bound passes all thirteen bases: is_prime is proven only below it.
    last = arith._MR_PROVEN_BELOW[-1]
    assert last == 1287836182261 * 2575672364521
    assert is_prime(last)
    for bound in arith._MR_PROVEN_BELOW[:-1]:
        assert not is_prime(bound)
        assert len(factorize(bound).pairs) > 1


def test_pseudoprime_to_the_first_twelve_bases_is_composite():
    # The smallest strong pseudoprime to the bases 2..37; a thirteenth base exposes it.
    n = 318665857834031151167461
    assert not is_prime(n)
    assert factorize(n).pairs == ((399165290221, 1), (798330580441, 1))


def _oracle_pairs(n):
    """(prime, exponent) pairs of n by trial division with every integer from 2 up."""
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def test_small_prime_table_is_the_primes_below_the_trial_bound():
    primes = tuple(p for p in range(2, arith.TRIAL_BOUND) if _oracle_pairs(p) == ((p, 1),))
    assert len(primes) == 168
    assert arith._SMALL_PRIMES == primes
    product = 1
    for p in primes:
        product *= p
    assert arith._SMALL_PRODUCT == product


def test_factorize_matches_trial_division_below_3e4():
    for n in range(1, 30_001):
        assert factorize(n).pairs == _oracle_pairs(n), n


def test_factorize_matches_trial_division_around_trial_bound_squared():
    # Below TRIAL_BOUND^2 the cofactor left is taken as prime; from it up, rho runs.
    square = arith.TRIAL_BOUND**2
    for n in range(square - 10_000, square + 20_001):
        assert factorize(n).pairs == _oracle_pairs(n), n


@pytest.mark.parametrize(
    "n, pairs",
    [
        (1, ()),
        (997, ((997, 1),)),
        (1009, ((1009, 1),)),
        (997**2, ((997, 2),)),
        (997 * 1009, ((997, 1), (1009, 1))),
        (1009**2, ((1009, 2),)),
        (991 * 997 * 1009, ((991, 1), (997, 1), (1009, 1))),
        (arith._SMALL_PRODUCT, tuple((p, 1) for p in arith._SMALL_PRIMES)),
        (997**20, ((997, 20),)),
        (2**64 - 59, ((2**64 - 59, 1),)),
    ],
    ids=["1", "997", "1009", "997^2", "997*1009", "1009^2", "991*997*1009",
         "small-product", "997^20", "2^64-59"],
)
def test_factorize_edges_of_the_small_prime_gcd(n, pairs):
    assert factorize(n).pairs == pairs


def test_rho_divides_a_found_prime_out_of_every_pending_part():
    # Split one 1009 at a time, 1009^400 (1,202 digits) took about 27 s.
    start = time.perf_counter()
    assert factorize(1009**400).pairs == ((1009, 400),)
    assert time.perf_counter() - start < 2.0
    n = 1009**3 * 1013**2 * 1000003**2
    assert factorize(n).pairs == ((1009, 3), (1013, 2), (1000003, 2))


def test_table_pass_primes_are_the_primes_from_trial_bound_to_table_bound():
    # Every composite below 2^17 has a prime factor below 363, so the primes
    # below TRIAL_BOUND, checked against the oracle above, sieve the rest.
    small = [p for p in range(2, 363) if _oracle_pairs(p) == ((p, 1),)]
    medium = [
        n
        for n in range(arith.TRIAL_BOUND, arith._TABLE_BOUND)
        if all(n % p for p in small if p <= isqrt(n))
    ]
    assert len(medium) == 12_083
    assert arith._MEDIUM_PRIMES.dtype == np.float64
    assert arith._MEDIUM_PRIMES.tolist() == medium
    assert arith._MEDIUM_RECIPROCALS.tolist() == [1.0 / p for p in medium]


def test_table_pass_finds_each_table_prime_at_the_top_of_the_float_range():
    # p * q with q the largest prime below 2^53 / p: the quotient the float
    # test must recover is as large as it gets for each p.
    for p in arith._MEDIUM_PRIMES.astype(int).tolist():
        q = (arith._FLOAT_EXACT_BOUND - 1) // p
        while not is_prime(q):
            q -= 1
        assert arith._table_prime_divisors(p * q) == [p], p


@pytest.mark.parametrize(
    "n, pairs, passes, rho",
    [
        (1009 * 1000003, ((1009, 1), (1000003, 1)), 1, False),
        (131071 * 1000003, ((131071, 1), (1000003, 1)), 1, False),
        (131101 * 1000003, ((131101, 1), (1000003, 1)), 1, True),
        (2**53 - 1, ((6361, 1), (69431, 1), (20394401, 1)), 1, False),
        (131071 * 68720001071, ((131071, 1), (68720001071, 1)), 0, True),
        (1009**5, ((1009, 5),), 1, False),
        # Above 2^53: rho splits off 1009, and the pass takes 131071^2.
        (1009**3 * 131071**2, ((1009, 3), (131071, 2)), 1, True),
        (1009 * 65537 * 131071, ((1009, 1), (65537, 1), (131071, 1)), 1, False),
    ],
    ids=["1009*1000003", "largest-table-prime", "first-prime-past-table", "2^53-1",
         "past-2^53", "1009^5", "1009^3*131071^2", "three-table-primes"],
)
def test_factorize_edges_of_the_table_pass(monkeypatch, n, pairs, passes, rho):
    calls = Counter()

    def counted(name):
        real = getattr(arith, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(arith, name, wrapper)

    counted("_table_prime_divisors")
    counted("_pollard_brent")
    assert factorize(n).pairs == pairs
    # One pass per composite part below 2^53: the repeats of a prime it finds
    # are divided out of the rest, not found by another pass each.
    assert calls["_table_prime_divisors"] == passes
    assert (calls["_pollard_brent"] > 0) == rho
