import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv import (
    ExponentSignature,
    Factorization,
    d,
    divisors,
    factorize,
    is_prime,
    proper_divisors,
    sigma,
)
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


def test_signature_sorted_descending():
    assert factorize(12).signature == ExponentSignature((2, 1))
    assert factorize(5040).signature.exponents == (4, 2, 1, 1)
    assert factorize(5040).signature.omega == 8
    with pytest.raises(ValueError):
        ExponentSignature((1, 2))


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
