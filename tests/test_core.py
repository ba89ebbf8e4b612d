import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv import (
    BudgetError,
    a,
    a_sized,
    b,
    g,
    g_enumerated,
    kappa,
    profile,
)
from recdiv import closedforms, core, records
from recdiv.arith import divisors, factorize
from recdiv.golden import A_FIRST_96, B_FIRST_96
from recdiv.sieve import a_array, b_array


def test_kappa_base_cases():
    for x in range(4):
        assert kappa(1, x) == 1


def test_kappa_examples():
    assert kappa(10, 0) == 6
    assert kappa(10, 1) == 20


def test_kappa_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kappa(0, 0)
    with pytest.raises(ValueError):
        kappa(10, -1)


def test_count_examples():
    assert a(1) == 1
    assert a(36) == 52
    assert a(96) == 224


def test_sum_examples():
    assert b(1) == 1
    assert b(12) == 42
    assert b(96) == 768


def test_first_96_against_reference():
    for n in range(1, 97):
        assert a(n) == A_FIRST_96[n - 1]
        assert b(n) == B_FIRST_96[n - 1]


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=150)
def test_kappa_specializations(definitional, n):
    assert a(n) == kappa(n, 0) == definitional.kappa(n, 0)
    assert b(n) == kappa(n, 1) == definitional.kappa(n, 1)


@pytest.mark.parametrize("x, limit", [(0, 3000), (1, 3000), (2, 1000), (3, 1000)])
def test_kappa_matches_definition(x, limit, definitional):
    for n in range(1, limit + 1):
        assert kappa(n, x) == definitional.kappa(n, x), f"n={n}"


def test_count_and_sum_match_sieve_to_1e5():
    """The per-prime form against the divisor-sum sieve, n by n."""
    limit = 10**5
    counts = a_array(limit).tolist()
    sums = b_array(limit).tolist()
    for n in range(1, limit + 1):
        assert (a(n), b(n)) == (counts[n], sums[n]), f"n={n}"


HARD_N = (720720, 963761198400, 2**10 * 3**6 * 5**4 * 7**2 * 11 * 13 * 17)


@pytest.mark.parametrize("n", HARD_N)
def test_kappa_matches_lattice_walk_oracle(n, signature_count):
    """kappa(n, x) = Σ_{d|n} d^x g(n/d), g from the sub-signature enumeration."""

    def g_oracle(m):
        exps = sorted((e for _, e in factorize(m).pairs), reverse=True)
        return 1 if m == 1 else signature_count(tuple(exps)) // 2

    cofactor_counts = [(d, g_oracle(n // d)) for d in divisors(n)]
    for x in range(4):
        assert kappa(n, x) == sum(d**x * count for d, count in cofactor_counts), f"x={x}"
    assert g(n) == g_oracle(n)


def test_sum_of_large_smooth_n_is_fast():
    # 2^8·3^4·5^2·7^2·11·…·37 has 103680 divisors; a divisor walk takes seconds.
    n = 897612484786617600
    start = time.perf_counter()
    value = b(n)
    assert time.perf_counter() - start < 0.5
    assert value == profile(n).b > n


def test_g_matches_definition(definitional):
    for n in range(1, 3001):
        assert g(n) == definitional.g(n), f"n={n}"


def test_sized_matches_definition(definitional):
    for n in range(1, 2001):
        assert a_sized(n).entries == definitional.sized(n), f"n={n}"


def test_evaluators_factor_n_once(monkeypatch):
    seen = []
    real = core.factorize

    def counting(n, *args):
        seen.append(n)
        return real(n, *args)

    for module in (core, closedforms):
        monkeypatch.setattr(module, "factorize", counting)
    n = 720720
    evaluators = (
        profile,
        b,
        g,
        a_sized,
        lambda m: kappa(m, 3),
        closedforms.B_from_A,
        records.tau_decompose,
    )
    for evaluate in evaluators:
        seen.clear()
        evaluate(n)
        assert seen == [n]


def test_ordered_factorizations_of_12(factorization_tuples):
    expected = {
        (12,),
        (6, 2),
        (2, 6),
        (4, 3),
        (3, 4),
        (3, 2, 2),
        (2, 3, 2),
        (2, 2, 3),
    }
    assert set(factorization_tuples(12)) == expected
    assert g_enumerated(12) == 8
    assert g(12) == 8


def test_ordered_factorizations_unit_and_primes(factorization_tuples):
    assert list(factorization_tuples(1)) == [()]
    assert g(1) == 1
    for p in (2, 3, 5, 97):
        assert g(p) == 1
        assert list(factorization_tuples(p)) == [(p,)]


def test_ordered_factorizations_match_divisor_recursion(factorization_tuples):
    """Same tuples in the same order as refactoring every quotient."""

    def refactoring(n):
        if n == 1:
            yield ()
            return
        for first in divisors(n)[1:]:
            for rest in refactoring(n // first):
                yield (first, *rest)

    for n in range(1, 1001):
        assert list(factorization_tuples(n)) == list(refactoring(n))


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(core, "TUPLE_BUDGET", 10)
    with pytest.raises(BudgetError):
        g_enumerated(960)


def test_chain_walk_counts_the_listed_tuples(factorization_tuples):
    """The stack walk counts exactly the tuples the listing oracle yields."""
    for n in range(1, 2001):
        listed = len(list(factorization_tuples(n)))
        assert g_enumerated(n) == listed == g(n), f"n={n}"


def test_enumeration_budget_boundary(monkeypatch):
    # g(960) = 2496: a budget of exactly g(n) admits n, one less refuses it.
    assert g(960) == 2496
    monkeypatch.setattr(core, "TUPLE_BUDGET", 2496)
    assert g_enumerated(960) == 2496
    monkeypatch.setattr(core, "TUPLE_BUDGET", 2495)
    with pytest.raises(BudgetError):
        g_enumerated(960)


def test_recursion_matches_enumeration():
    for n in range(1, 301):
        assert g(n) == g_enumerated(n)


def test_count_doubles_ordered_factorizations():
    for n in range(2, 501):
        assert a(n) == 2 * g(n)


def test_sized_unit():
    table = a_sized(1)
    assert table.entries == {1: 1}
    assert table.total == 1


def test_sized_examples():
    four = a_sized(4)
    assert four.entries == {4: 1, 2: 1, 1: 2}
    assert four.total == a(4) == 4
    ten = a_sized(10)
    assert ten.entries == {10: 1, 5: 1, 2: 1, 1: 3}
    assert ten.count(1) == a(10) // 2
    assert ten.count(7) == 0  # non-divisors are implicit zeros


def test_sized_halving_and_scaling():
    for n in range(2, 201):
        assert 2 * a_sized(n).count(1) == a(n)
    for k in range(1, 40):
        for n in range(1, 40):
            assert a_sized(k * n).count(k) == a_sized(n).count(1)


def test_profile_unit():
    p = profile(1)
    assert (p.d, p.sigma, p.a, p.b, p.g) == (1, 1, 1, 1, 1)
    assert p.A == p.B == Fraction(1)


def test_profile_examples():
    p = profile(10)
    assert (p.d, p.sigma, p.a, p.b, p.g) == (4, 18, 6, 20, 3)
    assert p.A == Fraction(3, 5)
    assert p.B == Fraction(2)
    big = profile(100)
    assert (big.a, big.b) == (52, 340)


def test_signature_sharing_spot():
    assert a(12) == a(75) == 16  # both have exponent signature (2, 1)


@st.composite
def signature_and_prime_sets(draw):
    exponents = tuple(
        sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)), reverse=True)
    )
    pool = [2, 3, 5, 7, 11, 13, 17, 19]
    primes_one = draw(st.permutations(pool))[: len(exponents)]
    primes_two = draw(st.permutations(pool))[: len(exponents)]
    return exponents, primes_one, primes_two


@given(signature_and_prime_sets())
@settings(max_examples=100)
def test_count_depends_only_on_signature(signature_count, case):
    exponents, primes_one, primes_two = case
    n = 1
    m = 1
    for p, q, e in zip(primes_one, primes_two, exponents):
        n *= p**e
        m *= q**e
    assert a(n) == a(m) == signature_count(exponents)


@given(st.integers(min_value=2, max_value=5000))
@settings(max_examples=150)
def test_divisibility_by_power_of_two(n):
    from recdiv import factorize

    tau = factorize(n).max_exponent
    assert a(n) % 2**tau == 0


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=150)
def test_profile_invariants_hold(n):
    p = profile(n)
    assert p.a >= p.d
    assert p.b >= p.sigma
    if n > 1:
        assert p.a == 2 * p.g
