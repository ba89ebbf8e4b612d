from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiv import (
    B_closed,
    B_from_A,
    PrimePowerShape,
    a,
    a_closed,
    a_distinct_primes,
    a_recursion,
    b,
    b_recursion,
    closedforms,
    factorize,
    verify,
)
from recdiv.core import divisor_lattice


def shape(*pairs):
    return PrimePowerShape.of(*pairs)


def test_distinct_primes_sequence():
    assert [a_distinct_primes(k) for k in range(7)] == [1, 2, 6, 26, 150, 1082, 9366]


def test_distinct_primes_matches_definition_to_seven():
    primorial = 1
    for k, p in enumerate((2, 3, 5, 7, 11, 13, 17), start=1):
        primorial *= p
        assert a_distinct_primes(k) == a(primorial)


def test_distinct_primes_rejects_negative():
    with pytest.raises(ValueError):
        a_distinct_primes(-1)


def test_count_recursion_examples():
    assert a_recursion(shape()) == 1
    assert a_recursion(shape((2, 0))) == 1
    assert a_recursion(shape((2, 5))) == 32
    assert a_recursion(shape((2, 2), (3, 1))) == 16


def test_count_closed_examples():
    assert a_closed(shape((2, 6))) == 64
    assert a_closed(shape((7, 6))) == 64  # prime-agnostic
    assert a_closed(shape((2, 3), (3, 2))) == 152
    assert a_closed(shape((2, 2), (3, 1), (5, 1))) == 88


def test_zero_exponents_absorb():
    assert a_closed(shape((2, 3), (3, 0))) == a_closed(shape((2, 3))) == 8
    assert a_recursion(shape((2, 3), (3, 0), (5, 0))) == 8
    assert b_recursion(shape((2, 3), (3, 0))) == b_recursion(shape((2, 3))) == 20
    assert B_closed(shape((2, 0), (3, 0))) == Fraction(1)


def test_sum_recursion_examples():
    assert b_recursion(shape((2, 1))) == 3
    assert b_recursion(shape((2, 4))) == 48
    assert b_recursion(shape((2, 3), (3, 1))) == 116


def test_three_prime_sum_recursion_matches_definition():
    # All-sum inclusion-exclusion body; the printed mixed-term variant would
    # disagree with the definition on every row below.
    for pairs in [
        ((2, 2), (3, 1), (5, 1)),
        ((2, 3), (3, 2), (5, 1)),
        ((3, 1), (2, 2), (5, 2)),
        ((5, 2), (3, 2), (2, 2)),
    ]:
        s = shape(*pairs)
        assert b_recursion(s) == b(s.n)


def test_ratio_closed_examples():
    assert B_closed(shape((2, 6))) == Fraction(4)
    assert B_closed(shape((3, 3))) == Fraction(46, 27)
    assert B_closed(shape((2, 5), (3, 1))) == Fraction(8)


def test_ratio_closed_odd_odd_and_reversed_orders():
    assert B_closed(shape((3, 1), (5, 1))) == Fraction(b(15), 15)
    assert B_closed(shape((5, 1), (3, 1))) == Fraction(b(15), 15)
    assert B_closed(shape((3, 1), (2, 2))) == Fraction(b(12), 12)


def test_ratio_closed_rejects_three_primes():
    with pytest.raises(ValueError):
        B_closed(shape((2, 1), (3, 1), (5, 1)))


def test_ratio_from_counts_examples():
    assert B_from_A(1) == Fraction(1)
    assert B_from_A(10) == Fraction(2)
    assert B_from_A(100) == Fraction(17, 5)


def test_shape_validation():
    with pytest.raises(ValueError):
        shape((2, 1), (3, 1), (5, 1), (7, 1))
    with pytest.raises(ValueError):
        shape((2, 1), (2, 2))
    with pytest.raises(ValueError):
        shape((4, 1))
    with pytest.raises(ValueError):
        shape((2, -1))


def test_shape_grid_proves_its_primes_once(monkeypatch):
    proven = []
    real = closedforms.is_prime

    def counting(p):
        proven.append(p)
        return real(p)

    for module in (closedforms, verify):
        monkeypatch.setattr(module, "is_prime", counting)
    grid = list(verify.shape_grid())
    assert proven == list(verify.GRID_PRIMES)
    assert len(grid) == 13308
    # The validating constructor accepts every grid shape and builds an equal one.
    assert grid == [PrimePowerShape(s.pairs) for s in grid]


def test_shape_grid_refuses_a_composite_grid_prime(monkeypatch):
    monkeypatch.setattr(verify, "GRID_PRIMES", (2, 3, 9, 7))
    with pytest.raises(ValueError, match=r"non-primes: \[9\]"):
        next(verify.shape_grid())


@given(st.integers(0, 8), st.integers(0, 8))
def test_two_prime_closed_form_is_symmetric(c, e):
    assert a_closed(shape((2, c), (3, e))) == a_closed(shape((2, e), (3, c)))


_PRIMES = st.permutations([2, 3, 5, 7, 11, 13])
_EXPS = st.lists(st.integers(0, 4), min_size=1, max_size=3)


@given(_PRIMES, _EXPS)
@settings(max_examples=150, deadline=None)
def test_all_routes_agree_on_random_shapes(primes, exps):
    s = shape(*zip(primes, exps))
    n = s.n
    want = a(n)
    assert a_recursion(s) == want
    assert a_closed(s) == want
    assert b_recursion(s) == b(n)
    if len(s.normalized().pairs) <= 2:
        assert B_closed(s) == Fraction(b(n), n)


@given(st.integers(1, 1500))
@settings(max_examples=150, deadline=None)
def test_ratio_from_counts_matches_definition(n):
    assert B_from_A(n) == Fraction(b(n), n)


def sum_of_fractions_B_closed(shape):
    """Oracle: the two-prime closed form as a sum of one Fraction per term."""
    (p, c), (q, d) = shape.normalized().pairs
    if p == 2:
        total = sum(
            Fraction(sum(comb(j, k) * comb(c + k + 1, k + 1) for k in range(j + 1)), q**j)
            for j in range(d + 1)
        )
    else:
        total = sum(
            Fraction(
                2**i * sum(comb(i + k, k) * comb(j, k) for k in range(j + 1)),
                p**i * q**j,
            )
            for i in range(c + 1)
            for j in range(d + 1)
        )
    return Fraction(1, 2) + total / 2


def sum_of_fractions_B_from_A(n):
    """Oracle: B(n) = 1/2 + Σ_{m|n} a(m)/(2m), adding Fractions."""
    numerator = sum(
        (2 * count if d < n else 1) * d for d, count in divisor_lattice(factorize(n))
    )
    return Fraction(1, 2) + Fraction(numerator, n) / 2


def test_one_denominator_ratios_match_fraction_sums():
    grid = [s for s in verify.shape_grid() if len(s.pairs) <= 2]
    pairs = [factorize(n).pairs for n in range(2, 3001)]
    small = [PrimePowerShape(p) for p in pairs if len(p) <= 2]
    for s in grid + small:
        want = Fraction(b(s.n), s.n)
        oracle = sum_of_fractions_B_closed(s) if len(s.pairs) == 2 else want
        assert B_closed(s) == oracle == want, s.pairs
    for n in [s.n for s in grid] + list(range(1, 3001)):
        assert B_from_A(n) == sum_of_fractions_B_from_A(n) == Fraction(b(n), n), n
