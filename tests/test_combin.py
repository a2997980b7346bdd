from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from simplex_grid_opt import (
    binomial,
    composition_count,
    compositions,
    falling,
    multinomial,
    stirling2,
)
from strats import composition_unrank, falling_poly_coeffs


def test_binomial_values():
    assert binomial(6, 4) == 15
    assert binomial(5, 0) == 1
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0


def test_multinomial_values():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(2, (2, 0)) == 1
    assert multinomial(4, (2, 2)) == 6


def test_multinomial_rejects_bad_sum():
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))
    with pytest.raises(ValueError):
        multinomial(2, (3, -1))


def test_falling_values():
    assert falling(5, 3) == 60
    assert falling(2, 3) == 0
    assert falling(7, 1) == 7
    assert falling(7, 0) == 1
    assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)


def _partitions_into_blocks(items, b):
    """All set partitions of `items` into exactly b nonempty blocks."""
    if not items:
        return [[]] if b == 0 else []
    first, rest = items[0], items[1:]
    out = []
    for partition in _partitions_into_blocks(rest, b):
        for i in range(len(partition)):
            out.append(partition[:i] + [partition[i] + [first]] + partition[i + 1 :])
    for partition in _partitions_into_blocks(rest, b - 1):
        out.append(partition + [[first]])
    return out


@pytest.mark.parametrize("a,b", [(a, b) for a in range(7) for b in range(8)])
def test_stirling2_against_enumeration(a, b):
    assert stirling2(a, b) == len(_partitions_into_blocks(list(range(a)), b))


def test_stirling2_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert all(stirling2(d, d) == 1 for d in range(10))


@given(st.integers(1, 12), st.integers(1, 12))
def test_stirling2_recurrence(a, b):
    assert stirling2(a, b) == b * stirling2(a - 1, b) + stirling2(a - 1, b - 1)


def test_compositions_examples():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions(3, 4))) == 15 == composition_count(3, 4)
    assert list(compositions(1, 5)) == [(5,)]


@given(st.integers(1, 5), st.integers(0, 7))
def test_compositions_lex_sorted_and_complete(n, total):
    seq = list(compositions(n, total))
    assert len(seq) == composition_count(n, total)
    assert seq == sorted(seq)
    assert len(set(seq)) == len(seq)
    assert all(sum(alpha) == total and len(alpha) == n for alpha in seq)


@given(st.integers(1, 5), st.integers(0, 7))
def test_unrank_matches_iteration(n, total):
    for rank, alpha in enumerate(compositions(n, total)):
        assert composition_unrank(n, total, rank) == alpha
    with pytest.raises(ValueError):
        composition_unrank(n, total, composition_count(n, total))


def test_successor_at_top_is_none():
    # the lex-last element (total, 0, ..., 0) has no successor: the walk ends there
    assert list(compositions(3, 3))[-2:] == [(2, 1, 0), (3, 0, 0)]
    assert list(compositions(1, 5)) == [(5,)]
    assert list(compositions(3, 0)) == [(0, 0, 0)]


def test_falling_poly_coeffs_frozen_cases():
    assert falling_poly_coeffs(2).a == (1,)
    assert falling_poly_coeffs(2).c_d == 1
    assert falling_poly_coeffs(3).a == (2, 3)
    assert falling_poly_coeffs(3).c_d == 10
    assert falling_poly_coeffs(4).a == (6, 11, 6)
    assert falling_poly_coeffs(4).c_d == 69


def test_falling_poly_coeffs_rejects_small_degree():
    with pytest.raises(ValueError):
        falling_poly_coeffs(1)


@pytest.mark.parametrize("d", range(2, 9))
def test_falling_poly_reconstructs(d):
    # x^(d-1) + sum (-1)^(d-1-i) a_i x^i must vanish at x = 1..d-1 and match
    # the product form elsewhere
    data = falling_poly_coeffs(d)

    def reconstructed(x):
        total = x ** (d - 1)
        for i, ai in enumerate(data.a):
            total += (-1) ** (d - 1 - i) * ai * x**i
        return total

    for x in range(1, d):
        assert reconstructed(x) == 0
    for x in range(-3, 12):
        product = 1
        for root in range(1, d):
            product *= x - root
        assert reconstructed(x) == product
    assert all(ai > 0 for ai in data.a)
    assert data.c_d == (d - 1) * sum(data.a)
