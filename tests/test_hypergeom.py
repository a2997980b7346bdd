import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simplex_grid_opt import (
    HomogeneousPolynomial,
    HypergeomParams,
    bernstein_approximation,
    binomial,
    compositions,
    expectation,
    evaluate,
    falling,
    grid_minimize,
    is_square_free,
    moment,
    random_polynomial,
    scaled_moment,
)
from simplex_grid_opt.hypergeom import (
    _falling_quotients,
    _falling_row,
    _scaled_moments,
    _stirling_terms,
)
from strats import (
    cubic_moments_closed,
    exponent_tuples,
    moment_bruteforce,
    naive_bernstein,
    pmf,
    polynomials,
    quadratic_moments_closed,
    scaled_moment_bruteforce,
    simplex_points,
    strict_gap_poly,
)

PAPER_URN = HypergeomParams(m=16, counts=(7, 9), r=2)


@st.composite
def urns(draw, max_n=3, max_m=8):
    n = draw(st.integers(1, max_n))
    counts = draw(st.lists(st.integers(0, max_m), min_size=n, max_size=n).filter(lambda c: 0 < sum(c) <= max_m))
    m = sum(counts)
    r = draw(st.integers(1, m))
    return HypergeomParams(m=m, counts=tuple(counts), r=r)


def test_params_validation():
    with pytest.raises(ValueError):
        HypergeomParams(m=5, counts=(2, 2), r=1)
    with pytest.raises(ValueError):
        HypergeomParams(m=4, counts=(2, 2), r=5)
    with pytest.raises(ValueError):
        HypergeomParams(m=4, counts=(2, 2), r=0)
    with pytest.raises(ValueError):
        HypergeomParams(m=0, counts=(-1, 1), r=1)


def test_pmf_paper_values():
    assert pmf(PAPER_URN, (1, 1)) == Fraction(21, 40)
    assert pmf(PAPER_URN, (2, 0)) == Fraction(7, 40)
    assert pmf(PAPER_URN, (0, 2)) == Fraction(36, 120)


def test_pmf_zero_when_color_exhausted():
    p = HypergeomParams(m=4, counts=(1, 3), r=3)
    assert pmf(p, (2, 1)) == 0


def test_pmf_rejects_wrong_total():
    with pytest.raises(ValueError):
        pmf(PAPER_URN, (1, 0))
    with pytest.raises(ValueError):
        pmf(PAPER_URN, (1, 1, 0))


def test_pmf_sums_to_one_exhaustively():
    # counts convolution: sum over I(n, r) of prod C(m_i, a_i) = C(m, r)
    for n in range(1, 5):
        for m in range(1, 11):
            for counts in compositions(n, m):
                for r in range(1, m + 1):
                    total = sum(
                        math.prod(binomial(mi, ai) for mi, ai in zip(counts, alpha))
                        for alpha in compositions(n, r)
                    )
                    assert total == binomial(m, r)
    # and through the pmf itself on a smaller region
    for n in range(1, 4):
        for m in range(1, 7):
            for counts in compositions(n, m):
                for r in range(1, m + 1):
                    p = HypergeomParams(m=m, counts=counts, r=r)
                    assert sum(pmf(p, alpha) for alpha in compositions(n, r)) == 1


def test_moment_frozen_example():
    # brute force over the three outcomes gives E[Y1^2] = (4*21 + 1*63)/120 = 49/40
    assert moment_bruteforce(PAPER_URN, (2, 0)) == Fraction(49, 40)
    assert moment(PAPER_URN, (2, 0)) == Fraction(49, 40)


def test_moment_first_and_zeroth_order():
    for p in (PAPER_URN, HypergeomParams(m=5, counts=(0, 2, 3), r=4)):
        assert moment(p, (0,) * p.n) == 1
        for i in range(p.n):
            beta = tuple(int(i == j) for j in range(p.n))
            assert moment(p, beta) == Fraction(p.r * p.counts[i], p.m)


def test_scaled_moment_paper_values():
    assert scaled_moment(PAPER_URN, (2, 0)) == Fraction(49, 160)
    assert scaled_moment(PAPER_URN, (1, 1)) == Fraction(21, 160)
    assert scaled_moment(PAPER_URN, (1, 0)) == Fraction(7, 16)


def test_marginal_means_sum_to_one():
    for p in (PAPER_URN, HypergeomParams(m=7, counts=(0, 3, 4), r=2)):
        total = sum(scaled_moment(p, tuple(int(i == j) for j in range(p.n))) for i in range(p.n))
        assert total == 1


@settings(max_examples=60)
@given(urns(), st.data())
def test_scaled_moment_matches_bruteforce(p, data):
    beta = []
    budget = 4
    for _ in range(p.n):
        b = data.draw(st.integers(0, budget))
        beta.append(b)
        budget -= b
    assert scaled_moment(p, tuple(beta)) == scaled_moment_bruteforce(p, tuple(beta))


def test_moment_matches_bruteforce_exhaustively_small():
    # covers r < |beta|, where the common denominator is falling(m, r)
    for n in range(1, 4):
        for m in range(1, 6):
            for counts in compositions(n, m):
                for r in range(1, m + 1):
                    p = HypergeomParams(m=m, counts=counts, r=r)
                    for d in range(0, 5):
                        for beta in compositions(n, d):
                            assert moment(p, beta) == moment_bruteforce(p, beta), (p, beta)


@settings(max_examples=150, deadline=None)
@given(urns(max_m=7), st.data())
def test_rows_built_once_give_the_moment_at_every_r(p, data):
    # weights built once for the whole index, one dot product at each r = 1..m:
    # zero counts, r < |beta| and r = m all occur (the weights need m >= |beta|)
    d = data.draw(st.integers(0, min(p.m, 3 * p.n)))
    beta = data.draw(exponent_tuples(p.n, d))
    weights = _scaled_moments(beta, p.counts, _falling_quotients(p.m, d), {})
    assert len(weights) == d + 1 and all(type(w) is int for w in weights)
    for r in range(1, p.m + 1):
        q = HypergeomParams(m=p.m, counts=p.counts, r=r)
        truth = moment_bruteforce(q, beta)
        assert Fraction(*_stirling_terms(beta, r, p.counts, p.m, falling)) == truth == moment(q, beta)
        num = sum(map(operator.mul, weights, _falling_row(r, d)))  # over r^d * falling(m, d)
        assert Fraction(num, r**d * falling(p.m, d)) == truth / Fraction(r) ** d == scaled_moment(q, beta)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_rows_built_once_give_the_bernstein_moment_at_every_r(n, d, data):
    # the with-replacement urn through the same evaluation, against the grid sum
    x = data.draw(simplex_points(n))
    beta = data.draw(exponent_tuples(n, d))
    q = math.lcm(*(v.denominator for v in x))
    colors = [v.numerator * (q // v.denominator) for v in x]
    monomial = HomogeneousPolynomial(n, d, {beta: 1})
    for r in range(1, 7):
        num, den = _stirling_terms(beta, r, colors, q, pow)
        assert Fraction(num, den * r**d) == naive_bernstein(monomial, x, r)


def test_moment_at_full_draw_is_deterministic():
    p = HypergeomParams(m=6, counts=(1, 2, 3), r=6)
    for beta in ((2, 0, 0), (1, 1, 1), (0, 3, 1)):
        expected = math.prod(Fraction(mi, p.m) ** bi for mi, bi in zip(p.counts, beta))
        assert scaled_moment(p, beta) == expected


def test_bruteforce_gate():
    p = HypergeomParams(m=40, counts=(10, 10, 10, 10), r=20)
    with pytest.raises(ValueError):
        moment_bruteforce(p, (1, 0, 0, 0), max_points=100)


def test_closed_quadratic_matches_paper_case():
    table = quadratic_moments_closed(PAPER_URN)
    assert table[(0, 0)] == Fraction(49, 160)
    assert table[(0, 1)] == Fraction(21, 160)
    assert table[(1, 1)] == Fraction(69, 160)


def test_closed_forms_match_scaled_moment_including_zero_counts():
    for counts in ((0, 4), (2, 2), (0, 0, 5), (1, 2, 3)):
        m = sum(counts)
        for r in range(1, m + 1):
            p = HypergeomParams(m=m, counts=counts, r=r)
            if m >= 2:
                for (i, j), value in quadratic_moments_closed(p).items():
                    beta = [0] * p.n
                    beta[i] += 1
                    beta[j] += 1
                    assert value == scaled_moment(p, tuple(beta))
            if m >= 3:
                for key, value in cubic_moments_closed(p).items():
                    beta = [0] * p.n
                    for idx in key:
                        beta[idx] += 1
                    assert value == scaled_moment(p, tuple(beta))


def test_closed_forms_reject_small_m():
    with pytest.raises(ValueError):
        quadratic_moments_closed(HypergeomParams(m=1, counts=(1,), r=1))
    with pytest.raises(ValueError):
        cubic_moments_closed(HypergeomParams(m=2, counts=(1, 1), r=1))


def test_cubic_triple_vanishes_with_empty_color():
    p = HypergeomParams(m=6, counts=(0, 2, 4), r=3)
    assert cubic_moments_closed(p)[(0, 1, 2)] == 0


def test_expectation_paper_value_and_strictness():
    f = strict_gap_poly()
    value = expectation(f, PAPER_URN)
    assert value == Fraction(31, 80)
    assert grid_minimize(f, 2).value == Fraction(-1, 2) < value


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(strict_gap_poly(), HypergeomParams(m=3, counts=(1, 1, 1), r=2))


def test_expectation_degree_one_is_plug_in():
    f = HomogeneousPolynomial(3, 1, {(1, 0, 0): 4, (0, 1, 0): -2, (0, 0, 1): 7})
    for p in (HypergeomParams(m=6, counts=(1, 2, 3), r=2), HypergeomParams(m=5, counts=(0, 5, 0), r=3)):
        assert expectation(f, p) == evaluate(f, p.mean_point())


def test_square_free_expectation_closed_form():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 4)
        d = rng.randint(1, min(3, n))
        coeffs = {}
        for alpha in compositions(n, d):
            if all(a <= 1 for a in alpha) and rng.random() < 0.7:
                coeffs[alpha] = rng.randint(-5, 5)
        coeffs = {a: c for a, c in coeffs.items() if c}
        if not coeffs:
            continue
        f = HomogeneousPolynomial(n, d, coeffs)
        assert is_square_free(f)
        counts = tuple(rng.randint(0, 4) for _ in range(n))
        m = sum(counts)
        if m < max(d, 1):
            continue
        r = rng.randint(1, m)
        p = HypergeomParams(m=m, counts=counts, r=r)
        scale = Fraction(falling(r, d) * m**d, r**d * falling(m, d))
        assert expectation(f, p) == scale * evaluate(f, p.mean_point())


def test_grid_minimum_below_expectation_100_random_instances():
    rng = random.Random(20260809)
    for _ in range(100):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        f = random_polynomial(rng, n, d)
        counts = tuple(rng.randint(0, 3) for _ in range(n))
        m = sum(counts)
        if m == 0:
            counts = (2,) + counts[1:]
            m = sum(counts)
        r = rng.randint(1, m)
        p = HypergeomParams(m=m, counts=counts, r=r)
        assert grid_minimize(f, r).value <= expectation(f, p)


@settings(max_examples=60)
@given(polynomials(max_n=3, max_d=3), st.data())
def test_expectation_equals_the_sum_over_outcomes(f, data):
    counts = data.draw(
        st.lists(st.integers(0, 8), min_size=f.n, max_size=f.n).filter(lambda c: 0 < sum(c) <= 8)
    )
    p = HypergeomParams(m=sum(counts), counts=tuple(counts), r=data.draw(st.integers(1, sum(counts))))
    want = Fraction(0)
    for alpha in compositions(p.n, p.r):
        want += pmf(p, alpha) * evaluate(f, [Fraction(a, p.r) for a in alpha])
    assert expectation(f, p) == want


def test_bernstein_approximation_examples():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 1})
    assert bernstein_approximation(f, (Fraction(1, 2), Fraction(1, 2)), 2) == Fraction(3, 8)

    linear = HomogeneousPolynomial(2, 1, {(1, 0): 3, (0, 1): -1})
    for r in (1, 2, 5):
        x = (Fraction(2, 7), Fraction(5, 7))
        assert bernstein_approximation(linear, x, r) == evaluate(linear, x)

    gap = strict_gap_poly()
    value = bernstein_approximation(gap, (Fraction(7, 16), Fraction(9, 16)), 2)
    assert value == Fraction(29, 64)  # by the three-term sum
    assert value >= grid_minimize(gap, 2).value


def test_bernstein_approximation_equals_sequence_enumeration():
    # independent oracle: average f(counts/r) over all n^r ordered draw sequences
    from itertools import product as iproduct

    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        f = random_polynomial(rng, n, d, coef_lo=-3, coef_hi=3)
        r = rng.randint(1, 4)
        w = [rng.randint(0, 5) for _ in range(n)]
        if sum(w) == 0:
            w[0] = 1
        x = tuple(Fraction(v, sum(w)) for v in w)
        total = Fraction(0)
        for seq in iproduct(range(n), repeat=r):
            prob = math.prod((x[i] for i in seq), start=Fraction(1))
            alpha = tuple(seq.count(i) for i in range(n))
            total += prob * evaluate(f, tuple(Fraction(a, r) for a in alpha))
        assert bernstein_approximation(f, x, r) == total


@settings(max_examples=80)
@given(polynomials(max_n=4, max_d=4), st.integers(1, 8), st.data())
def test_bernstein_approximation_equals_the_grid_sum(f, r, data):
    x = data.draw(simplex_points(f.n))
    assert bernstein_approximation(f, x, r) == naive_bernstein(f, x, r)


def test_bernstein_approximation_does_not_sum_the_grid():
    # E[(W_1/r)^2] = x_1^2 + x_1(1 - x_1)/r for W ~ Multinomial(r, x); the grid has 10^6 + 1 points
    f, r = HomogeneousPolynomial(2, 2, {(2, 0): 1}), 10**6
    for x1 in (Fraction(0), Fraction(1, 3), Fraction(7, 16), Fraction(1)):
        assert bernstein_approximation(f, (x1, 1 - x1), r) == x1**2 + x1 * (1 - x1) / r


def test_bernstein_approximation_rejects_off_simplex_points():
    f = strict_gap_poly()
    with pytest.raises(ValueError):
        bernstein_approximation(f, (Fraction(1, 2), Fraction(1, 4)), 2)
    with pytest.raises(ValueError):
        bernstein_approximation(f, (Fraction(3, 2), Fraction(-1, 2)), 2)


def test_bernstein_approximation_takes_no_grid_guard():
    # C(109, 9) > 10^8 grid points, more than the sweeps' default guard: none is summed
    vertex = tuple(int(i == 0) for i in range(10))
    assert bernstein_approximation(HomogeneousPolynomial(10, 1, {vertex: 1}), vertex, 100) == 1
    gap, x = strict_gap_poly(), (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(TypeError):
        bernstein_approximation(gap, x, 16, max_points=16)


@settings(max_examples=30)
@given(polynomials(max_n=3, max_d=3), st.data())
def test_bernstein_approximation_dominates_grid_minimum(f, data):
    r = data.draw(st.integers(1, 4))
    weights = data.draw(
        st.lists(st.integers(0, 6), min_size=f.n, max_size=f.n).filter(lambda w: sum(w) > 0)
    )
    x = tuple(Fraction(w, sum(weights)) for w in weights)
    assert bernstein_approximation(f, x, r) >= grid_minimize(f, r).value
