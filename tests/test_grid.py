import concurrent.futures
import random
import re
import sys
import threading
from fractions import Fraction
from math import ceil, comb, floor, lcm, prod
from operator import lshift, mul

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simplex_grid_opt import (
    Graph,
    GridTooLargeError,
    HomogeneousPolynomial,
    RangeAssumptions,
    alpha_lower_bound,
    composition_count,
    compositions,
    evaluate,
    grid_extrema,
    grid_maximize,
    grid_minimize,
    load_polynomial,
    multinomial,
    random_polynomial,
    range_enclosures,
)
from simplex_grid_opt import bounds, grid
from strats import (
    DATA_DIR,
    anchored_extremes,
    anchored_form,
    anchored_points,
    bernstein_columns_oracle,
    block_symmetric_forms,
    exponent_tuples,
    fixed_quartic,
    motzkin_straus_form,
    naive_extremes,
    naive_orbit_ties,
    node_coefficients_oracle,
    node_loses_oracle,
    orbit_key,
    petersen,
    poly_add,
    poly_scale,
    polynomials,
    strict_gap_poly,
    sum_of_squares,
)


def test_grid_minimize_paper_values():
    f = strict_gap_poly()
    r2 = grid_minimize(f, 2)
    assert r2.value == Fraction(-1, 2)
    assert r2.minimizers == ((1, 1),)
    assert r2.tie_count == 1
    r16 = grid_minimize(f, 16)
    assert r16.value == Fraction(-17, 32)
    assert r16.minimizers == ((7, 9),)
    assert r16.evaluations == composition_count(2, 16)


def test_grid_minimize_sum_of_squares_saturates_at_one_over_r():
    assert grid_minimize(sum_of_squares(4), 2).value == Fraction(1, 2)
    for n in (3, 4, 5):
        for r in range(1, n + 1):
            assert grid_minimize(sum_of_squares(n), r).value == Fraction(1, r)


def test_grid_maximize_examples():
    res = grid_maximize(sum_of_squares(2), 2)
    assert res.value == 1
    assert res.minimizers == ((0, 2), (2, 0))
    assert res.tie_count == 2

    assert grid_maximize(HomogeneousPolynomial(2, 2, {(1, 1): 1}), 2).value == Fraction(1, 4)

    linear = HomogeneousPolynomial(2, 1, {(1, 0): 1, (0, 1): 1})
    for r in (1, 3, 8):
        assert grid_maximize(linear, r).value == 1


def test_vertex_grid_reads_min_coefficient_of_pure_powers():
    f = strict_gap_poly()
    assert grid_minimize(f, 1).value == 1  # min over vertices: min(2, 1)
    assert grid_maximize(f, 1).value == 2


def test_zero_polynomial_grid():
    z = HomogeneousPolynomial(3, 2, {})
    res = grid_minimize(z, 3)
    assert res.value == 0
    assert res.tie_count == res.evaluations == composition_count(3, 3)
    assert len(res.minimizers) == 10  # full tie set fits under the cap


def test_minimizer_cap_and_exact_tie_count():
    # (x1 + ... + x4)^2 is constant 1 on the simplex: every point ties
    n, r = 4, 5
    coeffs = {}
    for i in range(n):
        for j in range(n):
            key = tuple((i == k) + (j == k) for k in range(n))
            coeffs[key] = coeffs.get(key, 0) + 1
    f = HomogeneousPolynomial(n, 2, coeffs)
    res = grid_minimize(f, r)
    assert res.value == 1
    assert res.tie_count == composition_count(n, r) == res.evaluations
    assert len(res.minimizers) == 16
    assert list(res.minimizers) == sorted(res.minimizers)
    assert res.minimizers[0] == (0, 0, 0, r)


def test_a_negative_minimizer_cap_is_refused_before_any_work(monkeypatch):
    # at -1, x_1x_2 + x_2x_3 + x_1x_3 (closed-form rows) kept 1 of its 3 tied
    # minimizers and x_1x_2x_3 (table rows) 4 of its 12; a cap of 0 keeps none
    # and still counts every tie, and a cap past any list's length keeps all
    cases = ((HomogeneousPolynomial(3, 2, {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}), 3),
             (HomogeneousPolynomial(3, 3, {(1, 1, 1): 1}), 12))
    sizes = []
    grid_size = grid._grid_size
    monkeypatch.setattr(grid, "_grid_size", lambda *args: sizes.append(args) or grid_size(*args))
    for f, ties in cases:
        for op in (grid_minimize, grid_maximize, grid_extrema):
            with pytest.raises(ValueError, match="^minimizer_cap must be at least 0, got -1$"):
                op(f, 4, minimizer_cap=-1)
        assert sizes == []
        low = grid_minimize(f, 4, minimizer_cap=0)
        assert (low.value, low.minimizers, low.tie_count) == (0, (), ties)
        assert [(x.value, x.minimizers, x.tie_count) for x in grid_extrema(f, 4, minimizer_cap=10**30)] \
            == naive_extremes(f, 4, ties)
        sizes.clear()


@pytest.mark.parametrize("op", [grid_minimize, grid_maximize, grid_extrema])
@pytest.mark.parametrize("name", ["r", "threads", "minimizer_cap", "max_points"])
@pytest.mark.parametrize("value", [2.0, 2.5, "2", True])
def test_an_integer_parameter_that_is_no_integer_is_refused_before_any_work(
        monkeypatch, op, name, value):
    # a bool, a float (2.0 too) or a str is refused as rational._as_int refuses it,
    # naming the value, where it once ran (r=True, threads=2.0, max_points=10.5)
    # or failed somewhere unrelated (minimizer_cap=1.5 inside islice)
    monkeypatch.setattr(grid, "_grid_size", lambda *args: pytest.fail("a sweep started"))
    f = HomogeneousPolynomial(2, 2, {(1, 1): 1})
    kwargs = {"r": 2, name: value}
    with pytest.raises(TypeError, match=rf"^expected an integer, got {re.escape(repr(value))}$"):
        op(f, kwargs.pop("r"), **kwargs)


@settings(max_examples=25)
@given(polynomials(max_n=3, max_d=3), st.integers(1, 5))
def test_bruteforce_oracle_equality(f, r):
    # independent route: Fraction evaluation at every grid point
    expected = min(
        evaluate(f, tuple(Fraction(a, r) for a in alpha)) for alpha in compositions(f.n, r)
    )
    assert grid_minimize(f, r).value == expected


@settings(max_examples=20)
@given(polynomials(max_n=3, max_d=3), st.integers(1, 4), st.integers(2, 3))
def test_divisor_chain_monotonicity(f, r, mult):
    # the grid at denominator r embeds in the one at r * mult
    assert grid_minimize(f, mult * r).value <= grid_minimize(f, r).value
    assert grid_maximize(f, mult * r).value >= grid_maximize(f, r).value


@settings(max_examples=20)
@given(polynomials(max_n=3, max_d=3), st.integers(1, 5))
def test_parallel_equals_sequential(f, r):
    seq = grid_minimize(f, r, threads=1)
    par = grid_minimize(f, r, threads=4)
    assert seq == par


def test_parallel_merge_preserves_lex_first_ties():
    n, r = 3, 7
    f = HomogeneousPolynomial(n, 1, {tuple(int(i == j) for j in range(n)): 1 for i in range(n)})
    seq = grid_minimize(f, r, threads=1)  # constant 1 on the simplex, all tie
    for threads in (2, 3, 5, 8):
        assert grid_minimize(f, r, threads=threads) == seq


def test_max_points_guard():
    with pytest.raises(GridTooLargeError):
        grid_minimize(sum_of_squares(4), 10, max_points=50)
    with pytest.raises(ValueError):
        grid_extrema(sum_of_squares(4), 0)


def test_range_enclosures_examples():
    f = sum_of_squares(2)
    lo_enc, hi_enc = range_enclosures(f, RangeAssumptions(elevation=0, grid=2))
    assert (lo_enc.lo, lo_enc.hi) == (0, Fraction(1, 2))
    assert hi_enc.lo <= 1 <= hi_enc.hi

    lo4, _ = range_enclosures(f, RangeAssumptions(elevation=4, grid=4))
    assert (lo4.lo, lo4.hi) == (Fraction(2, 5), Fraction(1, 2))  # elevated table min is 2/5
    assert lo4.contains(Fraction(1, 2))
    assert lo4.width < Fraction(1, 2)


@settings(max_examples=25)
@given(polynomials(max_n=3, max_d=3), st.integers(1, 4), st.integers(0, 3))
def test_range_enclosures_are_ordered_and_consistent(f, r, k):
    lo_enc, hi_enc = range_enclosures(f, RangeAssumptions(elevation=k, grid=r))
    assert lo_enc.lo <= lo_enc.hi
    assert hi_enc.lo <= hi_enc.hi
    # grid values sit inside the certified global range
    assert lo_enc.lo <= grid_minimize(f, r).value
    assert grid_maximize(f, r).value <= hi_enc.hi


@settings(max_examples=20)
@given(polynomials(max_n=3, max_d=3), st.integers(1, 4), st.integers(0, 3))
def test_grid_min_at_least_bernstein_lower_bound(f, r, k):
    lo_enc, _ = range_enclosures(f, RangeAssumptions(elevation=k, grid=r))
    assert grid_minimize(f, r).value >= lo_enc.lo


# --- the sweep engine against a naive oracle ------------------------------------


def power_of_sum(n: int, d: int, c) -> HomogeneousPolynomial:
    """c * (x_1 + ... + x_n)^d, constant c on the simplex: every point ties."""
    return HomogeneousPolynomial(n, d, {a: c * multinomial(d, a) for a in compositions(n, d)})


def sum_of_squares_family(n: int, a, b) -> HomogeneousPolynomial:
    """a * sum x_i^2 + b * (sum x_i)^2: its minimum a/n + b (a > 0) is interior."""
    return poly_add(poly_scale(sum_of_squares(n), a), power_of_sum(n, 2, b))


@st.composite
def engine_cases(draw):
    """(f, r) with n 1-7, d 1-4, r 1-12, tie-heavy forms, quadratics with
    interior extremes and sparse quadratics with missing edge rows included; r
    is kept where the Fraction oracle stays fast."""
    kind = draw(st.sampled_from(("sparse", "sparse", "sparse", "zero", "power_of_sum",
                                 "stable_set", "sum_of_squares", "sparse_quadratic")))
    if kind == "sparse":
        f = draw(polynomials(max_n=6, max_d=4))
        f = poly_scale(f, draw(st.sampled_from((1, 1, Fraction(-1, 3), Fraction(5, 2)))))
    elif kind == "stable_set":
        n = draw(st.integers(4, 7))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        f = motzkin_straus_form(Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True))))
        f = poly_scale(f, draw(st.sampled_from((1, -1))))  # -1: the max side
    elif kind == "sparse_quadratic":
        # squares, x_0 x_j and at most one more cross term: a node's table
        # lacks most of its edge rows, whose p_g = 0 the quadratic bound reads
        n = draw(st.integers(4, 7))
        unit = lambda *ij: tuple(ij.count(t) for t in range(n))
        squares = draw(st.lists(st.integers(1, n - 1), min_size=1, unique=True))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        cross = {(0, draw(st.integers(1, n - 1))), *draw(st.lists(st.sampled_from(pairs), max_size=1))}
        coeffs = {unit(i, i): draw(st.integers(1, 3)) for i in squares}
        coeffs.update({unit(i, j): draw(st.sampled_from((1, 2, -1))) for i, j in cross})
        f = poly_scale(HomogeneousPolynomial(n, 2, coeffs), draw(st.sampled_from((1, -1))))
    elif kind == "sum_of_squares":
        n = draw(st.integers(4, 7))
        a = draw(st.sampled_from((1, 3, Fraction(1, 2), -1, -2)))
        f = sum_of_squares_family(n, a, draw(st.sampled_from((0, 1, -1, Fraction(-3, 2)))))
    else:
        n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        if kind == "zero":
            f = HomogeneousPolynomial(n, d, {})
        else:
            f = power_of_sum(n, d, draw(st.sampled_from((1, -2, Fraction(3, 2)))))
    work = max(1, len(f.coeffs))  # oracle cost per point
    r = draw(st.integers(1, 12).filter(lambda r: composition_count(f.n, r) * work <= 20000))
    return f, r


@settings(max_examples=100, deadline=None)
@given(engine_cases(), st.sampled_from((1, 16)))
def test_engine_matches_naive_oracle(case, cap):
    f, r = case
    lo, hi = _check_against_naive_oracle(f, r, cap)
    enc_lo, enc_hi = range_enclosures(f, RangeAssumptions(grid=r))
    assert (enc_lo.hi, enc_hi.lo) == (lo, hi)


def _check_against_naive_oracle(f, r, cap):
    """Compare the three sweeps, serial and threaded, with naive_extremes;
    return the grid minimum and maximum."""
    (lo, lo_hits, lo_ties), (hi, hi_hits, hi_ties) = naive_extremes(f, r, cap)
    for threads in (1, 3):
        low = grid_minimize(f, r, threads=threads, minimizer_cap=cap)
        high = grid_maximize(f, r, threads=threads, minimizer_cap=cap)
        assert (low.value, low.minimizers, low.tie_count) == (lo, lo_hits, lo_ties)
        assert (high.value, high.minimizers, high.tie_count) == (hi, hi_hits, hi_ties)
        assert low.evaluations == high.evaluations == composition_count(f.n, r)
        assert grid_extrema(f, r, threads=threads, minimizer_cap=cap) == (low, high)
    return lo, hi


def test_rows_longer_than_degree_use_differences():
    # n = 2 is a single row of length r + 1; r = 12 runs the difference path at d = 4
    f = HomogeneousPolynomial(2, 4, {(4, 0): 3, (3, 1): -7, (1, 3): 5, (0, 4): -1, (2, 2): 2})
    expected = naive_extremes(f, 12, 16)
    low, high = grid_minimize(f, 12), grid_maximize(f, 12)
    assert [(x.value, x.minimizers, x.tie_count) for x in (low, high)] == expected


def test_polynomials_sharing_a_support_sweep_independently():
    # the engine reuses its tables per (support, r); coefficients must not leak between calls
    f = HomogeneousPolynomial(4, 3, {(3, 0, 0, 0): 2, (1, 1, 1, 0): -9, (0, 0, 1, 2): 5})
    g = poly_scale(f, Fraction(-3, 7))
    for r in (2, 6):
        for h in (f, g, f):
            expected = naive_extremes(h, r, 16)
            got = [grid_minimize(h, r), grid_maximize(h, r)]
            assert [(x.value, x.minimizers, x.tie_count) for x in got] == expected


def test_power_of_sum_ties_everywhere():
    f = power_of_sum(5, 3, Fraction(-1, 2))
    for cap in (1, 16):
        for res in (grid_minimize(f, 6, minimizer_cap=cap), grid_maximize(f, 6, minimizer_cap=cap)):
            assert res.value == Fraction(-1, 2)
            assert res.tie_count == res.evaluations == composition_count(5, 6)
            assert res.minimizers == tuple(list(compositions(5, 6))[:cap])


# --- closed-form rows of degree <= 2 ------------------------------------------------


def _quadratic_row(t0, t1, t2, s):
    """h(v) = t0 + t1 v + t2 v(v - 1)/2 at v = 0..s."""
    return [t0 + t1 * v + t2 * v * (v - 1) // 2 for v in range(s + 1)]


def test_closed_form_row_matches_add_row_exhaustively():
    # every row with differences t in [-3, 3]^3 and s = 1..6, both sides, caps 1
    # and 16, from starts below, at and above its extreme, then a second row
    # (t2, t0, t1) fed to the same extreme, so the state carries over
    ts = range(-3, 4)
    cases = 0
    for t0 in ts:
        for t1 in ts:
            for t2 in ts:
                for s in range(1, 7):
                    first = _quadratic_row(t0, t1, t2, s)
                    second = _quadratic_row(t2, t0, t1, s)
                    for pick in (min, max):
                        for cap in (1, 16):
                            for start in (-60, pick(first) - 1, pick(first), pick(first) + 1, 60):
                                want = grid._Extreme(pick, cap, start)
                                got = grid._Extreme(pick, cap, start)
                                want.add_row(first, (0,), s)
                                got.add_quadratic(t0, t1, t2, (0,), s)
                                assert (got.value, got.points, got.ties) == \
                                    (want.value, want.points, want.ties)
                                want.add_row(second, (1,), s)
                                got.add_quadratic(t2, t0, t1, (1,), s)
                                assert (got.value, got.points, got.ties) == \
                                    (want.value, want.points, want.ties)
                                cases += 1
    assert cases == 7**3 * 6 * 2 * 2 * 5


def test_closed_form_row_matches_add_row_on_every_part_of_the_row():
    # an orbit sweep reads the points v = lo..hi of a row: every part of every
    # row with differences t in [-2, 2]^3 and s = 1..5, both sides, from starts
    # below, at and above its extreme, against add_row on those values
    ts = range(-2, 3)
    cases = 0
    for t0 in ts:
        for t1 in ts:
            for t2 in ts:
                for s in range(1, 6):
                    row = _quadratic_row(t0, t1, t2, s)
                    for lo in range(s + 1):
                        for hi in range(lo, s + 1):
                            part = row[lo:hi + 1]
                            for pick in (min, max):
                                for start in (pick(part) - 1, pick(part), pick(part) + 1):
                                    want = grid._Extreme(pick, 16, start)
                                    got = grid._Extreme(pick, 16, start)
                                    want.add_row(part, (0,), s, lo)
                                    got.add_quadratic(t0, t1, t2, (0,), s, lo, hi)
                                    assert (got.value, got.points, got.ties) == \
                                        (want.value, want.points, want.ties)
                                    cases += 1
    assert cases == 5**3 * sum((s + 1) * (s + 2) // 2 for s in range(1, 6)) * 2 * 3


@st.composite
def row_quadratic_polynomials(draw):
    """(f, r) whose rows have degree e <= 2: any d <= 2, or n >= 3 and d 3-4 with
    the last two variables of every monomial of degree at most 2 together."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 2 if n == 2 else 4))
    coeffs = {}
    for _ in range(draw(st.integers(1, 6))):
        if n == 2:
            alpha = draw(exponent_tuples(2, d))
        else:
            q = draw(st.integers(0, min(2, d)))
            alpha = draw(exponent_tuples(n - 2, d - q)) + draw(exponent_tuples(2, q))
        coeffs[alpha] = draw(st.integers(-9, 9).filter(bool))
    f = poly_scale(HomogeneousPolynomial(n, d, coeffs), draw(st.sampled_from((1, Fraction(-2, 3)))))
    work = max(1, len(f.coeffs))
    r = draw(st.integers(1, 12).filter(lambda r: composition_count(f.n, r) * work <= 20000))
    return f, r


@settings(max_examples=100, deadline=None)
@given(row_quadratic_polynomials(), st.sampled_from((1, 16)))
def test_closed_form_rows_match_naive_oracle(case, cap):
    f, r = case
    assert grid._shape(tuple(f.coeffs), f.n, f.d).e <= 2
    _check_against_naive_oracle(f, r, cap)
    for picks in ((min,), (max,), (min, max)):
        evaluated, pruned = _evaluated_and_pruned(f, r, cap, picks)
        assert evaluated + pruned == composition_count(f.n, r)


# --- certified pruning ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(engine_cases(), st.sampled_from((1, 16)))
def test_pruned_engine_matches_naive_oracle_with_every_node_bounded(case, cap):
    # the gate admits every node of depth 1..n-3; the results must not change
    f, r = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid, "_BOUND_ENTRIES_PER_POINT", 10**9)
        _check_against_naive_oracle(f, r, cap)
        for picks in ((min,), (max,), (min, max)):
            evaluated, pruned = _evaluated_and_pruned(f, r, cap, picks)
            assert evaluated + pruned == composition_count(f.n, r)


def _evaluated_and_pruned(f, r, cap, picks):
    """Points the engine evaluated (rows and single points) and points it pruned,
    for one serial sweep."""
    _, _, evaluated, pruned = _counted_sweep(f, r, 1, cap, picks)
    return evaluated, pruned


class _NodeTests:
    """Records every node test of the sweeps run while patched in, as (depth,
    budget, beaten, stepped): _Shape.beaten from the node's coefficients, or
    _Shape.skip from stepped ones, which also tests rows, the nodes of depth
    n - 2, and must return the points under the node or 0."""

    def __init__(self):
        self.calls = []

    def patch(self, patch):
        beaten, skip = grid._Shape.beaten, grid._Shape.skip

        def counted_beaten(shape, k, coeffs, s, low, high, w):
            result = beaten(shape, k, coeffs, s, low, high, w)
            self.calls.append((k, s, result, False))
            return result

        def counted_skip(shape, k, p, s, low, high, pack):
            result = skip(shape, k, p, s, low, high, pack)
            assert result in (0, comb(s + shape.n - k - 1, shape.n - k - 1))
            self.calls.append((k, s, result > 0, True))
            return result

        patch.setattr(grid._Shape, "beaten", counted_beaten)
        patch.setattr(grid._Shape, "skip", counted_skip)


def _counted_sweep(f, r, threads, cap, picks, tests=None):
    """grid._sweep's extremes, L*r^d and pruned count, with the points its chunk
    scans evaluated (rows, closed-form rows of s + 1 points, and single points)
    counted in before the pruned count; the merge of the chunks is not counted.
    The pruned count must be the points under the nodes that a node test beat,
    recorded in tests (a _NodeTests) when given."""
    evaluated = []
    tests = tests or _NodeTests()
    earlier = len(tests.calls)
    scanning = threading.local()
    add_row, absorb, scan = grid._Extreme.add_row, grid._Extreme.absorb, grid._scan
    add_quadratic = grid._Extreme.add_quadratic

    def counted_row(ext, values, prefix, s, lo=0):
        if ext.pick is picks[0]:
            evaluated.append(len(values))
        add_row(ext, values, prefix, s, lo)

    def counted_quadratic(ext, t0, t1, t2, prefix, s, lo=0, hi=None):
        if ext.pick is picks[0]:
            evaluated.append((s if hi is None else hi) - lo + 1)
        add_quadratic(ext, t0, t1, t2, prefix, s, lo, hi)

    def counted_point(ext, value, ties, points):
        if ext.pick is picks[0] and getattr(scanning, "on", False):
            evaluated.append(ties)
        absorb(ext, value, ties, points)

    def counted_scan(*args):
        scanning.on = True
        try:
            return scan(*args)
        finally:
            scanning.on = False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid._Extreme, "add_row", counted_row)
        patch.setattr(grid._Extreme, "add_quadratic", counted_quadratic)
        patch.setattr(grid._Extreme, "absorb", counted_point)
        patch.setattr(grid, "_scan", counted_scan)
        tests.patch(patch)
        extremes, denominator, pruned = grid._sweep(grid._Plan(f, [r], threads, None), r, cap, picks)
    certified = sum(comb(s + f.n - k - 1, f.n - k - 1) for k, s, beaten, _ in tests.calls[earlier:] if beaten)
    assert certified == pruned
    return extremes, denominator, sum(evaluated), pruned


def test_default_gate_prunes_and_keeps_the_count():
    f = fixed_quartic()
    for picks in ((min,), (max,), (min, max)):
        evaluated, pruned = _evaluated_and_pruned(f, 80, 16, picks)
        assert pruned > 0, picks
        assert evaluated + pruned == composition_count(4, 80)
    # a spot check of the pruned sweep against the naive oracle, at a smaller r
    assert [(x.value, x.minimizers, x.tie_count) for x in grid_extrema(f, 24)] == \
        naive_extremes(f, 24, 16)


def test_quadratic_bound_prunes_interior_minimizers():
    # pinned pruned counts of grid_minimize; the plain Bernstein bound pruned
    # 69688 (Petersen) and 62726 (sum x_i^2) of these grids
    cases = ((motzkin_straus_form(petersen()), 10, Fraction(13, 50), 86093),
             (sum_of_squares(8), 14, Fraction(13, 98), 113187))
    for f, r, value, want in cases:
        evaluated, pruned = _evaluated_and_pruned(f, r, 16, (min,))
        assert pruned == want
        assert evaluated + pruned == composition_count(f.n, r)
        assert grid_minimize(f, r).value == value


def test_a_node_s_own_coefficients_prune_a_dense_sweep():
    # a dense quartic in 7 variables at r = 9: no run of bounded children is
    # longer than d + 1, so nothing is stepped, and every prune comes from
    # beaten on a node's own coefficients; without it none of these 4291 goes
    f = random_polynomial(random.Random(8), 7, 4)
    tests = _NodeTests()
    _, _, evaluated, pruned = _counted_sweep(f, 9, 1, 16, (min,), tests)
    assert (pruned, evaluated + pruned) == (4291, comb(15, 9))
    assert tests.calls and not any(stepped for _, _, _, stepped in tests.calls)
    _check_against_naive_oracle(f, 9, 16)


@st.composite
def table_supports(draw):
    """(suffixes, m, d) of a Bernstein table: a node's distinct suffixes of
    degree at most d with m <= 8 and d <= 6, a few sparse suffixes in 9-40
    variables, or the exponents of a polynomial at an elevation k <= 3."""
    kind = draw(st.sampled_from(("node", "sparse", "elevation")))
    if kind == "elevation":
        f = draw(polynomials(max_n=5, max_d=3))
        return list(f.coeffs), f.n, f.d + draw(st.integers(0, 3))
    if kind == "node":
        m, d, most = draw(st.integers(1, 8)), draw(st.integers(1, 6)), 10
        suffix = st.integers(0, d).flatmap(lambda e: exponent_tuples(m, e))
    else:
        m, d, most = draw(st.integers(9, 40)), draw(st.integers(1, 4)), 3
        suffix = st.builds(
            lambda cells: tuple(sum(b for j, b in cells if j == i) for i in range(m)),
            st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, 2)), max_size=2),
        ).filter(lambda sigma: sum(sigma) <= d)
    return draw(st.lists(suffix, min_size=1, max_size=most, unique=True)), m, d


@settings(max_examples=150, deadline=None)
@given(table_supports())
def test_bernstein_tables_equal_the_oracle_builders(support):
    # the same columns, each with the same fields and weights in the same
    # order, and the same sizes in the same field order
    suffixes, m, d = support
    assert grid._bernstein_columns(suffixes, m, d) == bernstein_columns_oracle(suffixes, m, d)


def test_compositions_list_every_kappa_in_lex_order():
    for m, e in ((1, 0), (1, 3), (3, 0), (3, 4), (6, 3), (30, 2)):
        unit = [(e + 1) ** j for j in range(m)]
        kappas = list(compositions(m, e))
        assert grid._compositions(m, e, unit) == [
            (sum(map(int.__mul__, kappa, unit)), multinomial(e, kappa),
             tuple((j, b) for j, b in enumerate(kappa) if b))
            for kappa in sorted(kappas)
        ]


@st.composite
def bernstein_nodes(draw):
    """(suffixes, coefficients, m, d, s) of a node: distinct exponent vectors of
    length m and degree at most d, not necessarily homogeneous.  Half are
    quadratic, with m up to 6 and up to every suffix, to reach the sharper
    bound of degree-2 nodes."""
    if draw(st.booleans()):
        m, d, most = draw(st.integers(1, 6)), 2, 28
    else:
        m, d, most = draw(st.integers(1, 4)), draw(st.integers(1, 4)), 8
    pool = [alpha for e in range(d + 1) for alpha in compositions(m, e)]
    suffixes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=most, unique=True))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=len(suffixes), max_size=len(suffixes)))
    return suffixes, coeffs, m, d, draw(st.integers(1, 8))


class _Incumbent:
    def __init__(self, value):
        self.value = value


@settings(max_examples=300, deadline=None)
@given(bernstein_nodes())
def test_bernstein_bound_encloses_every_value_of_the_subtree(node):
    suffixes, coeffs, m, d, s = node
    columns, sizes = grid._bernstein_columns(suffixes, m, d)
    under = {g: tuple(i for i, sigma in enumerate(suffixes) if all(map(int.__le__, sigma, g)))
             for g in compositions(m, d)}
    vertices = [tuple(d * (j == i) for j in range(m)) for i in range(m)]
    others = [g for g in under if g not in vertices]
    missing = any(not under[g] for g in others)
    # the m vertex fields in coordinate order, then one field per other g
    # that some suffix lies under, in the order the suffixes, each over its
    # kappa in ascending lex order, first reach it, then one empty field of
    # size 2 if and only if some other g has none
    field, expected = {g: j for j, g in enumerate(vertices)}, []
    for sigma in suffixes:
        kappas = sorted(compositions(m, d - sum(sigma)))
        gs = [tuple(map(int.__add__, sigma, kappa)) for kappa in kappas]
        expected.append(([field.setdefault(g, len(field)) for g in gs],
                         [multinomial(d - sum(sigma), kappa) for kappa in kappas]))
    assert columns == expected
    assert sizes == [multinomial(d, g) for g in field] + [2] * missing
    fields = [tuple(i for i, (index, _) in enumerate(columns) if j in index) for j in range(len(sizes))]
    assert fields == [under[g] for g in field] + [()] * missing
    assert sum(len(index) for index, _ in columns) == \
        grid._table_entries(m, d, list(map(sum, suffixes)))
    ps = [0] * len(sizes)
    for c, sigma, (index, weights) in zip(coeffs, suffixes, columns):
        for j, w in zip(index, weights):
            ps[j] += c * s ** sum(sigma) * w
    quotients = list(map(Fraction, ps, sizes))
    assert sorted(quotients) == sorted(
        [_coefficient(suffixes, coeffs, d, s, g) for g in vertices + [g for g in others if under[g]]]
        + [Fraction(0)] * missing
    )
    values = [
        sum(c * prod(y_j**a for y_j, a in zip(y, sigma)) for c, sigma in zip(coeffs, suffixes))
        for y in compositions(m, s)
    ]
    assert min(quotients) <= min(values) and max(values) <= max(quotients)

    shape = object.__new__(grid._Shape)  # only what beaten and its node test read
    shape.n, shape.d = m, d
    shape.tails = [tuple((i, sum(sigma)) for i, sigma in enumerate(suffixes) if not any(sigma[:-1]))]
    shape.power = {s: tuple(s**b for b in range(d + 1))}
    # a width that holds every p_g and every tested field below
    w = (8 * (sum(map(abs, coeffs)) + 1) * (s * m + 1) ** (2 * d)).bit_length() + 1
    shape.packs = {(0, w): grid._Packing(w, 0, tuple(map(sum, suffixes)), columns, sizes)}
    beaten = lambda low, high: shape.beaten(0, coeffs, s, low, high, w)
    # an attained value is never beaten, on either side
    assert not beaten(_Incumbent(min(values)), None)
    assert not beaten(None, _Incumbent(max(values)))
    assert not beaten(_Incumbent(min(values)), _Incumbent(max(values)))
    # and an incumbent strictly beyond every quotient is
    below, above = floor(min(quotients)) - 1, ceil(max(quotients)) + 1
    assert beaten(_Incumbent(below), None) and beaten(None, _Incumbent(above))
    assert beaten(_Incumbent(below), _Incumbent(above))
    if d != 2:
        return
    # the quadratic bound lies between the least quotient and the least value,
    # and it alone decides beaten, missing rows or not
    low_bound = _diagonal_bound(suffixes, coeffs, m, s)
    high_bound = -_diagonal_bound(suffixes, [-c for c in coeffs], m, s)
    assert min(quotients) <= low_bound <= min(values)
    assert max(values) <= high_bound <= max(quotients)
    lows = {floor(low_bound) + i for i in (-1, 0, 1)} | {min(values) - 1, 0}
    highs = {ceil(high_bound) + i for i in (-1, 0, 1)} | {max(values) + 1, 0}
    for lo in lows:
        assert beaten(_Incumbent(lo), None) == (lo < low_bound)
        for hi in highs:
            assert beaten(None, _Incumbent(hi)) == (hi > high_bound)
            assert beaten(_Incumbent(lo), _Incumbent(hi)) == (lo < low_bound and hi > high_bound)


def _coefficient(suffixes, coeffs, d, s, g):
    """The Bernstein coefficient p_g / multinomial(d, g) of a node, from the
    definition: 0 for a g no suffix lies under."""
    p = sum(c * s ** sum(sigma) * multinomial(d - sum(sigma), tuple(map(int.__sub__, g, sigma)))
            for sigma, c in zip(suffixes, coeffs) if all(map(int.__le__, sigma, g)))
    return Fraction(p, multinomial(d, g))


def _diagonal_bound(suffixes, coeffs, m, s):
    """h + 1/sum_i 1/(V_i - h) for the quadratic node, from its Bernstein
    coefficients taken one g at a time (_coefficient), where h is the least
    edge coefficient and V_i the vertex ones; the least vertex coefficient
    when some V_i <= h."""
    vertices = [_coefficient(suffixes, coeffs, 2, s, g) for g in compositions(m, 2) if max(g) == 2]
    h = min((_coefficient(suffixes, coeffs, 2, s, g) for g in compositions(m, 2) if max(g) == 1),
            default=None)
    if h is None or min(vertices) <= h:
        return min(vertices)
    return h + 1 / sum(1 / (v - h) for v in vertices)


def test_sparse_many_variable_table_costs_its_entries():
    # x_40^6: at depth k one suffix of degree 6 lies under one g of the
    # C(45 - k, 6) in I(40 - k, 6), the last vertex; the table keeps that
    # field, an empty field for each other vertex and one for every other g
    f = HomogeneousPolynomial(40, 6, {(0,) * 39 + (6,): Fraction(1)})
    assert _check_against_naive_oracle(f, 2, 16) == (0, 1)
    shape = grid._shape(tuple(f.coeffs), 40, 6)
    assert shape.tables
    for k, (degrees, columns, sizes) in shape.tables.items():
        m = 40 - k
        assert (degrees, columns, sizes) == ((6,), [([m - 1], [1])], [1] * m + [2])
        assert sum(len(index) for index, _ in columns) == shape.entries[k] == 1


def test_a_node_its_last_vertex_keeps_builds_no_table():
    # x_0 at r = 1 over 300 variables: the walk goes down alpha_0 = ... = 0, one
    # node per depth, and each node's lex-first point ties the start 0; the max
    # side prunes everything below alpha_0 = 1 with one table, sparse in g
    n = 300
    f = HomogeneousPolynomial(n, 1, {(1,) + (0,) * (n - 1): 1})
    grid._shape.cache_clear()
    low = grid_minimize(f, 1)
    assert (low.value, low.tie_count) == (0, n - 1)
    shape = grid._shape(tuple(f.coeffs), n, 1)
    assert shape.tables == {}
    high = grid_maximize(f, 1)
    assert (high.value, high.minimizers) == (1, ((1,) + (0,) * (n - 1),))
    assert list(shape.tables) == [1]


@settings(max_examples=60, deadline=None)
@given(polynomials(max_n=6, max_d=4))
def test_tails_are_the_last_vertex_row(f):
    # tails[k] lists the suffixes in the field of g = d e_{m-1} of the depth-k
    # table, each of weight 1, read without it
    if f.n < 4:  # no node is bounded
        return
    shape = grid._Shape(tuple(f.coeffs), f.n, f.d)
    for k in range(1, f.n - 2):
        degrees, columns, sizes = shape.tables[k]
        last = f.n - k - 1
        under = [(i, weights[index.index(last)]) for i, (index, weights) in enumerate(columns)
                 if last in index]
        assert (sizes[last], {weight for _, weight in under} | {1}) == (1, {1})
        assert shape.tails[k] == tuple((i, degrees[i]) for i, _ in under)


def test_sparse_quadratic_reaches_the_quadratic_bound_at_depth_1():
    # x_0 x_1 + x_2^2 + x_3^2 + x_4^2 at r = 20, minimum 0: its depth-1 table
    # has no row for most edges (p_g = 0), so every depth-1 node with
    # x_0 = a >= 1 has the quadratic bound 1/(1/(a s) + 3/s^2) > 0 and goes;
    # a test that refused any node with a missing row pruned 8835, none at depth 1.
    # x_0^2 is absent, so the sweep starts from the vertex value 0, the minimum:
    # the a = 0 node holds (0, 20, 0, 0, 0) and is tested but kept, and every
    # node without a zero point goes, so only the two zeros are evaluated and
    # C(24, 4) - 2 = 10624 points are pruned (8854 when the sweep started from
    # its first point)
    # the root steps its depth-1 children, so skip tests them from stepped
    # coefficients, all of them but a = 20, a single point
    f = load_polynomial(str(DATA_DIR / "sparse_quadratic_n5.json"))
    tests = _NodeTests()
    _, _, evaluated, pruned = _counted_sweep(f, 20, 1, 16, (min,), tests)
    depth_1 = [(s, beaten) for k, s, beaten, _ in tests.calls if k == 1]
    assert (pruned, evaluated + pruned) == (10624, comb(24, 4))
    assert depth_1 == [(20, False)] + [(20 - a, True) for a in range(1, 20)]
    assert {stepped for k, _, _, stepped in tests.calls if k == 1} == {True}
    low = grid_minimize(f, 20)
    assert (low.value, low.minimizers, low.tie_count) == (0, ((0, 20, 0, 0, 0), (20, 0, 0, 0, 0)), 2)


# --- the vertex start ---------------------------------------------------------------


def _check_start(f, r, picks=(min, max)):
    """Sweep f at r with threads 1, 2 and 8, caps 1 and 16, and the default
    gate or every node bounded, against naive_extremes, and check that every
    point is evaluated or pruned; return the serial pruned count at cap 16
    with every node bounded."""
    naive = dict(zip((min, max), naive_extremes(f, r, 16)))
    for bounded in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if bounded:
                patch.setattr(grid, "_BOUND_ENTRIES_PER_POINT", 10**9)
            for threads in (1, 2, 8):
                for cap in (1, 16):
                    extremes, denominator, evaluated, pruned = _counted_sweep(f, r, threads, cap, picks)
                    got = [(Fraction(x.value, denominator), tuple(x.points), x.ties) for x in extremes]
                    assert got == [(v, hits[:cap], ties) for v, hits, ties in map(naive.get, picks)]
                    assert evaluated + pruned == composition_count(f.n, r)
    return pruned


@settings(max_examples=100, deadline=None)
@given(engine_cases(), st.sampled_from((1, 2, 8)), st.sampled_from((1, 16)),
       st.sampled_from(((min,), (max,), (min, max))), st.booleans())
def test_sweeps_from_the_best_vertex_match_naive_oracle(case, threads, cap, picks, bounded):
    f, r = case
    naive = dict(zip((min, max), naive_extremes(f, r, cap)))
    with pytest.MonkeyPatch.context() as patch:
        if bounded:
            patch.setattr(grid, "_BOUND_ENTRIES_PER_POINT", 10**9)
        extremes, denominator, evaluated, pruned = _counted_sweep(f, r, threads, cap, picks)
    got = [(Fraction(x.value, denominator), tuple(x.points), x.ties) for x in extremes]
    assert got == [naive[pick] for pick in picks]
    assert evaluated + pruned == composition_count(f.n, r)


def _unit(n, *powers):
    """The exponent tuple with the given (coordinate, exponent) pairs."""
    alpha = [0] * n
    for i, b in powers:
        alpha[i] = b
    return tuple(alpha)


def test_start_finds_a_unique_minimizer_at_the_lex_last_vertex():
    # -x_0^2 + x_1^2 + x_2^2 + x_3^2 >= -x_0^2 >= -1, equal only at e_0; the
    # lex walk reaches (r, 0, 0, 0) last, and the start prunes before it
    f = HomogeneousPolynomial(4, 2, {_unit(4, (0, 2)): -1, **{_unit(4, (i, 2)): 1 for i in (1, 2, 3)}})
    assert sorted(grid._vertex_values({a: int(c) for a, c in f.coeffs.items()}, 4, 2)) == [-1, 1, 1, 1]
    assert _check_start(f, 12, (min,)) > 0
    low = grid_minimize(f, 12)
    assert (low.value, low.minimizers, low.tie_count) == (-1, ((12, 0, 0, 0),), 1)


def test_start_from_a_vertex_above_the_minimum():
    # sum x_i^2: every vertex is 1, the minimum 1/4 is interior; the max side
    # starts at its value, attained at all four vertices
    f = sum_of_squares(4)
    _check_start(f, 8)
    low, high = grid_extrema(f, 8)
    assert (low.value, low.tie_count) == (Fraction(1, 4), 1)
    assert (high.value, high.tie_count) == (1, 4)


def test_start_with_every_vertex_tied_at_the_minimum():
    f = poly_scale(sum_of_squares(4), -1)
    _check_start(f, 9)
    low = grid_minimize(f, 9)
    assert low.value == -1 and low.tie_count == 4
    assert low.minimizers == ((0, 0, 0, 9), (0, 0, 9, 0), (0, 9, 0, 0), (9, 0, 0, 0))


def test_start_is_zero_without_a_pure_power():
    # no x_i^d, so every vertex is 0: below the maximum and above the minimum
    # of x_0 x_1 - x_2 x_3, and the minimum of x_0 x_1 x_2 + x_1 x_3^2, tied
    # at many points
    cases = (HomogeneousPolynomial(4, 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}),
             HomogeneousPolynomial(4, 3, {(1, 1, 1, 0): 1, (0, 1, 0, 2): 1}))
    for f in cases:
        assert grid._vertex_values({a: int(c) for a, c in f.coeffs.items()}, 4, f.d) == [0]
        _check_start(f, 10)
    assert grid_minimize(cases[0], 10).value == Fraction(-1, 4)
    assert grid_maximize(cases[0], 10).value == Fraction(1, 4)
    assert grid_minimize(cases[1], 10).tie_count > 1


def test_a_chunk_with_nothing_as_good_as_the_start_merges_as_the_start(monkeypatch):
    # x_0^2 + x_1^2 + x_2^2 - x_3^2: the minimum -1 is the lex-first point
    # (0, 0, 0, r), so every --threads 8 chunk after the first finds no point as
    # good as the start and returns it with 0 ties and no points
    f = HomogeneousPolynomial(4, 2, {**{_unit(4, (i, 2)): 1 for i in (0, 1, 2)}, _unit(4, (3, 2)): -1})
    r = 12
    partials = []
    scan = grid._scan

    def recorded(*args):
        tracked, pruned = scan(*args)
        partials.append([(x.value, x.ties, list(x.points)) for x in tracked])
        return tracked, pruned

    monkeypatch.setattr(grid, "_scan", recorded)
    low = grid_minimize(f, r, threads=8)
    start = -r * r
    assert len(partials) == len(grid._alpha0_chunks(4, r, 8)) == 7
    assert partials[0] == [(start, 1, [(0, 0, 0, r)])]
    assert all(part == [(start, 0, [])] for part in partials[1:])
    assert (low.value, low.minimizers, low.tie_count) == (-1, ((0, 0, 0, r),), 1)
    assert low == grid_minimize(f, r)
    monkeypatch.undo()
    _check_start(f, r)


# --- stepped siblings and anchored forms ---------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(anchored_points), st.integers(0, 2), st.integers(1, 7))
def test_anchored_closed_form_matches_naive_oracle(q, k, r):
    assert anchored_extremes(q, r, 16) == naive_extremes(anchored_form(q, k), r, 16)


def _check_anchored(q, k, r, threads=1, cap=16, picks=(min, max)):
    """Sweep f_{q,k} at r against anchored_extremes, check that every point is
    evaluated or pruned, and return the node tests of the sweep (_NodeTests)."""
    f = anchored_form(q, k)
    want = dict(zip((min, max), anchored_extremes(q, r, cap)))
    tests = _NodeTests()
    extremes, denominator, evaluated, pruned = _counted_sweep(f, r, threads, cap, picks, tests)
    assert [(Fraction(x.value, denominator), tuple(x.points), x.ties) for x in extremes] == \
        [want[pick] for pick in picks]
    assert evaluated + pruned == composition_count(f.n, r)
    return tests


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 4).flatmap(anchored_points), st.integers(1, 4), st.integers(40, 80),
       st.sampled_from(((min,), (max,), (min, max))))
def test_stepped_sweeps_match_the_anchored_oracle(q, k, r, picks):
    # d = 3..6 on grids far past the naive oracle, where the walk steps its
    # siblings: the root's children on n = 3, its depth-1 nodes on n = 4
    if len(q) == 4:
        r = r * 3 // 4
    tests = _check_anchored(q, k, r, picks=picks)
    assert any(stepped for _, _, _, stepped in tests.calls)


def test_the_stepped_row_test_skips_and_keeps_rows_near_interior_minimizers():
    # the row test of degree >= 3 rows runs on stepped Bernstein coefficients
    # only; on these forms it fails often, as their minimizers are interior
    cases = (((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 1, 60),
             ((Fraction(1, 3),) * 3, 4, 80),
             ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)), 2, 80),
             ((Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)), 4, 40))
    for q, k, r in cases:
        for picks in ((min,), (min, max)):
            tests = _check_anchored(q, k, r, picks=picks)
            rows = {beaten for depth, _, beaten, stepped in tests.calls if depth == len(q) - 2 and stepped}
            assert rows == {False, True}, (q, k, r, picks)
            # a row is tested only when stepped
            assert not any(depth == len(q) - 2 and not stepped for depth, _, _, stepped in tests.calls)
    assert anchored_extremes(cases[1][0], 80, 16)[0][2] == 3  # tied minimizers


def test_pinned_pruned_counts_of_anchored_quartics():
    # the min side of f_{q,2} (d = 4) at the default gate, where the lex walk
    # meets the interior minimizer late and the node test is weak
    cases = (((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)), 201, 709722),
             ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 12), Fraction(1, 12)), 43, 133003))
    for q, r, want in cases:
        n = len(q)
        tests = _check_anchored(q, 2, r, picks=(min,))
        assert sum(comb(s + n - k - 1, n - k - 1) for k, s, beaten, _ in tests.calls if beaten) == want


def test_chunk_cuts_inside_stepped_runs():
    # n = 3, where the root is the row parent, and n = 4, at d = 3 and 4: a
    # chunk of alpha_0 starts its own stepped run of the root's children at its
    # first alpha_0 and stops it at its end, cut inside the run of one thread,
    # and the results do not depend on the cuts
    qs = {3: (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
          4: (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))}
    for n, q in qs.items():
        for k in (1, 2):
            r = (24 if n == 3 else 10) * (k + 3)  # long enough for 3 chunks to step
            f = anchored_form(q, k)
            results = []
            for threads in (1, 2, 3, 8):
                starts = []
                differences = grid._Shape.differences

                def recorded(shape, depth, coeffs, s, a, w):
                    if depth == 0:
                        starts.append(a)
                    return differences(shape, depth, coeffs, s, a, w)

                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(grid._Shape, "differences", recorded)
                    _check_anchored(q, k, r, threads)
                firsts = [first for first, _ in grid._alpha0_chunks(n, r, threads)]
                assert len(firsts) == threads
                if threads <= 3:
                    assert sorted(starts) == firsts
                else:
                    assert len(starts) >= 2 and set(starts) <= set(firsts)
                results.append(grid_extrema(f, r, threads=threads))
            assert len(set(results)) == 1


@settings(max_examples=40, deadline=None)
@given(polynomials(max_n=5, max_d=4, coef_bound=10**6),
       st.lists(st.integers(1, 16), min_size=2, max_size=5), st.integers(1, 3))
def test_one_plan_swept_at_many_r_gives_what_a_plan_per_r_gives(f, rs, threads):
    # converge sweeps one plan at every r: what depends on r (the starts, the
    # gates, the field width, the chunks) is made for each sweep, so each r
    # gets the values, minimizers and ties that grid_extrema's own plan gives
    plan = grid._Plan(f, rs, threads, None)
    for r in rs:
        (low, high), denominator, _ = grid._sweep(plan, r, grid.MINIMIZER_CAP)
        want = grid_extrema(f, r)
        assert [(Fraction(x.value, denominator), tuple(x.points), x.ties) for x in (low, high)] == \
            [(x.value, x.minimizers, x.tie_count) for x in want]
        assert plan.extremes(r) == (low.value, high.value, denominator)


def test_a_plan_swept_at_a_small_r_then_a_large_one_gives_the_large_grid():
    # the starts and the field width made at r = 2 are too small at r = 40: a
    # sweep that kept them would report a value that no point attains, or read
    # fields that overflowed (fixed_quartic prunes at r = 40)
    for f in (fixed_quartic(), sum_of_squares(4)):
        plan = grid._Plan(f, [2, 40], 1, None)
        for r in (2, 40):
            low, high, denominator = plan.extremes(r)
            want = grid_extrema(f, r)
            assert (Fraction(low, denominator), Fraction(high, denominator)) == \
                (want[0].value, want[1].value), r


def test_a_plan_sweeps_each_r_once_and_keeps_its_extremes(monkeypatch):
    # a second call at r reads the kept triple
    sweeps, sweep = [], grid._sweep
    monkeypatch.setattr(grid, "_sweep", lambda *args: sweeps.append(args[1]) or sweep(*args))
    plan = grid._Plan(fixed_quartic(), [6, 3], 2, None)
    first = plan.extremes(6)
    assert plan.extremes(6) is first and sweeps == [6]
    other = plan.extremes(3)
    assert plan.grids == {6: first, 3: other} and sweeps == [6, 3]


@settings(max_examples=60, deadline=None)
@given(polynomials(max_n=4, max_d=4), st.integers(1, 10), st.integers(1, 3), st.data())
def test_a_plans_extremes_are_the_grid_extrema_times_l_r_d(f, r, threads, data):
    # coefficients over mixed denominators, so the scale L is not 1
    dens = data.draw(st.lists(st.integers(1, 12), min_size=len(f.coeffs), max_size=len(f.coeffs)))
    f = HomogeneousPolynomial(f.n, f.d, {alpha: c / q for (alpha, c), q in zip(f.coeffs.items(), dens)})
    scale = lcm(*(c.denominator for c in f.coeffs.values())) * r**f.d
    low, high = grid_extrema(f, r)
    assert grid._Plan(f, [r], threads, None).extremes(r) == (low.value * scale, high.value * scale, scale)


# --- packed stepping ----------------------------------------------------------------


def _packed(fields, w):
    """sum_j fields[j] 2^(w j), built independently of grid._Packing."""
    return sum(v << (w * j) for j, v in enumerate(fields))


@given(st.integers(2, 80), st.data())
def test_packed_fields_decode_back_at_the_width_limits(w, data):
    # an identity table (suffix i has weight 1 in field i) packs p through
    # the columns, and the row differences t below them through row_shifts
    edge = 2 ** (w - 1) - 1
    values = st.sampled_from((edge, -edge)) | st.integers(-edge, edge)
    t = data.draw(st.lists(values, max_size=5))
    p = data.draw(st.lists(values, max_size=8))
    pack = grid._Packing(w, len(t), (0,) * len(p), [([i], [1]) for i in range(len(p))], [1] * len(p))
    packed = sum(map(mul, p, pack.columns)) + sum(map(lshift, t, pack.row_shifts))
    assert packed == _packed(t + p, w)
    assert (pack.row(packed), pack.table(packed)) == (t, p)


def _skip_case(draw, d):
    """A shape over all of I(4, d), a tested depth k of it and a budget s, the
    running extremes (values or None), (p_g, size) pairs of that depth's
    table, some p_g at ties with an extreme, and a row's differences t below
    them at the row depth."""
    shape = grid._Shape(tuple(compositions(4, d)), 4, d)
    k = draw(st.sampled_from((1,) if d == 2 else (1, 2)))
    sizes = shape.tables[k][2]
    lo, hi = (draw(st.none() | st.integers(-40, 40)) for _ in range(2))
    ps = []
    for size in sizes:
        near = [x * size for x in (lo, hi) if x is not None]
        ps.append(draw(st.sampled_from(near) if near and draw(st.booleans()) else st.integers(-2000, 2000))
                  + draw(st.integers(-1, 1)))
    t = draw(st.lists(st.integers(-10**6, 10**6), min_size=shape.e + 1, max_size=shape.e + 1)) \
        if k == 2 else []
    return shape, k, draw(st.integers(1, 12)), lo, hi, list(zip(ps, sizes)), t


@given(st.sampled_from((2, 3, 4)), st.data())
def test_packed_skip_agrees_with_the_list_test(d, data):
    # p_g > lo*size and p_g < hi*size for every g, and the quadratic bound at
    # d = 2, with ties, untracked sides and negative extremes, at the least
    # width that holds every tested field and at wider ones
    shape, k, s, lo, hi, pairs, t = _skip_case(data.draw, d)
    ps = [p for p, _ in pairs]
    fields = t + ps + [p - x * size - 1 for x in (lo, hi) if x is not None for p, size in pairs]
    w = max(abs(v).bit_length() for v in fields) + 1 + data.draw(st.integers(0, 3))
    low = None if lo is None else grid._Extreme(min, 1, lo)
    high = None if hi is None else grid._Extreme(max, 1, hi)
    got = shape.skip(k, _packed(t + ps, w), s, low, high, shape.packs[k, w])
    assert got == (comb(s + 4 - k - 1, 4 - k - 1) if node_loses_oracle(pairs, 4 - k, d, lo, hi) else 0)


def _depth_suffixes(shape, k):
    """The exponent suffixes of the depth-k coefficients, in entry order,
    rebuilt from the row suffixes down the shape's links."""
    suffixes = shape.row_suffixes
    for lead, child in reversed(shape.links[k:]):
        suffixes = [(b,) + suffixes[j] for b, j in zip(lead, child)]
    return suffixes


def _node_coefficients(shape, root, r):
    """(depth, budget, coefficients) of every node of depth 1..n-2 of the
    prefix tree at denominator r."""
    n = shape.n
    frontier = [(root, r)]
    for k in range(n - 2):
        powers, width, extras, _ = shape.levels[k]
        frontier = [(grid._child(coeffs, powers[a], width, extras), s - a)
                    for coeffs, s in frontier for a in range(s + 1)]
        yield from ((k + 1, s, coeffs) for coeffs, s in frontier)


def _check_field_width(f, r):
    """Every node's Bernstein coefficients, a stepped row's differences, and
    each tested field against the extremes of largest size that a running
    extreme can take lie strictly inside the signed fields of the sweep's
    width."""
    if f.n < 3:
        f = HomogeneousPolynomial(3, f.d, {alpha + (0,) * (3 - f.n): c for alpha, c in f.coeffs.items()})
    scale, coeffs = grid._integer_form(f)
    shape = grid._Shape(tuple(coeffs), f.n, f.d)
    root = [coeffs[alpha] for alpha in shape.order]
    half = 2 ** (grid._field_width(root, f.n, f.d, r) - 1)
    # the docstring's bound on every field, B = 2 A (r (n - 1))^d + 1, fits
    assert 2 * sum(map(abs, root)) * (r * (f.n - 1)) ** f.d + 1 < half
    values = [sum(c * prod(a**b for a, b in zip(alpha, beta)) for beta, c in coeffs.items())
              for alpha in compositions(f.n, r)]
    extremes = (min(values), max(values))
    suffixes = [_depth_suffixes(shape, k) for k in range(f.n - 1)]
    tables = [bernstein_columns_oracle(suffixes[k], f.n - k, f.d) for k in range(f.n - 1)]
    for k, s, child in _node_coefficients(shape, root, r):
        pairs = node_coefficients_oracle(tables[k], suffixes[k], child, s)
        fields = [p for p, _ in pairs]
        tested = [p - x * size - 1 for x in extremes for p, size in pairs]
        if k == f.n - 2 and s > shape.e:
            fields += [sum(map(mul, child, w)) for w in shape.rows[s]]
        assert all(abs(v) < half for v in fields + tested)


@settings(max_examples=60, deadline=None)
@given(polynomials(max_n=5, max_d=4, coef_bound=10**6), st.integers(1, 8))
def test_the_field_width_holds_every_field_a_sweep_decodes_or_tests(f, r):
    _check_field_width(f, r)


def test_the_field_width_holds_a_dense_form_of_equal_coefficients():
    # all of I(n, d) with one coefficient: the node coefficients are as large
    # as the bound's terms allow at once
    for n, d, r in ((3, 4, 12), (4, 3, 9), (5, 2, 8)):
        _check_field_width(HomogeneousPolynomial(n, d, {alpha: -7 for alpha in compositions(n, d)}), r)


@given(polynomials(max_n=5, max_d=5), st.integers(6, 14))
def test_stepped_packed_children_decode_to_their_own_coefficients(f, r):
    # the root's children stepped from the packed differences at a = 0 decode,
    # child by child, to the Bernstein coefficients and row differences that
    # each child's own coefficients give; packing those own coefficients gives
    # the same table fields, and the node test the same verdict on both, and
    # on the child's own coefficients with its lex-first point first (beaten)
    if f.n < 3:
        f = HomogeneousPolynomial(3, f.d, {alpha + (0,) * (3 - f.n): c for alpha, c in f.coeffs.items()})
    _, coeffs = grid._integer_form(f)
    shape = grid._Shape(tuple(coeffs), f.n, f.d)
    root = [coeffs[alpha] for alpha in shape.order]
    row = f.n == 3
    w = grid._field_width(root, f.n, f.d, r)
    pack, steps = shape.differences(0, root, r, 0, w)
    powers, width, extras, _ = shape.levels[0]
    suffixes = _depth_suffixes(shape, 1)
    table = bernstein_columns_oracle(suffixes, f.n - 1, f.d)
    # running extremes are values at grid points: those of the children's lex-first points
    firsts = [sum(c * a ** alpha[0] * (r - a) ** alpha[-1] for alpha, c in coeffs.items() if not any(alpha[1:-1]))
              for a in range(r + 1)]
    extremes = [(lo, hi) for lo in (None, min(firsts), max(firsts)) for hi in (None, max(firsts), min(firsts))]
    for a in range(r - shape.e if row else r + 1):
        child, rest = grid._child(root, powers[a], width, extras), r - a
        if pack.columns:
            pairs = node_coefficients_oracle(table, suffixes, child, rest)
            own = pack.bernstein(child, shape.power[rest])
            assert pack.table(steps[0]) == pack.table(own) == [p for p, _ in pairs]
            for lo, hi in extremes:
                low = None if lo is None else grid._Extreme(min, 1, lo)
                high = None if hi is None else grid._Extreme(max, 1, hi)
                verdict = node_loses_oracle(pairs, f.n - 1, f.d, lo, hi)
                assert bool(shape.skip(1, steps[0], rest, low, high, pack)) == verdict
                assert bool(shape.skip(1, own, rest, low, high, pack)) == verdict
                if not row:
                    assert shape.beaten(1, child, rest, low, high, w) == verdict
        if row:
            assert pack.row(steps[0]) == [sum(map(mul, child, weights)) for weights in shape.rows[rest]]
        for j in range(f.d):
            steps[j] += steps[j + 1]


# --- one shape per support, its tables filled across r -----------------------------


@st.composite
def grown_sweeps(draw):
    """(f, denominators): a polynomial with n = 1..5 and the r it is swept at, in
    increasing, decreasing or any order, ending with the same r twice."""
    f = draw(polynomials(max_n=5, max_d=3))
    rs = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    order = draw(st.sampled_from(("increasing", "decreasing", "any")))
    if order != "any":
        rs.sort(reverse=order == "decreasing")
    return f, rs + rs[-1:]


def _sweeps(f, r):
    return grid_minimize(f, r), grid_maximize(f, r), grid_extrema(f, r)


def _eager_row(shape, s):
    """rows[s], built as the shape's docstring defines it from v^b (s - v)^c,
    independently of its power table."""
    values = [[v**b * (s - v) ** c for b, c in shape.row_suffixes] for v in range(min(s, shape.e) + 1)]
    if s <= shape.e:
        return tuple(values)
    deltas = []
    while values:
        deltas.append(values[0])
        values = [[y - x for x, y in zip(left, right)] for left, right in zip(values, values[1:])]
    return tuple(deltas)


def _entry(shape, table, key):
    """The entry at key of one of the shape's five tables, read as the walk
    reads it; a packing is given as its degrees, columns and sizes."""
    if table == "levels":
        k, a = key
        return shape.levels[k][0][a]
    entry = getattr(shape, table)[key]
    return (entry.degrees, entry.columns, entry.sizes) if table == "packs" else entry


def _eager_entry(shape, table, key):
    """That entry built from its definition, independently of the shape's
    builders: a Bernstein table by bernstein_columns_oracle, and a packing
    field by field (_packed)."""
    if table == "power":
        return tuple(key**b for b in range(shape.d + 1))
    if table == "levels":
        k, a = key
        return tuple(a**b for b in shape.links[k][0])
    if table == "rows":
        return _eager_row(shape, key)
    k = key if table == "tables" else key[0]
    suffixes = _depth_suffixes(shape, k)
    degrees = tuple(map(sum, suffixes))
    columns, sizes = bernstein_columns_oracle(suffixes, shape.n - k, shape.d)
    if table == "tables":
        return degrees, columns, sizes
    w, offset = key[1], (shape.e + 1 if k == shape.n - 2 else 0)
    if offset and shape.e <= 2:  # a row of degree e <= 2 is not tested: no table fields
        degrees, columns, sizes = (), [], []
    packed = [_packed([0] * offset + [dict(zip(index, weights)).get(j, 0) for j in range(len(sizes))], w)
              for index, weights in columns]
    return degrees, packed, _packed([0] * offset + sizes, w)


def _assert_eager(shape):
    """Every entry built so far in the shape's five tables equals that entry
    built from its definition (_eager_entry)."""
    for table in ("power", "rows", "tables", "packs"):
        for key in getattr(shape, table):
            assert _entry(shape, table, key) == _eager_entry(shape, table, key), (table, key)
    for k, (powers, *_) in enumerate(shape.levels):
        for a in powers:
            assert powers[a] == _eager_entry(shape, "levels", (k, a)), ("levels", k, a)


@settings(max_examples=60, deadline=None)
@given(grown_sweeps())
def test_a_grown_shape_sweeps_as_a_fresh_one(case):
    # one cached shape serves every r; what its sweeps at earlier r built
    # changes no later result, and every entry they built is the eager one
    f, rs = case
    fresh = {}
    for r in rs:
        grid._shape.cache_clear()
        fresh[r] = _sweeps(f, r)
    grid._shape.cache_clear()
    for r in rs:
        low, high, both = got = _sweeps(f, r)
        assert got == fresh[r]
        assert [(x.value, x.minimizers, x.tie_count) for x in (low, high)] == \
            naive_extremes(f, r, grid.MINIMIZER_CAP)
        assert both == (low, high)
    if f.n > 1:
        _assert_eager(grid._shape(tuple(f.coeffs), f.n, f.d))


def test_a_binary_form_keeps_no_row_table():
    # n = 2: the grid is one row, whose table each sweep builds for itself and
    # drops, so sweeps at r = 2..40 of a dense binary form of degree 200 keep
    # no more bits of row tables than the one of r = 40 holds; keeping every
    # table would hold 39 of them, 9.9e7 bits against 5.9e6
    f = random_polynomial(random.Random(0), 2, 200)
    grid._shape.cache_clear()
    for r in range(2, 41):
        low, high = grid_extrema(f, r)
        if r in (2, 17, 40):
            assert [(x.value, x.minimizers, x.tie_count) for x in (low, high)] == \
                naive_extremes(f, r, grid.MINIMIZER_CAP)
    shape = grid._shape(tuple(f.coeffs), 2, 200)
    bits = lambda tables: sum(x.bit_length() for table in tables for row in table for x in row)
    assert bits(shape.rows.values()) <= bits([shape.rows.build(40)])
    # sweeps of one grid agree however often, and in whatever order, they run
    g = strict_gap_poly()
    for r in (9, 3, 9, 16, 5):
        assert grid_extrema(g, r)[0] == grid_minimize(g, r)
    assert grid_minimize(g, 16).minimizers == ((7, 9),)


def _race(shape, orders, sweeps=()):
    """Run one thread per order, reading the shape's entries (table, key) in
    that order, and one per sweep (a callable), all at once with threads
    switched often, mid-build too; return what each reader saw, in its order,
    and what each sweep gave."""
    seen, swept = [[] for _ in orders], [None] * len(sweeps)

    def read(t):
        for table, key in orders[t]:
            seen[t].append((table, key, _entry(shape, table, key)))

    def sweep(i):
        swept[i] = sweeps[i]()

    workers = [threading.Thread(target=read, args=(t,)) for t in range(len(orders))]
    workers += [threading.Thread(target=sweep, args=(i,)) for i in range(len(sweeps))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for order, got in zip(orders, seen):
        assert [(table, key) for table, key, _ in got] == order
        assert all(entry == _eager_entry(shape, table, key) for table, key, entry in got)
    return swept


def test_concurrent_growth_never_shortens_a_table(monkeypatch):
    # sweeps at six r, run at once on one cached shape, give what they give
    # alone; each build of a table entry, racing, only adds to its table, and
    # the entries built are the entries built eagerly
    f = fixed_quartic()
    rs = (40, 7, 25, 3, 33, 12)
    serial = {}
    for r in rs:
        grid._shape.cache_clear()
        serial[r] = grid_extrema(f, r)
    lengths = []
    missing = grid._Lazy.__missing__

    def recorded(table, key):
        before = len(table)
        value = missing(table, key)
        lengths.append((key in table, before, len(table)))
        return value

    monkeypatch.setattr(grid._Lazy, "__missing__", recorded)
    grid._shape.cache_clear()
    shape = grid._shape(tuple(f.coeffs), f.n, f.d)
    swept = _race(shape, [], [lambda r=r: grid_extrema(f, r, threads=2) for r in rs])
    assert swept == [serial[r] for r in rs]
    assert lengths and all(kept and before <= after for kept, before, after in lengths)
    assert 0 < len(shape.rows) < max(rs)
    _assert_eager(shape)


@settings(max_examples=40, deadline=None)
@given(polynomials(max_n=5, max_d=4), st.integers(1, 30), st.randoms(use_true_random=False),
       st.integers(1, 4))
def test_rows_read_in_any_order_equal_rows_built_eagerly(f, r, rng, threads):
    # rows are built on their first read and kept; threads reading them in
    # their own orders, racing on each build, all see the rows built eagerly
    if f.n < 2:
        return
    shape = grid._Shape(tuple(f.coeffs), f.n, f.d)
    _race(shape, [[("rows", s) for s in rng.sample(range(1, r + 1), r)] for _ in range(threads)])
    assert sorted(shape.rows) == list(range(1, r + 1))
    _assert_eager(shape)


@settings(max_examples=40, deadline=None)
@given(polynomials(max_n=6, max_d=4), st.integers(1, 30), st.randoms(use_true_random=False),
       st.integers(1, 4))
def test_level_powers_read_in_any_order_equal_powers_built_eagerly(f, r, rng, threads):
    # a depth's powers a^b are built on their first read and kept; threads
    # reading them in their own orders, racing on each build, all see the
    # powers built eagerly
    if f.n < 3:
        return
    shape = grid._Shape(tuple(f.coeffs), f.n, f.d)
    keys = [("levels", (k, a)) for k in range(f.n - 2) for a in range(r + 1)]
    _race(shape, [rng.sample(keys, len(keys)) for _ in range(threads)])
    assert all(sorted(powers) == list(range(r + 1)) for powers, *_ in shape.levels)
    _assert_eager(shape)


@settings(max_examples=30, deadline=None)
@given(polynomials(max_n=6, max_d=4), st.integers(1, 16), st.randoms(use_true_random=False),
       st.integers(2, 4))
def test_tables_read_in_any_order_by_racing_threads_equal_tables_built_eagerly(f, r, rng, threads):
    # each of a shape's five tables builds an entry on its first read and
    # keeps it (grid._Lazy); threads that read the entries in their own
    # orders, while two sweeps of two threads each run on the same cached
    # shape, all racing on each build, see the entries built eagerly, and the
    # sweeps give what they give alone
    if f.n < 2:
        return
    n, rs = f.n, (r, r // 2 + 1)
    grid._shape.cache_clear()
    alone = [grid_extrema(f, x) for x in rs]
    grid._shape.cache_clear()
    shape = grid._shape(tuple(f.coeffs), n, f.d)
    keys = [("power", v) for v in range(r + 1)] + [("rows", s) for s in range(1, r + 1)]
    keys += [("levels", (k, a)) for k in range(n - 2) for a in range(r + 1)]
    keys += [("tables", k) for k in range(1, n - 1)]
    keys += [("packs", (k, w)) for k in range(1, n - 1) for w in (9, 40)]
    orders = [rng.sample(keys, len(keys)) for _ in range(threads)]
    assert _race(shape, orders, [lambda x=x: grid_extrema(f, x, threads=2) for x in rs]) == alone
    _assert_eager(shape)


def test_a_sweep_builds_only_the_level_powers_it_reads():
    # a stepped child's coefficients are built only when the walk descends
    # into it, so a sweep that prunes most of its grid reads few level powers
    f, r = random_polynomial(random.Random(0), 5, 3), 16
    grid._shape.cache_clear()
    low, high = grid_extrema(f, r)
    assert [(x.value, x.minimizers, x.tie_count) for x in (low, high)] == \
        naive_extremes(f, r, grid.MINIMIZER_CAP)
    shape = grid._shape(tuple(f.coeffs), f.n, f.d)
    built = sum(len(powers) for powers, *_ in shape.levels)
    assert 0 < built <= len(shape.levels) * (r + 1) // 2
    _assert_eager(shape)


# --- orbit sweeps ----------------------------------------------------------------


def test_blocks_are_the_runs_of_interchangeable_neighbours():
    u = lambda n, *powers: _unit(n, *powers)  # noqa: E731
    cases = (
        (sum_of_squares(4), ((0, 4),)),
        (sum_of_squares_family(5, 3, -1), ((0, 5),)),
        (HomogeneousPolynomial(3, 2, {u(3, (0, 2)): 1, u(3, (1, 2)): 1, u(3, (2, 2)): 2}), ((0, 2),)),
        (HomogeneousPolynomial(3, 2, {u(3, (0, 2)): 2, u(3, (1, 2)): 1, u(3, (2, 2)): 1}), ((1, 3),)),
        # x_0 and x_2 are interchangeable, but not neighbours: no block
        (HomogeneousPolynomial(3, 2, {u(3, (0, 2)): 1, u(3, (1, 2)): 2, u(3, (2, 2)): 1}), ()),
        # x_0 x_1 is fixed by the swap; x_2 x_3 - x_3^2 is not
        (HomogeneousPolynomial(4, 2, {u(4, (0, 1), (1, 1)): 1, u(4, (2, 1), (3, 1)): 1,
                                      u(4, (3, 2)): -1}), ((0, 2),)),
        (HomogeneousPolynomial(3, 3, {}), ((0, 3),)),
        (HomogeneousPolynomial(1, 3, {(3,): 2}), ()),
        (motzkin_straus_form(petersen()), ()),
        # the same support as sum x_i^2, one coefficient apart
        (HomogeneousPolynomial(3, 2, {u(3, (0, 2)): 1, u(3, (1, 2)): 1, u(3, (2, 2)): Fraction(3, 2)}),
         ((0, 2),)),
    )
    for f, blocks in cases:
        assert grid._Plan(f, [], 1, None).blocks == blocks, f


@settings(max_examples=150, deadline=None)
@given(block_symmetric_forms(max_n=6, max_d=4), st.data(), st.integers(1, 3), st.booleans())
def test_orbit_sweeps_match_the_naive_values_and_count_orbits(case, data, threads, bounded):
    # plan.extremes walks one point per orbit of the plan's blocks: its values
    # are the naive grid extremes, and its tie counts the orbits among the
    # naive tied points; a near miss has no blocks.  r is kept where the
    # Fraction oracle stays fast, as in engine_cases
    f, blocks, near = case
    work = max(1, len(f.coeffs))
    r = data.draw(st.integers(1, 12).filter(lambda r: composition_count(f.n, r) * work <= 20000))
    plan = grid._Plan(f, [r], threads, None)
    if near:
        assert plan.blocks == ()
    else:
        assert all(any(a <= first < stop <= b for a, b in plan.blocks) for first, stop in blocks)
    (low, _, _), (high, _, _) = naive_extremes(f, r, 0)
    top = plan.scale * r**f.d
    with pytest.MonkeyPatch.context() as patch:
        if bounded:
            patch.setattr(grid, "_BOUND_ENTRIES_PER_POINT", 10**9)
        assert plan.extremes(r) == (low * top, high * top, top)
        (lo, hi), denominator, _ = grid._sweep(plan, r, 0, (min, max), plan.blocks)
    assert (lo.ties, hi.ties) == naive_orbit_ties(f, r, plan.blocks)


def test_a_form_tied_everywhere_walks_one_point_per_orbit(monkeypatch):
    # (x_1 + ... + x_4)^2 is r^2 at every grid point, so every orbit ties: its
    # representatives are the partitions of r into at most 4 parts (OEIS
    # A001400), 64 at r = 16 and 351 at r = 32, against C(r + 3, 3) points
    f = power_of_sum(4, 2, 1)
    sweeps, sweep = [], grid._sweep
    monkeypatch.setattr(grid, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    for threads in (1, 2, 3):
        plan = grid._Plan(f, [16, 32], threads, None)
        assert plan.blocks == ((0, 4),)
        for r, orbits in ((16, 64), (32, 351)):
            assert plan.extremes(r) == (r * r, r * r, r * r)
            assert sweeps[-1][1:] == (r, 0, (min, max), ((0, 4),))
            assert [x.ties for x in grid._sweep(plan, r, 0, (min, max), plan.blocks)[0]] == [orbits] * 2
        full = grid._sweep(plan, 32, 0)[0]
        assert [x.ties for x in full] == [composition_count(4, 32)] * 2 == [6545] * 2


@pytest.mark.parametrize("q, k, r", [
    ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)), 1, 48),
    ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)), 2, 40),
    ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6)), 1, 40),
    ((Fraction(1, 5),) * 5, 1, 20),
    ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)), 2, 90),
])
def test_orbit_sweeps_step_their_runs_and_count_orbits(q, k, r):
    # anchored forms whose equal q_i make blocks, on grids long enough for the
    # walk to step its siblings: the values are anchored_extremes', and the
    # ties the orbits among all its tied points, for every thread count
    f = anchored_form(q, k)
    want = anchored_extremes(q, r, composition_count(f.n, r))
    differences, stepped = grid._Shape.differences, []

    def recorded(*args):
        stepped.append(args[1])
        return differences(*args)

    for threads in (1, 2, 3):
        plan = grid._Plan(f, [r], threads, None)
        assert plan.blocks and all(q[a] == q[b - 1] for a, b in plan.blocks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid._Shape, "differences", recorded)
            (lo, hi), denominator, _ = grid._sweep(plan, r, 0, (min, max), plan.blocks)
        got = [(Fraction(x.value, denominator), x.ties) for x in (lo, hi)]
        assert got == [(value, len({orbit_key(alpha, plan.blocks) for alpha in points}))
                       for value, points, _ in want]
    assert stepped


def test_plan_extremes_refuses_a_denominator_it_did_not_admit(monkeypatch):
    # the plan admitted 3 and 5 alone (grid._Plan); 4 is refused before any
    # sweep, and 3 is still swept once
    f = sum_of_squares(3)
    plan = grid._Plan(f, [3, 5], 1, None)
    sweeps, sweep = [], grid._sweep
    monkeypatch.setattr(grid, "_sweep", lambda *args: sweeps.append(args[1]) or sweep(*args))
    for r in (4, 0, 10**400):
        with pytest.raises(ValueError, match="did not admit the denominator"):
            plan.extremes(r)
    assert sweeps == []
    assert plan.extremes(3) == plan.extremes(3) == (3, 9, 9)
    assert sweeps == [3]
    with pytest.raises(ValueError, match="did not admit the denominator 2"):
        grid._Plan(f, [], 1, None).extremes(2)


# --- workers and guards -----------------------------------------------------------


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, runs jobs inline."""

    created: "list[int]" = []

    def __init__(self, max_workers):
        RecordingExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_fewer_than_one_thread_is_refused_before_any_work(monkeypatch):
    # the library refuses what `sgo --threads` refuses, before any work
    sizes = []
    grid_size = grid._grid_size
    monkeypatch.setattr(grid, "_grid_size", lambda *args: sizes.append(args) or grid_size(*args))
    f = sum_of_squares(3)
    for threads in (0, -5):
        for op in (grid_minimize, grid_maximize, grid_extrema):
            with pytest.raises(ValueError, match=f"^threads must be at least 1, got {threads}$"):
                op(f, 3, threads=threads)
    assert sizes == []
    assert grid_minimize(f, 3, threads=1).value == Fraction(1, 3)


def test_workers_capped_at_chunks_and_cpu_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    f = sum_of_squares(3)
    expected = grid_minimize(f, 5)
    for cpus, want in ((4, 4), (64, 5)):  # r = 5 splits alpha_0 into 5 chunks here
        RecordingExecutor.created = []
        monkeypatch.setattr(grid.os, "cpu_count", lambda: cpus)
        assert grid_minimize(f, 5, threads=10**6) == expected
        assert RecordingExecutor.created == [want]


def test_single_cpu_runs_without_a_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(grid.os, "cpu_count", lambda: 1)
    RecordingExecutor.created = []
    assert grid_minimize(sum_of_squares(4), 6, threads=8) == grid_minimize(sum_of_squares(4), 6)
    assert RecordingExecutor.created == []


def test_default_guard_refuses_huge_grids_at_once():
    f = sum_of_squares(12)
    assert composition_count(12, 200) > grid.DEFAULT_GRID_GUARD
    for sweep in (grid_minimize, grid_maximize, grid_extrema):
        with pytest.raises(GridTooLargeError):
            sweep(f, 200)
    with pytest.raises(GridTooLargeError):
        range_enclosures(f, RangeAssumptions(grid=200))
    with pytest.raises(GridTooLargeError):
        alpha_lower_bound(Graph(12, []), 200)


def test_range_enclosures_checks_guard_before_building_the_table(monkeypatch):
    def fail(*_):
        raise AssertionError("Bernstein table built before the guard check")

    monkeypatch.setattr(bounds, "_bernstein_extrema", fail)
    with pytest.raises(GridTooLargeError):
        range_enclosures(sum_of_squares(4), RangeAssumptions(elevation=2, grid=10), max_points=50)


def test_the_row_table_bound_refuses_a_dense_sweep_before_any_table(monkeypatch):
    # the dense random form of degree 100 in 3 variables has 4887 row
    # suffixes: at r = 150 its row tables could hold 4.0e10 bits, so every
    # sweep of it is refused at once, before a power, level power, row or
    # Bernstein table is built
    def fail(*args):
        raise AssertionError("sweep tables built past the row-table bound")

    f = random_polynomial(random.Random(0), 3, 100)
    monkeypatch.setattr(grid._Lazy, "__missing__", fail)
    grid._shape.cache_clear()
    for sweep in (grid_minimize, grid_maximize, grid_extrema):
        for threads in (1, 2):
            with pytest.raises(ValueError, match="^4887 row suffixes of degree up to 100 are too many "
                               "for a sweep at r = 150: its row tables would exceed 4000000000 bits$"):
                sweep(f, 150, threads=threads)
    shape = grid._shape(tuple(f.coeffs), 3, 100)
    assert shape.power == shape.rows == shape.tables == shape.packs == {}
    assert [powers for powers, *_ in shape.levels] == [{}]
    with pytest.raises(ValueError, match="row tables"):
        grid._Plan(f, [150], 1, None)
    grid._Plan(f, [40], 1, None)  # 2.5e9 bits at r = 40
    # the largest sweep of this suite (n = 3, d = 6, 28 row suffixes, r = 80)
    # is far below the bound: each suffix has 28 entries in the tables of
    # s <= 6 and 7 in each later one
    assert 28 * (28 + 74 * 7) * 6 * (80).bit_length() < grid._MAX_ROW_TABLE_BITS // 10**3


def test_the_row_table_bound_admits_the_power_table_bounds_cases():
    # the sweeps at the power-table bound still run: a sweep of n = 2 builds
    # only the row table of its own r, so the dense binary forms of degree 2000
    # at r = 40 (9.8e8 bits) and of degree 300 on the 11-point grid of r = 10
    # pass, and x^300 + y^300 + z^300 at r = 1000 measures 2.3e9
    def dense(d):
        return HomogeneousPolynomial(2, d, {(i, d - i): 1 for i in range(d + 1)})

    powers = HomogeneousPolynomial(3, 300, {(300, 0, 0): 1, (0, 300, 0): 1, (0, 0, 300): 1})
    for f, r in ((dense(2000), 40), (powers, 1000)):
        grid._Plan(f, [r], 1, None)
    pair = HomogeneousPolynomial(2, 2000, {(2000, 0): 1, (0, 2000): 1})
    assert grid_minimize(pair, 40).value == Fraction(2, 2**2000)
    least = min(sum(v**i * (10 - v) ** (300 - i) for i in range(301)) for v in range(11))
    assert grid_minimize(dense(300), 10).value == Fraction(least, 10**300)


def test_the_row_table_bound_counts_the_one_row_of_a_binary_form(monkeypatch):
    # n = 2 builds rows[r] alone: R = 3 row suffixes of degree e = 6, each with
    # min(r, e) + 1 entries of d * bit_length(r) bits; a bound of that many
    # bits admits the sweep and one bit less refuses it
    f = HomogeneousPolynomial(2, 6, {(6, 0): 1, (3, 3): -2, (0, 6): 1})
    for r in (4, 9):
        bits = 3 * (min(r, 6) + 1) * 6 * r.bit_length()
        monkeypatch.setattr(grid, "_MAX_ROW_TABLE_BITS", bits)
        grid._Plan(f, [r], 1, None)
        monkeypatch.setattr(grid, "_MAX_ROW_TABLE_BITS", bits - 1)
        with pytest.raises(ValueError, match="row tables"):
            grid._Plan(f, [r], 1, None)


def test_the_degree_bound_refuses_a_sweep_before_any_table(monkeypatch):
    def fail(*args):
        raise AssertionError("sweep tables built past the degree bound")

    monkeypatch.setattr(grid, "_shape", fail)
    d = 10**30  # a 31-digit exponent; the grid guard cannot catch it, its grids are tiny
    for n in (1, 2, 4):
        f = HomogeneousPolynomial(n, d, {(d,) + (0,) * (n - 1): 1})
        for sweep in (grid_minimize, grid_maximize, grid_extrema):
            for r in (1, 2):
                with pytest.raises(ValueError, match="power table"):
                    sweep(f, r, max_points=None)
    # the largest sweep of this suite (n = 4, d = 4, r = 80) is far below the bound
    assert 81 * 5 * 4 * (80).bit_length() < grid._MAX_POWER_TABLE_BITS // 10**4
    grid._check_degree(2000, 40)
    with pytest.raises(ValueError, match="power table"):
        grid._check_degree(10**4, 40)
