import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from simplex_grid_opt import (
    ALL_KINDS,
    DegenerateRangeError,
    Enclosure,
    HomogeneousPolynomial,
    RangeAssumptions,
    bound_coefficient,
    check_bounds,
    grid_extrema,
    grid_minimize,
    multinomial,
    random_polynomial,
    range_enclosures,
    rho_interval,
)
from simplex_grid_opt import bounds, grid
from simplex_grid_opt.combin import rate_constant
from simplex_grid_opt.rational import fraction_str
from strats import (
    bernstein_table,
    bound_coefficient_oracle,
    cubic_threshold_reached,
    elevate,
    falling_poly_coeffs,
    naive_extremes,
    polynomials,
    rho_interval_oracle,
    strict_gap_poly,
    sum_of_squares,
)


def test_frozen_coefficient_examples():
    assert bound_coefficient("QUAD_REFINED", d=2, r=2, m=4).coefficient == Fraction(1, 3)
    assert bound_coefficient("QUAD_DENOM", d=2, r=2, m=16).coefficient == 4
    assert bound_coefficient("KLS_GENERAL", d=2, r=2).coefficient == 6
    assert bound_coefficient("SQFREE_REFINED", d=2, r=2, m=4).coefficient == Fraction(1, 3)
    assert bound_coefficient("CUBIC_REFINED", d=3, r=3, m=6).coefficient == Fraction(9, 10)
    assert bound_coefficient("KLS_QUAD", d=2, r=5).coefficient == Fraction(1, 5)
    assert bound_coefficient("CUBIC_KLS", d=3, r=4).coefficient == Fraction(3, 4)
    assert bound_coefficient("SQFREE_KLS", d=3, r=4).coefficient == 1 - Fraction(24, 64)


def test_coefficients_and_converge_cells_match_the_fraction_oracle():
    # every kind at d = 1..6, r = 1..40, m None or 1..15: bound_coefficient's
    # Fraction and converge's cell text (bounds._coefficient_texts)
    for d in range(1, 7):
        for r in range(1, 41):
            for m in (None, *range(1, 16)):
                texts = bounds._coefficient_texts(d, r, m)
                assert len(texts) == len(ALL_KINDS)
                for kind, text in zip(ALL_KINDS, texts):
                    want = bound_coefficient_oracle(kind, d, r, m)
                    got = bound_coefficient(kind, d=d, r=r, m=m).coefficient
                    assert got == want and (want is None or type(got) is Fraction)
                    assert text == ("" if want is None else fraction_str(want))


def test_cubic_rho_is_piecewise_in_r():
    below = bound_coefficient("CUBIC_RHO", d=3, r=3, m=5)
    assert below.coefficient == Fraction(25, 9 * 3)
    above = bound_coefficient("CUBIC_RHO", d=3, r=7, m=5)
    assert above.coefficient == Fraction(30, 49)
    assert above.k == 2


def test_general_rho_uses_rate_constant():
    # c_3 = 10, C(5,3)*3^3 = 270: coefficient = (m/r^2) * 2700
    report = bound_coefficient("GENERAL_RHO", d=3, r=5, m=3)
    assert report.coefficient == Fraction(3 * 2700, 25)
    assert report.k == 2
    assert bound_coefficient("GENERAL_RHO", d=1, r=3, m=3).applicable is False


def test_rate_constant_closed_form_matches_the_expansion():
    # (d-1)(d!-1) against c_d read off the expanded (x-1)...(x-d+1)
    for d in range(2, 61):
        assert rate_constant(d) == (d - 1) * (math.factorial(d) - 1) == falling_poly_coeffs(d).c_d
    with pytest.raises(ValueError):
        rate_constant(1)
    d, r, m = 300, 2, 300
    report = bound_coefficient("GENERAL_RHO", d=d, r=r, m=m)
    assert report.coefficient == (Fraction(m, r * r) * falling_poly_coeffs(d).c_d
                                  * math.comb(2 * d - 1, d) * d**d)


def test_kls_general_saturates_below_degree():
    # r < d makes the falling factorial vanish: the coefficient hits its ceiling
    report = bound_coefficient("KLS_GENERAL", d=3, r=2)
    assert report.coefficient == 10 * 27


def test_inapplicability_reasons():
    assert not bound_coefficient("KLS_QUAD", d=3, r=2).applicable
    assert not bound_coefficient("CUBIC_KLS", d=3, r=1).applicable
    assert not bound_coefficient("QUAD_REFINED", d=2, r=5, m=4).applicable
    assert not bound_coefficient("QUAD_REFINED", d=2, r=2).applicable  # m missing
    assert not bound_coefficient("CUBIC_REFINED", d=3, r=2, m=2).applicable
    assert not bound_coefficient("SQFREE_REFINED", d=3, r=2, m=2).applicable
    report = bound_coefficient("GENERAL_REFINED", d=4, r=2, m=3)
    assert not report.applicable and "m >= d" in report.reason


def test_bound_table_refuses_a_table_past_its_limits_before_any_report(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("no report may be made")

    monkeypatch.setattr(bounds, "_pair_reports", fail)
    rows = f"rows, more than {bounds._MAX_BOUND_ROWS}"
    bits = f"bounds coefficients could hold more than {bounds._MAX_BOUND_BITS} bits"
    # ranges longer than sys.maxsize, which len() cannot measure, are counted from their ends
    for args, text in [((3, range(1, 10**30), [None]), rows), ((3, [2], range(1, 10**30)), rows),
                       ((3, range(1, 10**30, 10**25), range(10**6, 0, -1)), rows),
                       ((10**5, [2], [None]), bits), ((3, [2**10**6], [None]), bits)]:
        with pytest.raises(ValueError) as raised:
            bounds.bound_table(*args)
        assert str(raised.value).endswith(text)
    # an empty sweep makes no report, however long the other one is
    assert bounds.bound_table(3, range(1, 10**30), []) == []
    assert bounds.bound_table(3, range(5, 1), range(1, 10**30)) == []
    # a range of any step is counted from its ends: 4 values of r times 11 kinds
    monkeypatch.setattr(bounds, "_MAX_BOUND_ROWS", 43)
    for r_values in (range(5, 1, -1), range(2, 9, 2), range(2, 10, 2)):
        with pytest.raises(ValueError, match="44 rows, more than 43"):
            bounds.bound_table(3, r_values, [None])


def test_quad_refined_m_equal_one_degenerates_to_zero():
    report = bound_coefficient("QUAD_REFINED", d=2, r=1, m=1)
    assert report.applicable and report.coefficient == 0


def test_k_matches_window():
    for r in range(1, 30):
        for m in range(1, 8):
            report = bound_coefficient("QUAD_DENOM", d=2, r=r, m=m)
            k = report.k
            assert (k - 1) * m < r <= k * m


def test_applicable_coefficients_are_nonnegative():
    for kind in ALL_KINDS:
        for d in range(1, 5):
            for r in range(1, 10):
                for m in (None, 1, 2, 3, 5, 8):
                    report = bound_coefficient(kind, d=d, r=r, m=m)
                    if report.applicable:
                        assert report.coefficient >= 0, (kind, d, r, m)


def test_quadratic_refinement_chain():
    # refined coefficient never exceeds 1/r on its domain, and the
    # denominator-form coefficient never exceeds 1/r once r >= m
    for m in range(2, 41):
        for r in range(1, m + 1):
            assert bound_coefficient("QUAD_REFINED", d=2, r=r, m=m).coefficient <= Fraction(1, r)
    for m in range(1, 41):
        for r in range(m, 41):
            assert bound_coefficient("QUAD_DENOM", d=2, r=r, m=m).coefficient <= Fraction(1, r)


def test_general_refined_below_coarse_bound_via_km():
    for d in range(1, 5):
        for m in range(d, 9):
            for k in range(1, 4):
                for r in range((k - 1) * m + 1, k * m + 1):
                    refined = bound_coefficient("GENERAL_REFINED", d=d, r=r, m=k * m)
                    coarse = bound_coefficient("KLS_GENERAL", d=d, r=r)
                    assert refined.applicable
                    assert refined.coefficient <= coarse.coefficient


def test_cubic_threshold_exact_form_matches_float_evaluation():
    for m in range(1, 60):
        threshold = 1 + (m - 1) / (math.sqrt(2 * m) - 1)
        for r in range(1, 60):
            exact = cubic_threshold_reached(r, m)
            if abs(r - threshold) > 1e-9:
                assert exact == (r >= threshold), (r, m)


def test_cubic_refined_below_cubic_kls_past_threshold():
    for m in range(3, 21):
        for r in range(2, m + 1):
            if cubic_threshold_reached(r, m):
                refined = bound_coefficient("CUBIC_REFINED", d=3, r=r, m=m).coefficient
                coarse = bound_coefficient("CUBIC_KLS", d=3, r=r).coefficient
                assert refined <= coarse, (r, m)


def test_cubic_rho_dominates_refined_on_its_window():
    # the appendix constant is derived by relaxing the refined coefficient
    for m in range(3, 15):
        for r in range(1, m + 1):
            refined = bound_coefficient("CUBIC_REFINED", d=3, r=r, m=m).coefficient
            rho = bound_coefficient("CUBIC_RHO", d=3, r=r, m=m).coefficient
            assert refined <= rho


def rho_at(f, r, params=RangeAssumptions()):
    fmin, fmax = range_enclosures(f, params)
    low, high = grid_extrema(f, r)
    return rho_interval(fmin, fmax, low.value, high.value)


def test_rho_interval_point_cases():
    f = sum_of_squares(4)
    rho = rho_at(f, 2, RangeAssumptions(assume_min_denominator=4, assume_max_denominator=1))
    assert rho.lo == rho.hi == Fraction(1, 3)

    gap = strict_gap_poly()
    rho = rho_at(gap, 16, RangeAssumptions(assume_min_denominator=16))
    assert rho.lo == rho.hi == 0


def test_rho_interval_unassumed_contains_truth():
    f = sum_of_squares(4)
    rho = rho_at(f, 2, RangeAssumptions(elevation=3, grid=4))
    assert rho.lo <= Fraction(1, 3) <= rho.hi
    assert 0 <= rho.lo and rho.hi <= 1


def test_rho_interval_degenerate_range():
    z = HomogeneousPolynomial(2, 2, {})
    with pytest.raises(DegenerateRangeError):
        rho_at(z, 2)
    # constant-on-simplex polynomial is also degenerate
    const = HomogeneousPolynomial(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    with pytest.raises(DegenerateRangeError):
        rho_at(const, 3, RangeAssumptions(elevation=4))


def test_rho_interval_refutes_false_assumptions_on_either_side():
    # grid maximum 3 at r = 2 lies above the assumed fmax 2 (the vertex grid's maximum)
    f = HomogeneousPolynomial(3, 2, {
        (0, 0, 2): 2, (0, 1, 1): 9, (0, 2, 0): 1, (1, 0, 1): 1, (1, 1, 0): -7, (2, 0, 0): -2,
    })
    params = RangeAssumptions(assume_max_denominator=1)
    assert range_enclosures(f, params)[1].hi == 2
    assert grid_extrema(f, 2)[1].value == 3
    with pytest.raises(ValueError, match="maximizer") as raised:
        rho_at(f, 2, params)
    assert not isinstance(raised.value, DegenerateRangeError)
    # grid minimum -17/32 at r = 16 lies below the assumed fmin -1/2 (the r = 2 grid's minimum)
    with pytest.raises(ValueError, match="minimizer") as raised:
        rho_at(strict_gap_poly(), 16, RangeAssumptions(assume_min_denominator=2))
    assert not isinstance(raised.value, DegenerateRangeError)


# small rationals, so that ties between the endpoints and the grid values
# (point, degenerate and capped intervals) come often
_VALUES = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def _rho_cases(draw):
    """(fmin, fmax, grid_min, grid_max): each side assumed (a point) or not,
    and grid values that may fall outside an enclosure, refuting it."""
    def side():
        lo, hi = sorted([draw(_VALUES), draw(_VALUES)])
        return Enclosure(lo, lo if draw(st.booleans()) else hi)

    fmin, fmax = side(), side()
    return (fmin, fmax, *sorted([draw(_VALUES), draw(_VALUES)]))


@settings(max_examples=400, deadline=None)
@given(_rho_cases(), st.integers(1, 6))
@example((Enclosure(0, 0), Enclosure(1, 1), Fraction(1, 3), Fraction(1)), 1)  # a point
@example((Enclosure(0, 1), Enclosure(0, 1), Fraction(1, 2), Fraction(1, 2)), 2)  # degenerate
@example((Enclosure(0, 0), Enclosure(1, 1), Fraction(-1), Fraction(1)), 1)  # refutes fmin
@example((Enclosure(0, 0), Enclosure(1, 1), Fraction(0), Fraction(2)), 1)  # refutes fmax
@example((Enclosure(0, 0), Enclosure(1, 1), Fraction(-1), Fraction(2)), 1)  # both: fmin first
@example((Enclosure(-4, 0), Enclosure(1, 1), Fraction(0), Fraction(1)), 3)  # capped at 1
@example((Enclosure(-1, 0), Enclosure(1, 1), Fraction(0), Fraction(1)), 1)  # 1 uncapped
@example((Enclosure(-1, 1), Enclosure(1, 3), Fraction(0), Fraction(1, 2)), 4)  # unassumed
def test_the_integer_rho_core_is_the_fraction_formulas(case, common):
    # bounds._rho reads the grid values as one unreduced pair over a common
    # denominator; it and rho_interval give the oracle's interval, or raise
    # its error with its message
    fmin, fmax, grid_min, grid_max = case
    den = grid_min.denominator * grid_max.denominator * common
    pairs = (bounds._ends(fmin, fmax), int(grid_min * den), int(grid_max * den), den)
    try:
        want = rho_interval_oracle(fmin, fmax, grid_min, grid_max)
    except ValueError as error:
        for call in (lambda: bounds._rho(*pairs),
                     lambda: rho_interval(fmin, fmax, grid_min, grid_max)):
            with pytest.raises(ValueError) as raised:
                call()
            assert (type(raised.value), str(raised.value)) == (type(error), str(error))
        return
    lo_num, lo_den, hi_num, hi_den = bounds._rho(*pairs)
    assert lo_den > 0 and hi_den > 0
    assert Enclosure(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)) == want
    assert rho_interval(fmin, fmax, grid_min, grid_max) == want


def test_range_enclosures_refute_an_assumption_with_another_swept_grid():
    gap = strict_gap_poly()  # simplex minimum -17/32; the r = 2 grid's minimum is -1/2
    assert range_enclosures(gap, RangeAssumptions(assume_min_denominator=2))[0].lo == Fraction(-1, 2)
    with pytest.raises(ValueError, match="minimizer denominator is inconsistent") as raised:
        range_enclosures(gap, RangeAssumptions(grid=16, assume_min_denominator=2))
    assert not isinstance(raised.value, DegenerateRangeError)
    neg = HomogeneousPolynomial(2, 2, {alpha: -c for alpha, c in gap.coeffs.items()})
    with pytest.raises(ValueError, match="maximizer denominator is inconsistent"):
        range_enclosures(neg, RangeAssumptions(grid=16, assume_max_denominator=2))
    # with both sides assumed the two assumed grids check each other: the grid
    # at 3 has a maximum above the vertex grid's 2
    f = HomogeneousPolynomial(3, 2, {
        (0, 0, 2): 2, (0, 1, 1): 9, (0, 2, 0): 1, (1, 0, 1): 1, (1, 1, 0): -7, (2, 0, 0): -2,
    })
    with pytest.raises(ValueError, match="maximizer denominator is inconsistent"):
        range_enclosures(f, RangeAssumptions(assume_min_denominator=3, assume_max_denominator=1))
    # a true assumption survives the named grid
    fmin, _ = range_enclosures(gap, RangeAssumptions(grid=2, assume_min_denominator=16))
    assert fmin.lo == fmin.hi == Fraction(-17, 32)


def test_refutations_name_the_side_and_the_grid_exactly():
    gap = strict_gap_poly()
    neg = HomogeneousPolynomial(2, 2, {alpha: -c for alpha, c in gap.coeffs.items()})
    low = "assumed minimizer denominator is inconsistent: its grid value exceeds the grid minimum at "
    high = "assumed maximizer denominator is inconsistent: its grid value is below the grid maximum at "
    fmin, fmax = Enclosure(0, 0), Enclosure(1, 1)
    for call, text in [
        (lambda: range_enclosures(gap, RangeAssumptions(grid=16, assume_min_denominator=2)), low + "16"),
        (lambda: range_enclosures(neg, RangeAssumptions(grid=16, assume_max_denominator=2)), high + "16"),
        (lambda: rho_interval(fmin, fmax, Fraction(-1), Fraction(1)), low + "r"),
        (lambda: rho_interval(fmin, fmax, Fraction(0), Fraction(2)), high + "r"),
        # both sides refuted: the minimum is reported first
        (lambda: rho_interval(fmin, fmax, Fraction(-1), Fraction(2)), low + "r"),
    ]:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == text


# --- the enclosure path ------------------------------------------------------------


def bernstein_enclosure(f, k):
    """Bernstein extremes at elevation k, with f sampled on the control net b/(d+k)."""
    return range_enclosures(f, RangeAssumptions(elevation=k, grid=f.d + k))


def test_bernstein_enclosure_elevation_examples():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 1, (0, 2): 1})
    enc0, _ = bernstein_enclosure(f, 0)
    assert enc0.lo == 0
    enc2, _ = bernstein_enclosure(f, 2)
    # elevated table min computed by hand: coefficients 1, 1/2, 1/3, 1/2, 1
    assert enc2.lo == Fraction(1, 3)
    assert 0 <= enc2.lo <= Fraction(1, 2)
    assert enc2.contains(Fraction(1, 2))


def test_single_monomial_enclosure_brackets_its_coefficient_unelevated():
    for n, beta, c in [(2, (2, 0), 3), (2, (1, 1), -4), (3, (1, 2, 0), 5)]:
        f = HomogeneousPolynomial(n, sum(beta), {beta: c})
        coeff = Fraction(c, multinomial(sum(beta), beta))  # c * beta!/d!
        lo_enc, hi_enc = bernstein_enclosure(f, 0)
        assert lo_enc.lo <= coeff <= hi_enc.hi


def test_elevation_can_tighten_past_a_raw_coefficient():
    # For a mixed monomial the raw coefficient c*beta!/d! lies outside the
    # true value range, so elevated tables legitimately exclude it: the k=0
    # bracket above does not extend to k >= 1.
    f = HomogeneousPolynomial(2, 2, {(1, 1): -4})
    lo_enc, _ = bernstein_enclosure(f, 1)
    assert lo_enc.lo == Fraction(-4, 3)  # already above c*beta!/d! = -2
    # still a valid enclosure of the true minimum -1, attained at (1/2, 1/2)
    assert lo_enc.contains(Fraction(-1))


@settings(max_examples=60, deadline=None)
@given(polynomials(max_n=3, max_d=3), st.integers(0, 3), st.data())
def test_range_enclosures_match_an_independent_construction(f, k, data):
    grid_r, lo_m, hi_m = (data.draw(st.none() | st.integers(1, 6)) for _ in range(3))
    table = bernstein_table(elevate(f, k))

    def naive(r):
        (lo, _, _), (hi, _, _) = naive_extremes(f, r, 1)
        return lo, hi

    inner_min, inner_max = (table.max_coeff, table.min_coeff) if grid_r is None else naive(grid_r)
    want_min = (table.min_coeff, inner_min) if lo_m is None else (naive(lo_m)[0],) * 2
    want_max = (inner_max, table.max_coeff) if hi_m is None else (naive(hi_m)[1],) * 2
    params = RangeAssumptions(
        elevation=k, grid=grid_r, assume_min_denominator=lo_m, assume_max_denominator=hi_m,
    )
    # the grid is swept only for an unassumed side; a swept grid beyond an assumed side refutes it
    swept = {q for q in (lo_m, hi_m) if q is not None}
    if grid_r is not None and None in (lo_m, hi_m):
        swept.add(grid_r)
    refuted = (lo_m is not None and min(naive(q)[0] for q in swept) < want_min[0]) or (
        hi_m is not None and max(naive(q)[1] for q in swept) > want_max[1]
    )
    if refuted:
        with pytest.raises(ValueError, match="inconsistent"):
            range_enclosures(f, params)
        return
    fmin, fmax = range_enclosures(f, params)
    assert ((fmin.lo, fmin.hi), (fmax.lo, fmax.hi)) == (want_min, want_max)


@settings(max_examples=150, deadline=None)
@given(polynomials(max_n=4, max_d=4), st.integers(0, 3), st.data())
def test_integer_bernstein_extrema_match_the_dense_table(f, k, data):
    # coefficients over mixed denominators, so the scale L is not 1
    dens = data.draw(st.lists(st.integers(1, 12), min_size=len(f.coeffs), max_size=len(f.coeffs)))
    f = HomogeneousPolynomial(f.n, f.d, {
        alpha: c / q for (alpha, c), q in zip(f.coeffs.items(), dens)})
    table = bernstein_table(elevate(f, k))
    low, high = grid._bernstein_extrema(grid._Plan(f, [], 1, None), k)
    assert (Fraction(*low), Fraction(*high)) == (table.min_coeff, table.max_coeff)
    assert low[1] > 0 and high[1] > 0  # the pairs' denominators are positive


@pytest.mark.parametrize("f, ks", [
    (HomogeneousPolynomial(3, 2, {}), (0, 2, 8)),  # the zero polynomial
    (HomogeneousPolynomial(1, 3, {(3,): Fraction(-5, 2)}), (0, 1, 8)),  # n = 1
    # a sparse form in 8 variables: 3 monomials, 19305 table entries at k = 8
    (HomogeneousPolynomial(8, 2, {(2, 0, 0, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0, 1, 0): -3,
                                  (0, 0, 0, 0, 0, 0, 0, 2): Fraction(1, 2)}), (0, 8)),
], ids=["zero", "one-variable", "sparse-8-variables"])
def test_integer_bernstein_extrema_match_the_dense_table_on_edge_cases(f, ks):
    for k in ks:
        table = bernstein_table(elevate(f, k))
        low, high = grid._bernstein_extrema(grid._Plan(f, [], 1, None), k)
        assert (Fraction(*low), Fraction(*high)) == (table.min_coeff, table.max_coeff), k


@pytest.mark.parametrize("k", [0, 8])
def test_a_huge_single_variable_degree_encloses_at_once(k):
    # on the one-point simplex of n = 1 the only Bernstein coefficient is 3;
    # no list of d factorials is built
    f = HomogeneousPolynomial(1, 10**30, {(10**30,): 3})
    started = time.monotonic()
    fmin, fmax = range_enclosures(f, RangeAssumptions(elevation=k))
    assert time.monotonic() - started < 1
    assert (fmin.lo, fmin.hi, fmax.lo, fmax.hi) == (3, 3, 3, 3)


def test_the_enclosure_table_bound_is_checked_before_any_sweep(monkeypatch):
    # x_1^4 in 12 variables at k = 8: one monomial under C(19, 11) = 75582 rows
    f = HomogeneousPolynomial(12, 4, {(4,) + (0,) * 11: 1})
    sweeps, sweep = [], grid._sweep
    monkeypatch.setattr(grid, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    monkeypatch.setattr(bounds, "_bernstein_extrema", lambda f, k: ((-1, 1), (2, 1)))
    params = RangeAssumptions(elevation=8, grid=1)
    monkeypatch.setattr(bounds, "_MAX_ENCLOSURE_ENTRIES", 75581)
    with pytest.raises(ValueError, match="^the Bernstein table at elevation 8 would hold 75582 "
                                         "entries, more than 75581$"):
        range_enclosures(f, params)
    assert sweeps == []
    monkeypatch.setattr(bounds, "_MAX_ENCLOSURE_ENTRIES", 75582)
    fmin, fmax = range_enclosures(f, params)
    assert (fmin.lo, fmax.hi, len(sweeps)) == (-1, 2, 1)
    # both sides assumed: no table is built, so none is bounded
    monkeypatch.setattr(bounds, "_MAX_ENCLOSURE_ENTRIES", 0)
    fmin, fmax = range_enclosures(f, RangeAssumptions(
        elevation=8, assume_min_denominator=1, assume_max_denominator=1))
    assert (fmin.lo, fmax.hi, len(sweeps)) == (0, 1, 2)


def witness_for(f, kind, r, m, params=RangeAssumptions()):
    """The one witness of `kind` at (r, m) among those check_bounds returns."""
    (witness,) = [w for w in check_bounds(f, [(r, m)], params) if w.kind.value == kind]
    return witness


def test_check_bound_equality_witness():
    f = sum_of_squares(4)
    witness = witness_for(
        f, "QUAD_REFINED", 2, 4, RangeAssumptions(assume_min_denominator=4, assume_max_denominator=1)
    )
    assert witness.lhs == Fraction(1, 4)
    assert witness.rhs == Fraction(1, 4)
    assert witness.holds


def test_check_bound_gap_example():
    gap = strict_gap_poly()
    witness = witness_for(gap, "QUAD_DENOM", 2, 16)
    assert witness.lhs == Fraction(-1, 2) - Fraction(-17, 32) == Fraction(1, 32)
    assert witness.holds


def test_check_bound_r_equals_m_is_trivially_sound():
    gap = strict_gap_poly()
    for witness in check_bounds(gap, [(3, 3)]):
        assert witness.lhs == 0
        assert witness.holds


def test_check_bound_skips_square_free_kinds_for_squares():
    kinds = {w.kind for w in check_bounds(sum_of_squares(3), [(2, 4)])}
    assert kinds and not kinds & bounds.SQUARE_FREE_KINDS
    # a square-free cubic of the same size gets both
    square_free = HomogeneousPolynomial(3, 3, {(1, 1, 1): 1})
    kinds = {w.kind for w in check_bounds(square_free, [(2, 4)])}
    assert bounds.SQUARE_FREE_KINDS <= kinds


def test_check_bounds_makes_no_witness_for_a_kind_that_does_not_apply():
    f = strict_gap_poly()  # not square-free
    pairs = [(1, 1), (2, 3), (3, 2), (4, 4)]
    witnesses = check_bounds(f, pairs)
    applicable = [(report.r, report.m, report.kind) for report in bounds._pair_reports(f.d, pairs)
                  if report.applicable and report.kind not in bounds.SQUARE_FREE_KINDS]
    assert len(applicable) < len(pairs) * len(ALL_KINDS)
    assert [(w.r, w.m, w.kind) for w in witnesses] == applicable


@pytest.mark.parametrize("params, pairs, swept", [
    (RangeAssumptions(assume_min_denominator=4, assume_max_denominator=1), [(2, 4)], [1, 2, 4]),
    (RangeAssumptions(grid=4), [(2, 4), (3, 4)], [2, 3, 4]),
    (RangeAssumptions(), [(2, 4), (3, 4)], [2, 3, 4]),
    (RangeAssumptions(), [(2, 2), (2, 3), (2, 4), (3, 4)], [2, 3, 4]),  # gaps sharing an r
])
def test_check_bounds_sweeps_each_denominator_once(monkeypatch, params, pairs, swept):
    f = sum_of_squares(4)
    minima = {q: grid_minimize(f, q).value for q in swept}
    calls, sweep = [], grid._sweep
    monkeypatch.setattr(grid, "_sweep", lambda f, r, *rest: calls.append(r) or sweep(f, r, *rest))
    witnesses = check_bounds(f, pairs, params)
    assert sorted(calls) == swept
    assert witnesses and all(w.lhs == minima[w.r] - minima[w.m] and w.holds for w in witnesses)


def test_check_bounds_refuses_a_grid_past_the_guard_before_any_sweep(monkeypatch):
    # of sum_of_squares(4)'s grids at 1, 2, 4 and 6 (1, 10, 35 and 84 points)
    # only 6 is past a guard of 40: it is refused before the enclosures sweep
    # 4 and 1, and before the witnesses sweep 2, and no Bernstein table is built
    sweeps, sweep = [], grid._sweep
    monkeypatch.setattr(grid, "_sweep", lambda *args: sweeps.append(args[1]) or sweep(*args))
    monkeypatch.setattr(bounds, "_bernstein_extrema", lambda *args: pytest.fail("a table was built"))
    monkeypatch.setattr(bounds, "DEFAULT_GRID_GUARD", 40)
    f, params = sum_of_squares(4), RangeAssumptions(assume_min_denominator=4, assume_max_denominator=1)
    with pytest.raises(grid.GridTooLargeError, match="^grid has 84 points, budget is 40$"):
        check_bounds(f, [(2, 4), (2, 6)], params)
    assert sweeps == []
    assert check_bounds(f, [(2, 4)], params) and sorted(sweeps) == [1, 2, 4]


@pytest.mark.parametrize("f, params, error, message", [
    # 40 is inside the default guard and 10^5 (5000150001 points) is past it:
    # 40 was swept before 10^5 was refused
    (random_polynomial(random.Random(0), 3, 3),
     RangeAssumptions(grid=40, assume_min_denominator=10**5), grid.GridTooLargeError,
     "^grid has 5000150001 points, budget is 100000000$"),
    # the power table of degree 2000 is inside its bound at r = 40 and past it
    # at 1000: the bound is checked at the largest grid, not the first
    (HomogeneousPolynomial(2, 2000, {(2000, 0): 1, (0, 2000): 1}),
     RangeAssumptions(grid=40, assume_min_denominator=1000), ValueError,
     "^degree 2000 is too high for a sweep at r = 1000: "),
], ids=["guard", "degree"])
def test_range_enclosures_refuses_every_grid_before_any_sweep(monkeypatch, f, params, error, message):
    monkeypatch.setattr(grid, "_sweep", lambda *args: pytest.fail("a grid was swept"))
    monkeypatch.setattr(bounds, "_bernstein_extrema", lambda *args: pytest.fail("a table was built"))
    with pytest.raises(error, match=message):
        range_enclosures(f, params)


@pytest.mark.parametrize("elevation, message", [
    (9, "^elevation 9 exceeds the cap 8$"), (-3, "^elevation must be nonnegative$"),
])
def test_an_elevation_outside_0_to_8_is_refused_when_no_side_reads_it(elevation, message):
    # with both sides assumed no Bernstein table is built, and the elevation
    # was once refused only when one was
    with pytest.raises(ValueError, match=message):
        RangeAssumptions(elevation=elevation, assume_min_denominator=4, assume_max_denominator=1)
    fmin, fmax = range_enclosures(sum_of_squares(4), RangeAssumptions(
        elevation=8, assume_min_denominator=4, assume_max_denominator=1))
    assert (fmin.lo, fmax.hi) == (Fraction(1, 4), 1)


_NOT_INTEGERS = {
    "range-enclosures-threads-0": (lambda f: range_enclosures(f, threads=0), ValueError,
                                   "threads must be at least 1, got 0"),
    "range-enclosures-threads-negative": (
        lambda f: range_enclosures(f, threads=-3, max_points=-1), ValueError,
        "threads must be at least 1, got -3"),
    "range-enclosures-threads-bool": (lambda f: range_enclosures(f, threads=True), TypeError, "True"),
    "range-enclosures-threads-float": (
        lambda f: range_enclosures(f, RangeAssumptions(grid=4), threads=2.0), TypeError, "2.0"),
    "range-enclosures-max-points-float": (
        lambda f: range_enclosures(f, RangeAssumptions(grid=4), max_points=10.5), TypeError, "10.5"),
    "assumptions-grid-float": (lambda f: RangeAssumptions(grid=4.0), TypeError, "4.0"),
    "assumptions-grid-bool": (lambda f: RangeAssumptions(grid=True), TypeError, "True"),
    "assumptions-elevation-float": (lambda f: RangeAssumptions(elevation=1.0), TypeError, "1.0"),
    "assumptions-elevation-bool": (lambda f: RangeAssumptions(elevation=True), TypeError, "True"),
    "assumptions-min-denominator-float": (
        lambda f: RangeAssumptions(assume_min_denominator=2.0), TypeError, "2.0"),
    "assumptions-max-denominator-str": (
        lambda f: RangeAssumptions(assume_max_denominator="2"), TypeError, "'2'"),
    "check-bounds-r-bool": (lambda f: check_bounds(f, [(True, 3)]), TypeError, "True"),
    "check-bounds-m-float": (lambda f: check_bounds(f, [(2, 3.0)]), TypeError, "3.0"),
    "bound-coefficient-d-float": (lambda f: bound_coefficient("KLS_QUAD", d=2.0, r=3), TypeError, "2.0"),
    "bound-coefficient-m-bool": (lambda f: bound_coefficient("QUAD_DENOM", d=2, r=3, m=True),
                                 TypeError, "True"),
    "bound-table-d-float": (lambda f: bounds.bound_table(2.0, [3], [None]), TypeError, "2.0"),
    "bound-table-r-float": (lambda f: bounds.bound_table(2, [2.5], [None]), TypeError, "2.5"),
}


@pytest.mark.parametrize("call, error, message", _NOT_INTEGERS.values(), ids=_NOT_INTEGERS.keys())
def test_a_parameter_of_bounds_that_is_no_integer_or_thread_count_is_refused_before_any_work(
        monkeypatch, call, error, message):
    # each integer parameter of a public entry of bounds goes through
    # rational._as_int, which names the value, where it once ran (threads=True,
    # grid=True, r=True), failed somewhere unrelated (threads=2.0, grid=4.0)
    # or was echoed (max_points=10.5, d=2.0); fewer than one thread is
    # refused also when no grid is swept
    monkeypatch.setattr(grid, "_sweep", lambda *args: pytest.fail("a grid was swept"))
    monkeypatch.setattr(bounds, "_bernstein_extrema", lambda *args: pytest.fail("a table was built"))
    if error is TypeError:
        message = f"expected an integer, got {message}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(sum_of_squares(3))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
def test_check_bound_sound_on_random_polynomials(seed, r, m):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    d = rng.randint(1, 3)
    f = random_polynomial(rng, n, d)
    for witness in check_bounds(f, [(r, m)]):
        assert witness.holds, (witness.kind, f.coeffs, r, m)
