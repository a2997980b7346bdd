import json
import math
import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from simplex_grid_opt import (
    Enclosure,
    HomogeneousPolynomial,
    RangeAssumptions,
    as_rational,
    fraction_str,
    composition_count,
    evaluate,
    from_json_dict,
    homogenize,
    is_square_free,
    load_polynomial,
    range_enclosures,
    rho_interval,
)
from simplex_grid_opt import rational
from simplex_grid_opt.combin import (
    binomial, compositions, falling, multinomial, rate_constant, stirling2,
)
from simplex_grid_opt.hypergeom import HypergeomParams, bernstein_approximation, moment
from simplex_grid_opt.identities import a_beta
from simplex_grid_opt.rational import MAX_INT_DIGITS, _decimal_ratio, _ratio_str, decimal_str
from simplex_grid_opt.stableset import Graph
from strats import (
    FractionSubclass,
    bernstein_table,
    decimal_rational,
    elevate,
    exponent_tuples,
    poly_add,
    poly_mul,
    poly_scale,
    polynomials,
    reference_homogenize,
    reference_terms,
    simplex_points,
    strict_gap_poly,
    sum_of_squares,
    term_lists,
    to_json_dict,
)


def test_evaluate_paper_example_points():
    f = strict_gap_poly()
    assert evaluate(f, (Fraction(7, 16), Fraction(9, 16))) == Fraction(-17, 32)
    assert evaluate(f, (Fraction(1, 2), Fraction(1, 2))) == Fraction(-1, 2)


def test_evaluate_at_unit_vectors_reads_off_coefficients():
    f = strict_gap_poly()
    assert evaluate(f, (1, 0)) == 2
    assert evaluate(f, (0, 1)) == 1


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(strict_gap_poly(), (1, 0, 0))


def test_constructor_rejects_inhomogeneous_and_bad_exponents():
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2, 2, {(3, -1): 1})
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2, 2, {(1, 1, 0): 1})
    with pytest.raises(ValueError):
        HomogeneousPolynomial(0, 1, {})


_XY = HomogeneousPolynomial(2, 2, {(1, 1): 1})
_URN = HypergeomParams(4, (2, 2), 2)
# each entry point that takes an integer, called with v in one integer parameter
_INTEGER_PARAMETERS = {
    "exponent": lambda v: HomogeneousPolynomial(2, 2, {(v, 0): 1}),
    "n": lambda v: HomogeneousPolynomial(v, 2, {}),
    "d": lambda v: HomogeneousPolynomial(2, v, {}),
    "homogenize-exponent": lambda v: homogenize({(v, 0): 1}, 2, 2),
    "urn-m": lambda v: HypergeomParams(v, (1, 1), 1),
    "urn-count": lambda v: HypergeomParams(4, (2, v), 2),
    "urn-r": lambda v: HypergeomParams(4, (2, 2), v),
    "moment-beta": lambda v: moment(_URN, (v, 0)),
    "bernstein-r": lambda v: bernstein_approximation(_XY, ("1/2", "1/2"), v),
    "a-beta-beta": lambda v: a_beta((v, 1), 2, 4, (2, 2)),
    "a-beta-r": lambda v: a_beta((1, 1), v, 4, (2, 2)),
    "a-beta-m": lambda v: a_beta((1, 1), 2, v, (1, 1)),
    "graph-n": lambda v: Graph(v, []),
    "graph-vertex": lambda v: Graph(3, [(3, v)]),
    "binomial-n": lambda v: binomial(v, 1),
    "binomial-k": lambda v: binomial(4, v),
    "multinomial-d": lambda v: multinomial(v, (1, 1)),
    "multinomial-entry": lambda v: multinomial(2, (v, 0)),
    "falling-x": lambda v: falling(v, 2),
    "falling-d": lambda v: falling(4, v),
    "stirling2-a": lambda v: stirling2(v, 1),
    "stirling2-b": lambda v: stirling2(3, v),
    "composition-count-n": lambda v: composition_count(v, 2),
    "composition-count-total": lambda v: composition_count(2, v),
    "compositions-n": lambda v: list(compositions(v, 2)),
    "compositions-total": lambda v: list(compositions(2, v)),
    "rate-constant": rate_constant,
}


@pytest.mark.parametrize("value", [2.0, 2.5, "2", True], ids=repr)
@pytest.mark.parametrize("call", _INTEGER_PARAMETERS.values(), ids=_INTEGER_PARAMETERS)
def test_integer_parameters_refuse_floats_strings_and_bools(call, value):
    # int() would truncate 2.5, parse "2" and take True as 1; a float kept as
    # it is would reach the exact core
    with pytest.raises(TypeError, match=f"expected an integer, got {re.escape(repr(value))}$"):
        call(value)
    call(2)


def test_stirling2_refuses_a_float_before_its_cache():
    # lru_cache keys 3.0 as it keys 3: a float let through once filled the
    # cache with 3.0, which every later stirling2(3, 2) returned, and a float
    # checked only inside the cache is answered from it once (3, 2) is there
    with pytest.raises(TypeError, match="expected an integer, got 3.0$"):
        stirling2(3.0, 2)
    value = stirling2(3, 2)
    assert type(value) is int and value == 3
    with pytest.raises(TypeError, match="expected an integer, got 3.0$"):
        stirling2(3.0, 2)


# each exact-value helper, called with v as one rational value it reads
_RATIONAL_PARAMETERS = {
    "enclosure-lo": lambda v: Enclosure(v, 1),
    "enclosure-hi": lambda v: Enclosure(0, v),
    "enclosure-contains": lambda v: Enclosure(0, 1).contains(v),
    "rho-interval-grid-min": lambda v: rho_interval(Enclosure(0, 0), Enclosure(1, 1), v, 1),
    "rho-interval-grid-max": lambda v: rho_interval(Enclosure(0, 0), Enclosure(1, 1), 0, v),
    "decimal-str": decimal_str,
    "fraction-str": fraction_str,
}


@pytest.mark.parametrize("value, message", [(0.1, "refusing float 0.1:"), (1.0, "refusing float 1.0:"),
                                            (True, "booleans are not")], ids=repr)
@pytest.mark.parametrize("call", _RATIONAL_PARAMETERS.values(), ids=_RATIONAL_PARAMETERS)
def test_exact_value_helpers_refuse_floats_and_bools(call, value, message):
    # each reads its values with as_rational: Fraction() once stored 0.1 as
    # 3602879701896397/36028797018963968 and True as 1, decimal_str printed
    # 0.1 as 0.10000000000000000555, and fraction_str(0.1) raised AttributeError
    with pytest.raises(TypeError, match=f"^{re.escape(message)}"):
        call(value)
    call("1/3")


def test_zero_polynomial_accepted():
    z = HomogeneousPolynomial(3, 2, {})
    assert not z.coeffs
    assert evaluate(z, (1, 0, 0)) == 0
    table = bernstein_table(z)
    assert table.min_coeff == table.max_coeff == 0


def test_zero_coefficients_are_dropped():
    f = HomogeneousPolynomial(2, 2, {(2, 0): 1, (1, 1): 0})
    assert (1, 1) not in f.coeffs


def test_bernstein_table_examples():
    t1 = bernstein_table(HomogeneousPolynomial(2, 2, {(2, 0): 1, (0, 2): 1}))
    assert t1.entries == {(2, 0): 1, (1, 1): 0, (0, 2): 1}
    assert (t1.min_coeff, t1.max_coeff) == (0, 1)

    t2 = bernstein_table(strict_gap_poly())
    assert t2.entries == {(2, 0): 2, (1, 1): Fraction(-5, 2), (0, 2): 1}
    assert (t2.min_coeff, t2.max_coeff) == (Fraction(-5, 2), 2)

    t3 = bernstein_table(HomogeneousPolynomial(3, 3, {(1, 1, 1): 6}))
    assert t3.entries[(1, 1, 1)] == 1


@given(polynomials(max_n=3, max_d=3))
def test_bernstein_table_covers_full_index_set(f):
    table = bernstein_table(f)
    assert len(table.entries) == composition_count(f.n, f.d)


@settings(max_examples=60)
@given(st.data())
def test_bernstein_sandwich_on_simplex_points(data):
    f = data.draw(polynomials(max_n=3, max_d=3))
    x = data.draw(simplex_points(f.n))
    table = bernstein_table(f)
    assert table.min_coeff <= evaluate(f, x) <= table.max_coeff


@given(polynomials(max_n=3, max_d=3))
@settings(max_examples=30)
def test_elevation_never_loosens_bernstein_bounds(f):
    lows, highs = [], []
    for k in range(4):
        table = bernstein_table(elevate(f, k))
        lows.append(table.min_coeff)
        highs.append(table.max_coeff)
    assert lows == sorted(lows)
    assert highs == sorted(highs, reverse=True)


def test_elevation_cap_enforced():
    f = sum_of_squares(2)
    with pytest.raises(ValueError, match="^elevation 9 exceeds the cap 8$"):
        range_enclosures(f, RangeAssumptions(elevation=9))
    with pytest.raises(ValueError, match="^elevation must be nonnegative$"):
        range_enclosures(f, RangeAssumptions(elevation=-1))
    fmin, _ = range_enclosures(f, RangeAssumptions(elevation=8))
    assert fmin.lo == bernstein_table(elevate(f, 8)).min_coeff


def test_is_square_free():
    assert is_square_free(HomogeneousPolynomial(3, 2, {(1, 1, 0): 1, (0, 1, 1): 1}))
    assert not is_square_free(HomogeneousPolynomial(1, 2, {(2,): 1}))
    assert is_square_free(HomogeneousPolynomial(3, 3, {(1, 1, 1): 1}))


def test_homogenize_examples():
    f = homogenize({(1, 0): 1}, 2, 2)
    assert f.coeffs == {(2, 0): 1, (1, 1): 1}

    g = homogenize({(0, 0, 0): 1}, 3, 1)
    assert g.coeffs == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}

    h = homogenize({(2, 0): 1, (0, 1): 1}, 2, 2)
    assert h.coeffs == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_homogenize_rejects_degree_overflow():
    with pytest.raises(ValueError):
        homogenize({(3, 0): 1}, 2, 2)


def test_homogenize_checks_n_as_the_polynomial_does():
    # n is checked before any expansion, with the polynomial's own text
    for terms in ({(): 1}, {}):
        with pytest.raises(ValueError, match="^polynomial needs at least one variable$"):
            homogenize(terms, 0, 2)
    with pytest.raises(ValueError, match="^polynomial needs at least one variable$"):
        HomogeneousPolynomial(0, 2, {})
    with pytest.raises(ValueError, match=r"^exponent \(1, 1\) has length 2, expected 1$"):
        homogenize({(1, 1): 1}, 1, 2)
    with pytest.raises(ValueError, match=r"^negative exponent in \(-1, 1\)$"):
        homogenize({(-1, 1): 1}, 2, 2)


@settings(max_examples=40)
@given(st.data())
def test_homogenize_agrees_on_simplex(data):
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 3))
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        e = data.draw(st.integers(0, d))
        alpha = data.draw(
            st.lists(st.integers(0, e), min_size=n, max_size=n).filter(lambda a: sum(a) <= d)
        )
        terms[tuple(alpha)] = terms.get(tuple(alpha), 0) + data.draw(st.integers(-5, 5))
    x = data.draw(simplex_points(n))
    f = homogenize(terms, n, d)
    direct = sum(
        (Fraction(c) * math.prod(xi**a for xi, a in zip(x, alpha)) for alpha, c in terms.items()),
        start=Fraction(0),
    )
    assert evaluate(f, x) == direct


@st.composite
def inhomogeneous_terms(draw, max_n: int = 4, max_d: int = 5):
    """(terms, n, d): up to 8 terms of degrees 0..d with coefficients in -5..5."""
    n, d = draw(st.integers(1, max_n)), draw(st.integers(1, max_d))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        alpha = draw(exponent_tuples(n, draw(st.integers(0, d))))
        terms[alpha] = terms.get(alpha, 0) + draw(st.integers(-5, 5))
    return terms, n, d


@settings(max_examples=150)
@given(inhomogeneous_terms())
def test_homogenize_one_degree_higher_is_one_elevation(case):
    terms, n, d = case
    assert homogenize(terms, n, d + 1) == elevate(homogenize(terms, n, d), 1)


@settings(max_examples=100)
@given(polynomials(max_n=4, max_d=3), st.integers(0, 4))
def test_elevate_equals_homogenize_to_the_higher_degree(f, k):
    # elevate multiplies by the sum of the variables k times; homogenize expands
    # (x_1 + ... + x_n)^k by the multinomial theorem
    assert elevate(f, k) == homogenize(f.coeffs, f.n, f.d + k)


def test_homogenize_a_wide_degree_gap_gives_the_binomial_row():
    # one multinomial product per entry of I(2, d): a sparse input raised far
    # stays linear in d
    d = 2000
    f = homogenize({(0, 0): 1, (d, 0): 1}, 2, d)
    assert f.coeffs == {(i, d - i): math.comb(d, i) + (i == d) for i in range(d + 1)}


def test_homogenize_one_variable_needs_no_loop_over_the_degrees():
    # on the simplex x_1 = 1, so every term lands on x_1^d, however large d is
    d = 10**30
    f = homogenize({(1,): 2, (0,): Fraction(1, 3), (d,): -1}, 1, d)
    assert (f.d, f.coeffs) == (d, {(d,): Fraction(4, 3)})


@settings(max_examples=40)
@given(st.data())
def test_evaluate_is_linear(data):
    f = data.draw(polynomials(max_n=3, max_d=3))
    g_terms = {
        data.draw(exponent_tuples(f.n, f.d)): data.draw(st.integers(-5, 5)) for _ in range(3)
    }
    g = HomogeneousPolynomial(f.n, f.d, {a: c for a, c in g_terms.items() if c})
    a, b = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
    x = data.draw(simplex_points(f.n))
    combo = poly_add(poly_scale(f, a), poly_scale(g, b))
    assert evaluate(combo, x) == a * evaluate(f, x) + b * evaluate(g, x)


def test_poly_mul_degree_and_values():
    f = strict_gap_poly()
    g = HomogeneousPolynomial(2, 1, {(1, 0): 1, (0, 1): 1})
    product = poly_mul(f, g)
    assert product.d == 3
    x = (Fraction(1, 3), Fraction(2, 3))
    assert evaluate(product, x) == evaluate(f, x)  # g is 1 on the simplex


def test_json_round_trip_and_decimal_exactness(tmp_path):
    obj = {
        "n": 2,
        "terms": [
            {"alpha": [2, 0], "coef": "0.1"},
            {"alpha": [1, 1], "coef": "-3/4"},
            {"alpha": [0, 2], "coef": 2},
        ],
    }
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(obj))
    f = load_polynomial(str(path))
    assert f.coeffs[(2, 0)] == Fraction(1, 10)
    assert f.coeffs[(1, 1)] == Fraction(-3, 4)
    assert f.d == 2
    again = from_json_dict(to_json_dict(f))
    assert again == f


def test_json_float_literals_parse_exactly(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text('{"n": 1, "degree": 1, "terms": [{"alpha": [1], "coef": 0.1}]}')
    f = load_polynomial(str(path))
    assert f.coeffs[(1,)] == Fraction(1, 10)


def test_json_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        from_json_dict({"terms": []})
    with pytest.raises(ValueError):
        from_json_dict({"n": 2, "terms": []})  # degree unknown
    with pytest.raises(ValueError):
        from_json_dict({"n": 2, "degree": 2, "terms": [{"alpha": [1, 0], "coef": "1"}]})
    # same file is fine once homogenization is requested
    f = from_json_dict(
        {"n": 2, "degree": 2, "terms": [{"alpha": [1, 0], "coef": "1"}]},
        homogenize_terms=True,
    )
    assert f.coeffs == {(2, 0): 1, (1, 1): 1}


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "terms": [{"alpha": [1.5, 0.5], "coef": "1"}]}',
        '{"n": 2, "terms": [{"alpha": [true, 1], "coef": "1"}]}',
        '{"n": 2, "terms": [{"alpha": "11", "coef": "1"}]}',
        '{"n": 2.7, "terms": [{"alpha": [1, 1], "coef": "1"}]}',
        '{"n": 2.0, "terms": [{"alpha": [1, 1], "coef": "1"}]}',
        '{"n": "2", "terms": [{"alpha": [1, 1], "coef": "1"}]}',
        '{"n": true, "terms": [{"alpha": [2], "coef": "1"}]}',
        '{"n": 2, "degree": 2.5, "terms": [{"alpha": [1, 1], "coef": "1"}]}',
        '{"n": 2, "degree": false, "terms": [{"alpha": [1, 1], "coef": "1"}]}',
    ],
    ids=["float-alpha", "bool-alpha", "string-alpha", "float-n", "integral-float-n", "string-n",
         "bool-n", "float-degree", "bool-degree"],
)
def test_json_integer_fields_accept_only_json_integers(tmp_path, text):
    path = tmp_path / "poly.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="JSON integer|must be a list"):
        load_polynomial(str(path))


def test_json_terms_that_repeat_an_exponent_are_summed():
    terms = [{"alpha": [1, 1], "coef": "1/2"}, {"alpha": [1, 1], "coef": 1}]
    f = from_json_dict({"n": 2, "terms": terms})
    assert f.coeffs == {(1, 1): Fraction(3, 2)}


@pytest.mark.parametrize(
    "coef", ['"1e999999999"', "1e999999999", '"-2.5E-999999999"', '"1e4_301"', "1e4301"]
)
def test_json_refuses_a_huge_decimal_exponent_before_building_it(tmp_path, coef):
    path = tmp_path / "poly.json"
    path.write_text('{"n": 1, "terms": [{"alpha": [1], "coef": %s}]}' % coef)
    with pytest.raises(ValueError, match="decimal exponent"):
        load_polynomial(str(path))


def test_decimal_exponents_up_to_the_limit_are_exact():
    assert as_rational("1e4300") == 10**4300
    assert as_rational(" -25E-0004300 ") == Fraction(-25, 10**4300)
    assert as_rational("1.5e1_0") == 15 * 10**9


def test_literals_past_the_int_string_limit_are_exact():
    # CPython refuses to build an int from more than 4300 digits of a string
    p, q = 7 * 10**4999 + 3, 3 * 10**4999 + 1  # 7q - 3p = -2, so any common factor is 2
    value = Fraction(p, q)
    assert as_rational(fraction_str(value)) == value
    assert as_rational(fraction_str(-value)) == -value
    assert as_rational("1" + "0" * 5000) == 10**5000
    assert as_rational("0." + "0" * 4999 + "5") == Fraction(1, 2 * 10**4999)  # 5 * 10^-5000


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**9, 10**9), st.integers(1, 10**9), st.integers(1, 10**4),
       st.sampled_from([0, 1, MAX_INT_DIGITS + 1]), st.booleans())
def test_ratio_str_is_fraction_str_of_the_pair(num, den, common, digits, whole):
    # negative numerators, den = 1, shared factors (the pair need not be reduced),
    # and numerators past the int-to-str digit limit
    num, den = num * common * 10**digits, 1 if whole else den * common
    assert _ratio_str(num, den) == fraction_str(Fraction(num, den))
    if whole:
        assert _ratio_str(num) == fraction_str(num)


def test_ratio_str_past_the_digit_limit_on_both_sides():
    p, q = 7 * 10**4999 + 3, 3 * 10**4999 + 1  # coprime up to a factor 2 (7q - 3p = -2)
    for num, den in ((p, q), (-2 * p, 2 * q), (p * q, q), (0, q)):
        assert _ratio_str(num, den) == fraction_str(Fraction(num, den))


def _decimal_oracle(num: int, den: int) -> str:
    """Decimal division at 20 significant digits, round-half-even, in a local
    copy of the thread's context: what _decimal_ratio's one fixed context
    must print too."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 20, ROUND_HALF_EVEN
        return str(Decimal(num) / Decimal(den))


# half-way at the 21st significant digit: 20 digits, then a 5
_HALF_WAY = st.builds(lambda head: 10 * head + 5, st.integers(10**19, 10**20 - 1))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(-10**45, 10**45), _HALF_WAY, _HALF_WAY.map(int.__neg__), st.just(0)),
       st.integers(1, 10**30), st.integers(-40, 40), st.sampled_from([0, 0, 0, MAX_INT_DIGITS + 7]),
       st.booleans(), st.integers(1, 10**6))
def test_decimal_ratio_prints_what_decimal_division_prints(num, den, shift, big, half_way, common):
    # ties at the 21st digit (num/10^k), negatives, zero, values printed in E
    # notation (|shift| past 20 or the leading digit below 10^-6), both parts
    # past the int-to-str digit limit, and pairs with a common factor
    if half_way:
        den = 1
    num, den = num * 10**max(shift, 0) * 10**big, den * 10**max(-shift, 0) * 10**big
    want = _decimal_oracle(num, den)
    assert _decimal_ratio(num, den) == want
    assert _decimal_ratio(num * common, den * common) == want
    assert decimal_str(Fraction(num, den)) == want


def test_decimal_ratio_rounds_ties_to_even_and_carries():
    tiny = 10**20
    for num, den, want in [
        (tiny + 5, tiny, "1.0000000000000000000"),  # half-way, even 20th digit stays
        (tiny + 15, tiny, "1.0000000000000000002"),  # half-way, odd 20th digit goes up
        (-tiny - 15, tiny, "-1.0000000000000000002"),
        (10**21 - 5, 1, "1.0000000000000000000E+21"),  # the carry makes a 21st digit
        (10**20 - 5, 1, "99999999999999999995"),  # 20 digits: exact
        (25, 10, "2.5"), (1000, 1, "1000"), (10**25, 1, "1.0000000000000000000E+25"),
        (1, 10**6, "0.000001"), (1, 10**7, "1E-7"), (12, 10**8, "1.2E-7"), (0, 3, "0"),
    ]:
        assert _decimal_ratio(num, den) == _decimal_oracle(num, den) == want, (num, den)


def test_decimal_rendering_ignores_the_callers_context():
    pairs = [(2, 3), (-2, 3), (10**25, 1), (1, 10**7), (10**20 + 15, 10**20), (12345, 1)]
    outside = [(_decimal_ratio(num, den), decimal_str(Fraction(num, den))) for num, den in pairs]
    with localcontext(Context(prec=3, rounding=ROUND_DOWN, capitals=0)):
        inside = [(_decimal_ratio(num, den), decimal_str(Fraction(num, den))) for num, den in pairs]
    assert inside == outside
    assert outside[0][0] == "0.66666666666666666667" and outside[2][0] == "1.0000000000000000000E+25"


def test_decimal_context_has_open_exponent_limits():
    # white-box: a value past the default context's 10^999999, whose Decimal
    # division would raise Overflow, is an int of a million digits, and its
    # conversion to Decimal alone takes about 17 s
    assert (rational._DECIMAL.Emax, rational._DECIMAL.Emin) == (MAX_EMAX, MIN_EMIN)


def _digit_runs(lengths):
    """Digit strings: ASCII and other decimal digits, leading zeros, underscores,
    and runs of MAX_INT_DIGITS digits and one more."""
    alphabet = st.sampled_from("0123456789" * 3 + "\u0663\uff17\u0966_")
    short = st.text(alphabet, max_size=6)
    return st.one_of(short, st.builds(lambda length, lead, digit: lead * (length - 1) + digit,
                                      st.sampled_from(lengths), st.sampled_from("019"),
                                      st.sampled_from("0123456789\u0663")))


@st.composite
def literal_texts(draw):
    """Strings near the plain integer and p/q literals: signs, whitespace,
    zero denominators, decimals, exponents and literals at the digit limit."""
    runs = _digit_runs((MAX_INT_DIGITS - 1, MAX_INT_DIGITS, MAX_INT_DIGITS + 1))
    sign = st.sampled_from(["", "", "-", "+", "--", "+-"])
    space = st.sampled_from(["", "", " ", "\t", "\n "])
    text = draw(sign) + draw(runs)
    tail = draw(st.sampled_from(["", "", "/", ".", "e"]))
    if tail:
        text += tail + draw(st.sampled_from(["", "-", "+"])) + draw(runs)
    return draw(space) + text + draw(space)


@settings(max_examples=400, deadline=None)
@given(literal_texts())
@example("5/0")
@example("-0/00")
@example(" 3/0")
@example("+7/" + "0" * MAX_INT_DIGITS)
@example("1" * MAX_INT_DIGITS + "/" + "7" * (MAX_INT_DIGITS + 1))
@example("\u0663/\uff17")
def test_literals_read_as_the_decimal_path_reads_them(text):
    # the same value, or a ValueError with the same text
    try:
        want = decimal_rational(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            as_rational(text)
        assert str(got.value) == str(exc)
    else:
        got = as_rational(text)
        assert type(got) is Fraction and got == want


def test_plain_literals_past_a_lowered_int_digit_limit_are_exact():
    # int() refuses what the interpreter limit forbids; such a literal reads as
    # it did through Decimal
    p, q = "7" * 1000, "3" * 999 + "1"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = [as_rational(p), as_rational(f"-{p}/{q}"), as_rational("12/4")]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == [Fraction(int(p)), Fraction(-int(p), int(q)), 3]


@pytest.mark.parametrize("text", ["9" * 4999 + "x", "1/" + "0" * 5000, "NaN", "-Infinity", "1__0"])
def test_unreadable_literals_are_refused_briefly(text):
    with pytest.raises(ValueError) as exc:
        as_rational(text)
    assert len(str(exc.value)) < 100


def _items(f: HomogeneousPolynomial) -> "tuple[int, int, list]":
    """f's fields, with its coefficients in key order; every one a plain Fraction."""
    assert all(type(c) is Fraction for c in f.coeffs.values())
    return f.n, f.d, list(f.coeffs.items())


def _json_coef(coef):
    """A coefficient as JSON reads it back: ints stay ints, all else is a string."""
    return coef if type(coef) is int else str(coef)


@settings(max_examples=200, deadline=None)
@given(term_lists(), st.booleans())
def test_from_terms_sums_repeats_once_and_keeps_the_key_order(case, infer):
    n, d, terms = case
    if infer and not terms:
        with pytest.raises(ValueError, match="cannot infer the degree"):
            HomogeneousPolynomial.from_terms(n, terms)
        return
    got = HomogeneousPolynomial.from_terms(n, terms, d=None if infer else d)
    assert _items(got) == reference_terms(n, None if infer else d, terms)
    # the constructor reads the same table the same way
    assert _items(HomogeneousPolynomial(n, d, dict(got.coeffs))) == _items(got)


@settings(max_examples=100, deadline=None)
@given(term_lists(lower_degrees=True), st.booleans())
def test_load_polynomial_matches_the_reference(tmp_path_factory, case, homogenize_terms):
    n, d, terms = case
    if not homogenize_terms:
        terms = [(alpha, coef) for alpha, coef in terms if sum(alpha) == d]
    path = tmp_path_factory.mktemp("load") / "poly.json"
    path.write_text(json.dumps({"n": n, "degree": d, "terms": [
        {"alpha": list(alpha), "coef": _json_coef(coef)} for alpha, coef in terms]}))
    got = load_polynomial(str(path), homogenize_terms=homogenize_terms)
    want = (reference_homogenize if homogenize_terms else reference_terms)(n, d, terms)
    assert _items(got) == want


def test_a_fraction_subclass_is_stored_as_a_fraction():
    half = FractionSubclass(1, 2)
    for f in (HomogeneousPolynomial(1, 1, {(1,): half}),
              HomogeneousPolynomial.from_terms(1, [((1,), half)]),
              HomogeneousPolynomial.from_terms(1, [((1,), half), ((1,), half)])):
        assert type(f.coeffs[(1,)]) is Fraction
    assert HomogeneousPolynomial.from_terms(1, [((1,), half), ((1,), half)]).coeffs == {(1,): 1}


# Files with two faults each, and the first error reported for them, recorded
# while every coefficient was still parsed again by the constructor
TWO_FAULT_FILES = {
    "bad-coef-after-low-degree": (
        '{"n": 2, "degree": 2, "terms": [{"alpha": [1, 0], "coef": "1"}, '
        '{"alpha": [1, 1], "coef": "x"}]}',
        False, "cannot parse 'x' as an exact rational"),
    "long-exponent-sorts-before-negative": (
        '{"n": 2, "terms": [{"alpha": [3, -1], "coef": 1}, {"alpha": [1, 1, 0], "coef": 1}]}',
        False, "exponent (1, 1, 0) has length 3, expected 2"),
    "no-variables-and-long-exponent": (
        '{"n": 0, "terms": [{"alpha": [1, 1], "coef": "1"}]}',
        False, "polynomial needs at least one variable"),
    "degree-0-and-short-exponent": (
        '{"n": 2, "degree": 0, "terms": [{"alpha": [1], "coef": "1"}]}',
        False, "degree must be at least 1"),
    "repeated-exponent-both-coefs-bad": (
        '{"n": 2, "terms": [{"alpha": [1, 1], "coef": "1/0"}, {"alpha": [1, 1], "coef": "y"}]}',
        False, "zero denominator in '1/0'"),
    "cancelled-terms-of-the-wrong-degree": (
        '{"n": 2, "degree": 3, "terms": [{"alpha": [1, 1], "coef": "1/2"}, '
        '{"alpha": [1, 1], "coef": "-0.5"}, {"alpha": [3], "coef": 1}]}',
        False, "monomial (1, 1) has degree 2, expected 3"),
    "float-exponent-and-bad-coef": (
        '{"n": 2, "terms": [{"alpha": [1.5, 0], "coef": "z"}]}',
        False, "exponent must be a JSON integer (no point, exponent or quotes), got 3/2"),
    "homogenize-high-degree-then-short": (
        '{"n": 2, "degree": 1, "terms": [{"alpha": [2, 0], "coef": 1}, {"alpha": [1], "coef": 1}]}',
        True, "monomial (2, 0) has degree 2 > target degree 1"),
    "homogenize-negative-then-high-degree": (
        '{"n": 2, "degree": 1, "terms": [{"alpha": [-1, 1], "coef": 1}, '
        '{"alpha": [2, 0], "coef": 1}]}',
        True, "negative exponent in (-1, 1)"),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULT_FILES))
def test_two_fault_files_report_the_first_fault(tmp_path, case):
    text, homogenize_terms, message = TWO_FAULT_FILES[case]
    path = tmp_path / "poly.json"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_polynomial(str(path), homogenize_terms=homogenize_terms)
    assert str(exc.value) == message
