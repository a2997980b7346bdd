"""Certified error coefficients for grid minimization over the simplex.

Every bound is reported as an exact rational coefficient of the (generally
unknown) range of function values: grid error <= coefficient * (fmax - fmin).
Absolute statements are derived on demand through the certified enclosures of
fmin and fmax from range_enclosures, so every emitted inequality stays
certified; their outer endpoints are the extreme simplicial Bernstein
coefficients of f elevated by k, which the sweep engine's integer kernel
computes (grid._bernstein_extrema).  Inapplicability (wrong degree, r out of
range, m too small) is data, not an error.

Each coefficient is computed as an integer pair (numerator, positive
denominator), not necessarily reduced: bound_coefficient makes one Fraction of
it, and converge renders its bound columns from the pairs with one gcd each
(_coefficient_texts), with no Fraction.  The enclosures are pairs as well:
_enclosures gives their four endpoints as pairs, the Bernstein ones from
grid._bernstein_extrema and the grid ones from the sweep plan it is given
(grid._Plan.extremes, (L*min, L*max, L*r^d) per r, swept once per plan and
kept); range_enclosures makes them Enclosures at the end.  No function here
refuses a grid, a thread count or a point guard: each caller builds one plan
with every denominator it will sweep, and building it admits them all before
any table (grid._Plan), so threads and the guard travel in the plan.  The
one exception is `sgo converge`, decided here whole by _converge_rows: it
refuses the total of its grids and its row count before its one plan admits
them, sweeps the enclosures from that plan, then reads it once per r for a
row.  The normalized-error interval of a row comes from _rho, which
cross-multiplies the grid pairs with the enclosure endpoints in integers;
rho_interval is _rho made a Fraction pair at the end, and the one reader of
Enclosures as pairs (_ends).  The bound witnesses come from pairs too:
_coefficient_table lists the coefficients that apply at each (r, m) of one
degree, and _witness_rows builds one sweep plan per polynomial for the
table's grids and the enclosures', then makes each gap
grid_min(r) - grid_min(m) from the plan's kept extremes and each coefficient
times the range bound, and decides holds by cross-multiplying; check_bounds
makes its Fractions from them at the end, and `sgo verify` renders them with
one gcd each.

Kinds and their coefficients, for degree d, grid denominator r, and reference
denominator m with k chosen so that (k-1)m < r <= km:

  KLS_QUAD         1/r                                     (d = 2)
  KLS_GENERAL      (1 - rfd/r^d) * C(2d-1,d) * d^d
  QUAD_REFINED     (m-r) / (r(m-1))                        (d = 2, r <= m)
  QUAD_DENOM       m/r^2                                   (d = 2)
  CUBIC_KLS        4/r - 4/r^2                             (d = 3, r >= 2)
  SQFREE_KLS       1 - rfd/r^d                             (square-free f)
  CUBIC_REFINED    (m-r)(4mr-2m-2r) / (r^2(m-1)(m-2))      (d = 3, r <= m, m >= 3)
  SQFREE_REFINED   1 - (rfd/r^d)(m^d/mfd)                  (square-free f, r <= m, m >= d)
  GENERAL_REFINED  (1 - (rfd m^d)/(r^d mfd)) * C(2d-1,d) * d^d   (r <= m, m >= d)
  CUBIC_RHO        m^2/(r^2(m-2)) if r <= m else 6m/r^2    (d = 3, m >= 3)
  GENERAL_RHO      (m/r^2) * c_d * C(2d-1,d) * d^d         (d >= 2, m >= d)

where rfd/mfd are the falling factorials of r/m and c_d = (d-1)(d!-1)
(combin.rate_constant).  The *_RHO and QUAD_DENOM kinds hold for every r >= 1
(the analysis passes through the refined bound at denominator km).  The two
gap forms 1 - rfd/r^d and 1 - (rfd m^d)/(r^d mfd) are combin's _kls_gap and
_refined_gap, whose expressions `sgo verify` checks (identities).

Each kind is one entry of the rule table _RULES, keyed by its name in the
order above; BoundKind and ALL_KINDS are made from that table.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .combin import _kls_gap, _refined_gap, binomial, composition_count, rate_constant
from .grid import DEFAULT_GRID_GUARD, GridTooLargeError, _bernstein_extrema, _grid_size, _Plan
from .poly import HomogeneousPolynomial, is_square_free
from .rational import Enclosure, _as_int, _decimal_ratio, _Record, _ratio_str, as_rational, decimal_str

# The highest elevation an enclosure takes: its Bernstein table grows as
# C(n - 1 + k, n - 1) per monomial (_MAX_ENCLOSURE_ENTRIES bounds it).
_MAX_ELEVATION = 8
# The most entries the Bernstein table of an enclosure (_bernstein_extrema) may
# hold, |support| * C(n - 1 + k, n - 1) at elevation k, refused before any sweep.
# A table whose entries each make their own field costs most, about 0.5 KB per
# entry at its peak: on a 2-vCPU Xeon VM (Python 3.11, _bernstein_extrema alone
# in a fresh process, ru_maxrss, median of 5), x_1^4 takes 0.61 s and peaks at
# 88 MB with 27 variables at k = 5 (1.7e5 entries), 0.48 s and 76 MB with 13 at
# k = 8 (1.3e5), and 2.1 s and 252 MB with 16 at k = 8 (4.9e5), past the
# bound; a dense one shares its fields, and n = 10, d = 3 (220 terms) at k = 4
# (1.6e5) takes 0.06 s and 18 MB alone, 0.16 s and 18 MB through `sgo enclose
# --r 1`.  The largest table of the test suite holds 660 entries, and of
# perfbench 525.
_MAX_ENCLOSURE_ENTRIES = 2 * 10**5
# Most rows of a table: the reports bound_table makes, r values * m values *
# kinds, and the r values of `sgo converge`, each checked before any.  `sgo
# bounds` prints one row per report: at this maximum its JSON is 19 MB, made
# in about 1.5 s with a peak RSS of 51 MB on a 2-vCPU Xeon VM (stdout to a
# file).
_MAX_BOUND_ROWS = 10**5
# Most bits the coefficients of a bound_table may hold, estimated before any
# report as rows * d * (bit_length(4d) + 2 * bit_length(r * m)), r and m the
# largest of their values: no coefficient's numerator or denominator reaches
# (4d)^d * (r * m)^(2d), since C(2d-1, d) * d^d < (4d)^d.  Near this maximum,
# on a 2-vCPU Xeon VM, `sgo bounds` takes 1.0-1.1 s at d = 4 * 10^4 and one r,
# and 1.1-1.3 s at d = 1.8 * 10^4, one r and m = d; d = 10^5 (2.5e7) takes
# 6.8-7.0 s.
_MAX_BOUND_BITS = 10**7


class DegenerateRangeError(ValueError):
    """The enclosures cannot certify that fmax exceeds fmin."""


class BoundReport(_Record):
    """One evaluated bound coefficient, or the reason it does not apply."""

    __slots__ = __match_args__ = (
        "kind", "d", "r", "m", "k", "coefficient", "applicable", "reason",
    )

    def __init__(
        self, kind: BoundKind, d: int, r: int, m: "int | None", k: "int | None",
        coefficient: "Fraction | None", applicable: bool, reason: str = "",
    ) -> None:
        self._set(kind, d, r, m, k, coefficient, applicable, reason)


class _Rule(_Record):
    """How one kind is evaluated.  needs_m: the coefficient reads m, so the
    report echoes k.  conditions: (holds(d, r, m), reason) pairs, tested in
    order; the first that fails is the report's reason.  coefficient(d, r, m):
    the coefficient where the kind applies, as an integer pair (numerator,
    positive denominator), not necessarily reduced.  square_free: the
    statement also needs a square-free polynomial (checked by check_bounds)."""

    __slots__ = __match_args__ = ("needs_m", "conditions", "coefficient", "square_free")

    def __init__(
        self, needs_m: bool,
        conditions: "tuple[tuple[Callable[[int, int, int], bool], str], ...]",
        coefficient: "Callable[[int, int, int], tuple[int, int]]", square_free: bool = False,
    ) -> None:
        self._set(needs_m, conditions, coefficient, square_free)


_DEGREE_2 = (lambda d, r, m: d == 2, "stated for degree 2 only")
_DEGREE_3 = (lambda d, r, m: d == 3, "stated for degree 3 only")
_R_AT_MOST_M = (lambda d, r, m: r <= m, "needs r <= m")
_M_AT_LEAST_3 = (lambda d, r, m: m >= 3, "needs m >= 3")
_M_AT_LEAST_D = (lambda d, r, m: m >= d, "needs m >= d")


def _bernstein_gap_factor(d: int) -> int:
    """C(2d-1, d) * d^d, the Bernstein-range-to-value-range factor."""
    return binomial(2 * d - 1, d) * d**d


_RULES = {
    "KLS_QUAD": _Rule(False, (_DEGREE_2,), lambda d, r, m: (1, r)),
    "KLS_GENERAL": _Rule(False, (), lambda d, r, m: _kls_gap(d, r, _bernstein_gap_factor(d))),
    "QUAD_REFINED": _Rule(
        True, (_DEGREE_2, _R_AT_MOST_M),
        # m = 1 forces r = 1: both grids are vertices
        lambda d, r, m: (m - r, r * (m - 1)) if m > 1 else (0, 1),
    ),
    "QUAD_DENOM": _Rule(True, (_DEGREE_2,), lambda d, r, m: (m, r * r)),
    "CUBIC_KLS": _Rule(
        False, (_DEGREE_3, (lambda d, r, m: r >= 2, "needs r >= 2")),
        lambda d, r, m: (4 * (r - 1), r * r),
    ),
    "SQFREE_KLS": _Rule(False, (), lambda d, r, m: _kls_gap(d, r), square_free=True),
    "CUBIC_REFINED": _Rule(
        True, (_DEGREE_3, _M_AT_LEAST_3, _R_AT_MOST_M),
        lambda d, r, m: ((m - r) * (4 * m * r - 2 * m - 2 * r), r * r * (m - 1) * (m - 2)),
    ),
    "SQFREE_REFINED": _Rule(
        True, (_M_AT_LEAST_D, _R_AT_MOST_M), lambda d, r, m: _refined_gap(d, r, m),
        square_free=True,
    ),
    "GENERAL_REFINED": _Rule(
        True, (_M_AT_LEAST_D, _R_AT_MOST_M),
        lambda d, r, m: _refined_gap(d, r, m, _bernstein_gap_factor(d)),
    ),
    "CUBIC_RHO": _Rule(
        True, (_DEGREE_3, _M_AT_LEAST_3),
        lambda d, r, m: (m * m, r * r * (m - 2)) if r <= m else (6 * m, r * r),
    ),
    "GENERAL_RHO": _Rule(
        True, ((lambda d, r, m: d >= 2, "rate constant defined for degree >= 2"), _M_AT_LEAST_D),
        lambda d, r, m: (m * rate_constant(d) * _bernstein_gap_factor(d), r * r),
    ),
}

# the kinds, named and ordered as _RULES lists their rules
BoundKind = Enum("BoundKind", [(name, name) for name in _RULES], type=str, module=__name__)
ALL_KINDS = tuple(BoundKind)
# kinds whose statement requires the polynomial to be square-free
SQUARE_FREE_KINDS = frozenset(kind for kind in ALL_KINDS if _RULES[kind].square_free)


def bound_coefficient(
    kind: "BoundKind | str", *, d: int, r: int, m: "int | None" = None
) -> BoundReport:
    """Exact coefficient of (fmax - fmin) for one bound kind.

    k (the multiple with (k-1)m < r <= km) is derived internally and echoed
    in the report for the kinds whose proof uses the grid at denominator km.
    """
    kind = BoundKind(kind)
    d, r, m = _check_arguments(d, r, m)
    rule = _RULES[kind]
    reason = _reason(rule, d, r, m)
    if reason:
        return BoundReport(kind=kind, d=d, r=r, m=m, k=None, coefficient=None,
                           applicable=False, reason=reason)
    return BoundReport(
        kind=kind, d=d, r=r, m=m,
        k=-(-r // m) if rule.needs_m else None,  # ceil(r/m), so (k-1)m < r <= km
        coefficient=Fraction(*rule.coefficient(d, r, m)), applicable=True,
    )


def _check_arguments(d: int, r: int, m: "int | None") -> "tuple[int, int, int | None]":
    """d, r and m as ints (rational._as_int; TypeError), after refusing
    (ValueError) a degree or grid denominator below 1, or an m below 1."""
    d, r, m = _as_int(d), _as_int(r), None if m is None else _as_int(m)
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if r < 1:
        raise ValueError(f"grid denominator must be positive, got {r}")
    if m is not None and m < 1:
        raise ValueError(f"reference denominator must be positive, got {m}")
    return d, r, m


def _reason(rule: _Rule, d: int, r: int, m: "int | None") -> str:
    """Why the kind of rule does not apply at (d, r, m), or "" when it does."""
    if rule.needs_m and m is None:
        return "needs the reference denominator m"
    return next((reason for holds, reason in rule.conditions if not holds(d, r, m)), "")


def _coefficient_texts(d: int, r: int, m: "int | None") -> "list[str]":
    """The coefficient of every kind in ALL_KINDS at (d, r, m), as fraction_str
    renders bound_coefficient's, or "" for a kind that does not apply: the
    bound columns of one converge row, rendered from the integer pairs with no
    Fraction (ALL_KINDS is made from _RULES, so the orders agree).  The
    arguments must be valid for bound_coefficient: d, r >= 1, m None or >= 1."""
    return ["" if _reason(rule, d, r, m) else _ratio_str(*rule.coefficient(d, r, m))
            for rule in _RULES.values()]


# --- certified range machinery --------------------------------------------------


class RangeAssumptions(_Record):
    """How to enclose the unknown simplex extrema of a polynomial.

    elevation controls the Bernstein side.  assume_min_denominator (resp.
    max) asserts that the simplex minimum (maximum) is attained on the grid
    with that denominator, collapsing that side of the enclosure to an exact
    grid value; results derived from an assumption are only as good as the
    assumption.  grid names a sampling denominator for the inner endpoints of
    the unassumed sides; without one they are the opposite Bernstein
    extremes, which rho_interval tightens with the grid values at its r.
    Each field other than None must be an integer (rational._as_int; TypeError),
    and an elevation outside 0.._MAX_ELEVATION is refused (ValueError), whether
    or not a side reads it.
    """

    __slots__ = __match_args__ = (
        "elevation", "grid", "assume_min_denominator", "assume_max_denominator",
    )

    def __init__(
        self, elevation: int = 0, grid: "int | None" = None,
        assume_min_denominator: "int | None" = None,
        assume_max_denominator: "int | None" = None,
    ) -> None:
        self._set(_as_int(elevation), *[None if m is None else _as_int(m) for m in (
            grid, assume_min_denominator, assume_max_denominator)])
        if self.elevation < 0:
            raise ValueError("elevation must be nonnegative")
        if self.elevation > _MAX_ELEVATION:
            raise ValueError(f"elevation {self.elevation} exceeds the cap {_MAX_ELEVATION}")


def swept_denominators(params: RangeAssumptions) -> "list[int]":
    """The grid denominators range_enclosures sweeps, each once: params.grid
    while a side is unassumed (it serves only those), then the assumed ones."""
    lo_m, hi_m = params.assume_min_denominator, params.assume_max_denominator
    grid = params.grid if lo_m is None or hi_m is None else None
    return [m for m in dict.fromkeys((grid, lo_m, hi_m)) if m is not None]


def range_enclosures(
    f: HomogeneousPolynomial,
    params: RangeAssumptions = RangeAssumptions(),
    *,
    threads: int = 1,
    max_points: "int | None" = DEFAULT_GRID_GUARD,
) -> "tuple[Enclosure, Enclosure]":
    """Certified enclosures (of fmin, of fmax) of the simplex extrema of f.

    A side with an assumed denominator is that grid's exact extremum.  An
    unassumed side runs from the extreme Bernstein coefficient of f elevated
    by params.elevation (outer endpoint) to the grid extremum at params.grid,
    or to the opposite Bernstein extreme when no grid is named (inner
    endpoint).  Each named denominator is swept once for both sides, before
    the one Bernstein table is built; none is built when both sides are
    assumed.  The sweep plan admits threads, max_points and every named grid
    (grid._Plan) before any work, and a table past _MAX_ENCLOSURE_ENTRIES
    entries is refused (ValueError) before any sweep.  An assumed side is
    refuted (ValueError) when another grid swept here has a more extreme
    value.  It is _enclosures, made Enclosures at the end.
    """
    plan = _Plan(f, swept_denominators(params), threads, max_points)
    lo_lo, lo_hi, hi_lo, hi_hi = [Fraction(*end) for end in _enclosures(plan, params)]
    return Enclosure(lo_lo, lo_hi), Enclosure(hi_lo, hi_hi)


def _enclosures(plan: _Plan, params: RangeAssumptions) -> "tuple[tuple[int, int], ...]":
    """range_enclosures of the plan's polynomial in integers: fmin.lo,
    fmin.hi, fmax.lo and fmax.hi as (numerator, positive denominator) pairs,
    not reduced, the form _refute and _rho read.  The plan must have admitted
    swept_denominators(params); the grid extremes of each stay in it
    (_Plan.extremes)."""
    f = plan.f
    lo_m, hi_m = params.assume_min_denominator, params.assume_max_denominator
    bernstein = lo_m is None or hi_m is None
    k = params.elevation
    # each monomial of f lies under C(n - 1 + k, n - 1) rows of the table
    entries = len(f.coeffs) * binomial(f.n - 1 + k, f.n - 1)
    if bernstein and entries > _MAX_ENCLOSURE_ENTRIES:  # refused before any sweep
        raise ValueError(f"the Bernstein table at elevation {k} would hold "
                         f"{decimal_str(entries)} entries, more than {_MAX_ENCLOSURE_ENTRIES}")
    values = {}  # (minimum, maximum) of each swept grid, as pairs
    for m in swept_denominators(params):
        low, high, den = plan.extremes(m)
        values[m] = (low, den), (high, den)
    if bernstein:
        outer_min, outer_max = _bernstein_extrema(plan, k)
        inner_min, inner_max = (outer_max, outer_min) if params.grid is None else values[params.grid]
    fmin = (outer_min, inner_min) if lo_m is None else (values[lo_m][0],) * 2
    fmax = (inner_max, outer_max) if hi_m is None else (values[hi_m][1],) * 2
    _refute((*fmin, *fmax), [(m, *plan.grids[m]) for m in values])
    return (*fmin, *fmax)


def _ends(fmin: Enclosure, fmax: Enclosure) -> "tuple[tuple[int, int], ...]":
    """fmin.lo, fmin.hi, fmax.lo and fmax.hi as (numerator, denominator) pairs,
    the form _enclosures gives and _rho reads."""
    return tuple([(x.numerator, x.denominator) for x in (fmin.lo, fmin.hi, fmax.lo, fmax.hi)])


def _refute(ends: "tuple[tuple[int, int], ...]",
            grids: "list[tuple[int | str, int, int, int]]") -> None:
    """Raise ValueError when a grid value falls outside the enclosures, which
    refutes an assumed side: ends are the enclosure endpoints as _enclosures
    gives them, and grids holds (denominator, grid minimum, grid maximum, common
    positive denominator) tuples of integers, the grid's denominator as the
    message names it.  A minimum below fmin is reported before a maximum above
    fmax, each at the first such grid.  An unassumed side, whose outer
    endpoint is a Bernstein extreme, holds every grid value, so only an
    assumed side is refuted."""
    (a, b), _, _, (p, q) = ends
    for grid, low, _, den in grids:
        if low * b < a * den:
            raise ValueError("assumed minimizer denominator is inconsistent: its grid value "
                             f"exceeds the grid minimum at {grid}")
    for grid, _, high, den in grids:
        if high * q > p * den:
            raise ValueError("assumed maximizer denominator is inconsistent: its grid value "
                             f"is below the grid maximum at {grid}")


def rho_interval(
    fmin: Enclosure, fmax: Enclosure, grid_min: Fraction, grid_max: Fraction
) -> Enclosure:
    """Certified interval for the normalized grid error at one denominator r.

    The normalized error is (grid_min - fmin) / (fmax - fmin), where grid_min
    and grid_max are the exact grid extrema at r and fmin, fmax are enclosed
    as by range_enclosures; it always lies in [0, 1].  Grid values refute an
    assumed side when they fall outside it (ValueError); otherwise they
    tighten the inner endpoints.  Raises DegenerateRangeError when the
    enclosures cannot separate fmax from fmin (for instance the zero
    polynomial).  The interval collapses to a point when the numerator is
    certified zero (the minimizer lies on the grid) or when both extrema are
    pinned by assumed denominators.  grid_min and grid_max are read by
    as_rational, which refuses a float or a bool (TypeError).  It is _rho on
    the grid values over one denominator, made a Fraction pair at the end.
    """
    low, high = as_rational(grid_min), as_rational(grid_max)
    lo_num, lo_den, hi_num, hi_den = _rho(
        _ends(fmin, fmax), low.numerator * high.denominator, high.numerator * low.denominator,
        low.denominator * high.denominator,
    )
    return Enclosure(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))


def _rho(ends: "tuple[tuple[int, int], ...]", low: int, high: int,
         den: int) -> "tuple[int, int, int, int]":
    """rho_interval in integers: the grid minimum low/den and maximum high/den
    (den > 0) against the enclosure endpoints `ends` (_enclosures), cross-multiplied
    with no Fraction.  Returns the interval's ends as (numerator, positive
    denominator) pairs, not reduced, lo's then hi's; converge renders them
    with one gcd each.  With [a, c] enclosing fmin and [g, p] fmax, fmax - fmin
    lies between gap = max(g, grid max) - min(c, grid min) and span = p - a,
    and rho runs from (grid min - min(c, grid min)) / span to (grid min - a) /
    gap, capped at 1."""
    _refute(ends, [("r", low, high, den)])
    (a, b), (c, e), (g, h), (p, q) = ends
    u, v = (c, e) if c * den < low * e else (low, den)  # min(fmin.hi, grid min)
    x, y = (g, h) if g * den > high * h else (high, den)  # max(fmax.lo, grid max)
    gap, gap_den = x * v - u * y, y * v
    span, span_den = p * b - a * q, q * b
    if gap <= 0:
        raise DegenerateRangeError(
            "degenerate range: cannot certify that fmax exceeds fmin (range enclosure gap "
            f"is [{_ratio_str(gap, gap_den)}, {_ratio_str(span, span_den)}])"
        )
    hi_num, hi_den = (low * b - a * den) * gap_den, den * b * gap
    return ((low * v - u * den) * span_den, den * v * span,
            *((1, 1) if hi_num >= hi_den else (hi_num, hi_den)))


def _converge_rows(f: HomogeneousPolynomial, r_values: range, params: RangeAssumptions,
                   threads: int, max_points: "int | None") -> "list[list]":
    """The rows `sgo converge` prints for f over r_values, each r once: r, the
    grid minimum as a fraction and as an advisory decimal, rho_lo and rho_hi
    (_rho, both "degenerate" on a DegenerateRangeError), and the coefficient
    of every kind at (f.d, r, params.assume_min_denominator) (_coefficient_texts).

    Refused before the sweep plan is built, in this order: an r < 1
    (ValueError), grids holding more than max_points points in total
    (GridTooLargeError; None lifts it): every r of the range, plus the
    denominators the enclosures sweep (swept_denominators) outside it, each
    grid counted once as it is swept once; then more than _MAX_BOUND_ROWS r
    values (ValueError).  The one plan admits each grid after them
    (grid._Plan), the enclosures are made from it (_enclosures), and each r
    reads it once.  The range is summed in closed form (hockey stick): sum
    over r = lo..hi of |I(n, r)| = |I(n + 1, hi)| - |I(n + 1, lo - 1)|, so a
    huge range costs nothing.
    """
    n, lo, hi = f.n, r_values[0], r_values[-1]
    swept = swept_denominators(params)
    _grid_size(n, lo, None)  # refuses lo < 1
    total = composition_count(n + 1, hi) - composition_count(n + 1, lo - 1)
    total += sum(_grid_size(n, q, None) for q in swept if q not in r_values)
    if max_points is not None and total > max_points:
        raise GridTooLargeError(
            f"the grids to sweep have {decimal_str(total)} points in all, budget is {max_points}"
        )
    count = _length(r_values)
    if count > _MAX_BOUND_ROWS:
        raise ValueError(
            f"converge would print {decimal_str(count)} rows, more than {_MAX_BOUND_ROWS}"
        )
    plan = _Plan(f, [*r_values, *swept], threads, max_points)
    ends = _enclosures(plan, params)
    rows = []
    for r in r_values:
        low, high, den = plan.extremes(r)
        try:
            lo_num, lo_den, hi_num, hi_den = _rho(ends, low, high, den)
            rho = [_ratio_str(lo_num, lo_den), _ratio_str(hi_num, hi_den)]
        except DegenerateRangeError:
            rho = ["degenerate"] * 2
        rows.append([r, _ratio_str(low, den), _decimal_ratio(low, den), *rho,
                     *_coefficient_texts(f.d, r, params.assume_min_denominator)])
    return rows


class BoundWitness(_Record):
    """One checked instance of grid error against a bound coefficient that
    applies.

    lhs is the exact grid-minimum gap between denominators r and m; rhs is
    coefficient * (certified upper bound on the range).  holds must be true
    on every instance.
    """

    __slots__ = __match_args__ = (
        "kind", "d", "r", "m", "lhs", "coefficient", "range_bound", "rhs", "holds",
    )

    def __init__(
        self, kind: BoundKind, d: int, r: int, m: int, lhs: Fraction,
        coefficient: Fraction, range_bound: Fraction, rhs: Fraction, holds: bool,
    ) -> None:
        self._set(kind, d, r, m, lhs, coefficient, range_bound, rhs, holds)


def check_bounds(
    f: HomogeneousPolynomial,
    pairs: "Sequence[tuple[int, int]]",
    params: RangeAssumptions = RangeAssumptions(),
) -> "list[BoundWitness]":
    """Witness grid_min(r) - grid_min(m) <= coefficient * range for every kind
    that applies.

    Returns one witness per (r, m) in pairs and kind in ALL_KINDS, pair by
    pair, for the kinds that apply at (f.d, r, m) and to f: bound_coefficient
    gives the reason a kind does not, and the SQUARE_FREE_KINDS need a
    square-free f.  When none applies nothing is swept.  Otherwise every
    grid of the pairs is refused as grid_minimize refuses it (the grid guard
    too) before any sweep, the enclosures run once, and each denominator is
    swept once, those params names by the enclosures.  It is _witness_rows
    on the pairs' _coefficient_table, made Fractions at the end.
    """
    span, rows = _witness_rows(f, _coefficient_table(f.d, pairs), params)
    range_bound = Fraction(*span)
    return [BoundWitness(kind=BoundKind(name), d=f.d, r=r, m=m, lhs=Fraction(*lhs),
                         coefficient=Fraction(num, den), range_bound=range_bound,
                         rhs=Fraction(*rhs), holds=holds)
            for (name, _, r, m, num, den), lhs, rhs, holds in rows]


def _pair_reports(d: int, pairs: "Sequence[tuple[int, int | None]]") -> "list[BoundReport]":
    """bound_coefficient of every kind at each (r, m) in pairs, pair by pair."""
    return [bound_coefficient(kind, d=d, r=r, m=m) for r, m in pairs for kind in ALL_KINDS]


def _coefficient_table(
    d: int, pairs: "Sequence[tuple[int, int]]"
) -> "list[tuple[str, bool, int, int, int, int]]":
    """(kind name, square_free, r, m, numerator, positive denominator) of every
    kind that applies at (d, r, m), for each (r, m) in pairs, pair by pair in
    ALL_KINDS order: the coefficients of check_bounds, as integer pairs and
    with no report.  It reads only the degree of f, so that many polynomials
    of one degree can share it.  Arguments are refused as bound_coefficient
    refuses them."""
    table = []
    for r, m in pairs:
        _check_arguments(d, r, m)
        table += [(name, rule.square_free, r, m, *rule.coefficient(d, r, m))
                  for name, rule in _RULES.items() if not _reason(rule, d, r, m)]
    return table


def _witness_rows(
    f: HomogeneousPolynomial,
    table: "Sequence[tuple[str, bool, int, int, int, int]]",
    params: RangeAssumptions = RangeAssumptions(),
) -> "tuple[tuple[int, int], list[tuple[tuple, tuple[int, int], tuple[int, int], bool]]]":
    """check_bounds of f in integer pairs, for a _coefficient_table(f.d, pairs):
    the range bound fmax.hi - fmin.lo, and for each entry whose kind applies
    to f, (entry, lhs, rhs, holds), with lhs = grid_min(r) - grid_min(m) and
    rhs = coefficient * range bound as (numerator, positive denominator)
    pairs, not reduced, and holds decided by cross-multiplying them.

    One sweep plan admits the table's grids and the enclosures', as
    grid_minimize admits its grid (grid._Plan), before any sweep, and serves
    them all, so each denominator is swept once (_Plan.extremes)."""
    square_free = is_square_free(f)
    table = [entry for entry in table if square_free or not entry[1]]
    if not table:
        return (0, 1), []
    grids = dict.fromkeys([q for entry in table for q in entry[2:4]] + swept_denominators(params))
    plan = _Plan(f, list(grids), 1, DEFAULT_GRID_GUARD)
    (a, b), _, _, (p, q) = _enclosures(plan, params)
    span, span_den = p * b - a * q, q * b
    rows = []
    for entry in table:
        _, _, r, m, num, den = entry
        (x, _, y), (u, _, v) = plan.extremes(r), plan.extremes(m)
        gap = (x * v - u * y, y * v)
        rhs = (num * span, den * span_den)
        rows.append((entry, gap, rhs, gap[0] * rhs[1] <= rhs[0] * gap[1]))
    return (span, span_den), rows


def bound_table(
    d: int, r_values: Sequence[int], m_values: "Sequence[int | None]"
) -> "list[BoundReport]":
    """Reports for every kind over a sweep of r (and optionally m).

    A table of more than _MAX_BOUND_ROWS reports, or whose coefficients could
    hold more than _MAX_BOUND_BITS bits, is refused (ValueError) before any
    report is made, as is a d, or a largest r or m, that is not an integer
    (rational._as_int; TypeError); bound_coefficient refuses the other values.
    """
    d = _as_int(d)
    rows = _length(r_values) * _length(m_values) * len(ALL_KINDS)
    if rows > _MAX_BOUND_ROWS:
        raise ValueError(
            f"bounds would print {decimal_str(rows)} rows, more than {_MAX_BOUND_ROWS}"
        )
    if not rows:
        return []
    top = _as_int(max(r_values)) * _as_int(max([m or 1 for m in m_values]))
    if rows * d * ((4 * d).bit_length() + 2 * top.bit_length()) > _MAX_BOUND_BITS:
        raise ValueError(f"bounds coefficients could hold more than {_MAX_BOUND_BITS} bits")
    return _pair_reports(d, [(r, m) for r in r_values for m in m_values])


def _length(values: Sequence) -> int:
    """len(values), also for a range past sys.maxsize, which len() cannot
    measure: a range is counted from its ends."""
    if isinstance(values, range):
        return max(0, -((values.start - values.stop) // values.step))
    return len(values)
