"""Exact verification of the combinatorial identities behind the error bounds.

Each check evaluates both sides of an identity (or inequality) in exact
arithmetic and records whether the stated relation holds.  The centerpiece is
the nonnegative correction term A_beta appearing in the moment decomposition
E[X^beta] = (counts/m)^beta * (r falling d)(m^d) / (r^d)(m falling d) + A_beta / (r^d (m falling d)),
whose multinomial-weighted sum collapses to r^d*(m falling d) - (r falling d)*m^d.

A_beta is computed grouped by |alpha|.  With d = |beta| and

  c_k(beta, counts) = sum over alpha <= beta, |alpha| = k of
                      prod falling(counts_i, alpha_i) * S(beta_i, alpha_i),

built by convolving one short row per coordinate,

  A_beta = sum_k c_k * (r falling k) * falling(m - k, d - k) - (r falling d) * prod counts_i^beta_i.

Each family has one evaluator (_stirling_sum, _kmr, _moment_sides, ...),
called only by that family's sweep; the two integer-point families,
Vandermonde-Chu and the multinomial theorem, are one expansion over falling
and over ordinary powers and share _integer_point, which takes the power as
hypergeom._stirling_terms does, and A_BETA_NONNEG and A_BETA_SUM, which read
the same A_beta values, share _a_beta_sides.  An evaluator takes parameters
the sweep's loop bounds have already made valid, and the tables that do not
depend on the one check, so a sweep builds each table once, in the loop that
owns it:

  - the rows falling(c, a) * S(b, a) of A_beta's convolution, once per
    (c, b) in a sweep;
  - falling(m - k, d - k), once per (m, d), and the falling row of r once
    per (d, r);
  - A_beta's coefficients in the falling-factorial basis of r (only the
    falling factorials of r depend on r), once per color orbit of
    (counts, beta): A_beta and E[X^beta] depend only on m, d and the
    multiset of pairs (counts_i, beta_i) with beta_i > 0 (_orbit), which
    permuting the colors of counts and beta together, or moving the balls of
    colors with beta_i = 0, leaves as it is;
  - each check's sides at every r, once per orbit: MOMENT_DECOMPOSITION's
    (lhs, rhs, holds) once per (m, d, orbit) in a sweep (214 orbits for the
    1,701 (counts, beta) pairs at its default caps), A_BETA_NONNEG's and
    A_BETA_SUM's once per sorted counts in each (n, d, m), as a permutation
    of the colors permutes I(n, d) and keeps the minimum and the weighted
    sum; A_beta's memos live for one (n, d, m), so they stay small however
    large max_m is;
  - MOMENT_DECOMPOSITION's left side from hypergeom's own tables: its
    weights over r^d (m falling d), once per orbit
    (hypergeom._scaled_moments), its rows S(b, a) * falling(c, a) once per
    (c, b) in a sweep, its quotients (m falling d) // (m falling k) once per
    (m, d) (hypergeom._falling_quotients), and its falling row of r once per
    (d, r) (hypergeom._falling_row), so E[X^beta] at each r is one dot
    product;
  - d!/beta! and STIRLING_MULTI's table of S(b, a), a, b <= d, per (n, d),
    and SIGMA's constant c_d = (d-1)(d!-1) per d;
  - the params and their "key=value;..." text: each loop level makes its
    own part once, and a check joins the parts (the moment sweep's params
    tuple too, its (m, counts, r) part once per (counts, r)).

MOMENT_DECOMPOSITION compares two independent routes: its left side reads
only hypergeom's kernel, its right side only A_beta's coefficients; no table
is shared between them.

The right side of STIRLING_SUM, SIGMA's left side and the right side of
A_BETA_SUM are combin's _kls_gap and _refined_gap, the gap forms from which
bounds builds KLS_GENERAL, SQFREE_KLS, SQFREE_REFINED and GENERAL_REFINED, so
these checks read the same code as the coefficients `sgo bounds` prints.

A check is made as a row, one plain tuple (_Row): (name, params, lhs, rhs,
relation, holds, params text).  No evaluator builds a Fraction.  Each side of
a row is an int or an exact pair (numerator, positive denominator), not
necessarily reduced, and holds is decided by cross-multiplying the pairs.
`sgo verify` writes the rows as they are made, and renders each distinct
side once, with one gcd, into a memo of side texts that lives for one call
(_side_str, rational._ratio_str; the memo is cmd_verify's, which bounds
it).  Only run_default_sweeps, the public API, makes an IdentityCheck, one
from each row as it is asked for: a frozen record whose sides are the
exact rationals, a pair read as its Fraction.

Sweeps are bounded by explicit caps so they can run exhaustively in CI.  Each
sweep is a generator that makes one row at a time; _sweep_rows chains all
eight, and run_default_sweeps, whose keyword defaults are `sgo verify`'s,
reads them.  What one `sgo verify` run checks is decided here, by
_verify_checks: it counts the run before any check is made, refuses more
than _MAX_VERIFY_CHECKS or none, makes the few bound witnesses (bounds'
coefficient table and witness rows), and returns every row in output
order; the CLI writes each as it is made.
a_beta, the paper's correction term at one urn, is public and validates its
own arguments; no sweep calls it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import comb, prod
from operator import mul
from typing import Iterator, Sequence

from . import bounds, hypergeom
from .combin import (
    _kls_gap,
    _refined_gap,
    compositions,
    falling,
    multinomial,
    rate_constant,
    stirling2,
)
from .poly import random_polynomial
from .rational import _as_int, _Record, _ratio_str, _shown

# One check as a sweep makes it and `sgo verify` writes it: (name, params, lhs,
# rhs, relation, holds, params_text).  The first six are IdentityCheck's
# fields, each side an int or a (numerator, positive denominator) pair;
# params_text is the params as "key=value;..." text.
_Side = int | tuple[int, int]
_Row = tuple[str, tuple, _Side, _Side, str, bool, str]


class IdentityCheck(_Record):
    """One verified relation: lhs RELATION rhs, exactly.

    A side is an int or a Fraction, given as such or as a pair of ints
    (numerator, positive denominator), not necessarily reduced, which is
    stored as its Fraction; any other side (a float, a bool, a str, a pair
    with a denominator of 0 or below) is refused (TypeError or ValueError).
    Equality, hash and repr are those of the record (name, params, lhs, rhs,
    relation, holds), and a check is frozen.
    """

    __slots__ = __match_args__ = ("name", "params", "lhs", "rhs", "relation", "holds")

    def __init__(
        self, name: str, params: "tuple[tuple[str, object], ...]",
        lhs: "Fraction | int | tuple[int, int]", rhs: "Fraction | int | tuple[int, int]",
        relation: str, holds: bool,
    ) -> None:
        # relation is "eq", "le", or "ge"
        self._set(name, params, _exact_side(lhs), _exact_side(rhs), relation, holds)

    def params_str(self) -> str:
        """The params as "key=value;..." text."""
        return ";".join([f"{k}={v}" for k, v in self.params])


def _exact_side(side: object) -> "Fraction | int":
    """side as IdentityCheck stores it: an int or a Fraction as it is (an
    integer type as its int, rational._as_int), and a pair of ints
    (numerator, positive denominator) as its Fraction.  Anything else is
    refused: a float, a bool or a str (TypeError), or a pair whose
    denominator is not positive (ValueError)."""
    if isinstance(side, Fraction):
        return side
    if isinstance(side, tuple):
        if len(side) != 2:
            raise ValueError(f"a side pair has two entries, got {_shown(side, repr)}")
        num, den = map(_as_int, side)
        if den <= 0:
            raise ValueError(f"a side pair's denominator must be positive, got {_shown(side, repr)}")
        return Fraction(num, den)
    return _as_int(side)


def _side_str(side: "int | tuple[int, int]", memo: "dict[int | tuple[int, int], str]") -> str:
    """fraction_str of a side as a row stores it (an int, or a (numerator,
    positive denominator) pair), read from memo or rendered into it with one
    gcd, so a caller that passes one dict to many rows renders each distinct
    side once."""
    text = memo.get(side)
    if text is None:
        text = memo[side] = _ratio_str(*side) if type(side) is tuple else _ratio_str(side)
    return text


# --- one evaluator per family; the integer-point families share one -------------


def _integer_point(x: "tuple[int, ...]", d: int, power: "hypergeom.Power") -> _Row:
    """power(sum(x), d) against the sum over alpha in I(n, d) of d!/alpha! *
    prod power(x_i, alpha_i): VANDERMONDE_CHU when power is falling, the
    MULTINOMIAL theorem when it is pow."""
    rhs = 0
    for alpha in compositions(len(x), d):
        term = multinomial(d, alpha)
        for xi, ai in zip(x, alpha):
            term *= power(xi, ai)
        rhs += term
    lhs = power(sum(x), d)
    return ("VANDERMONDE_CHU" if power is falling else "MULTINOMIAL", (("x", x), ("d", d)),
            lhs, rhs, "eq", lhs == rhs, f"x={x};d={d}")


def _stirling_sum(d: int, r: int) -> _Row:
    lhs = sum(falling(r, k) * stirling2(d, k) for k in range(1, d))
    rhs = _kls_gap(d, r)[0]  # r^d - (r falling d)
    return "STIRLING_SUM", (("d", d), ("r", r)), lhs, rhs, "eq", lhs == rhs, f"d={d};r={r}"


def _multinomial_weights(n: int, d: int) -> "list[tuple[tuple[int, ...], int]]":
    """(beta, d!/beta!) for every beta in I(n, d), in lex order."""
    return [(beta, multinomial(d, beta)) for beta in compositions(n, d)]


def _stirling_multi(
    alpha: "tuple[int, ...]", d: int, weights: "list[tuple[tuple[int, ...], int]]",
    table: "list[list[int]]",
) -> _Row:
    """weights is _multinomial_weights(len(alpha), d), and table[b][a] is
    S(b, a) for a, b = 0..d."""
    k = sum(alpha)
    rhs = 0
    for beta, term in weights:
        for bi, ai in zip(beta, alpha):
            term *= table[bi][ai]
        rhs += term
    lhs, den = table[d][k], multinomial(k, alpha)
    return ("STIRLING_MULTI", (("alpha", alpha), ("d", d)), lhs, (rhs, den), "eq", lhs * den == rhs,
            f"alpha={alpha};d={d}")


def _kmr(k: int, m: int, r: int) -> _Row:
    km = k * m
    # (km - r)/(km - 1) <= m/r, cross-multiplied so km = 1 (where both sides
    # degenerate, and the left one is taken as 0) stays exact
    holds = r * (km - r) <= m * (km - 1)
    lhs = (km - r, km - 1) if km > 1 else (0, 1)
    return "KMR", (("k", k), ("m", m), ("r", r)), lhs, (m, r), "le", holds, f"k={k};m={m};r={r}"


def _sigma(d: int, m: int, k: int, r: int, c_d: int) -> _Row:
    """c_d is the rate constant (d-1)(d!-1) (combin.rate_constant)."""
    num, den = _refined_gap(d, r, k * m)  # den > 0, as km >= m >= d
    rr = r * r
    return ("SIGMA", (("d", d), ("m", m), ("k", k), ("r", r)), (num, den), (m * c_d, rr), "le",
            num * rr <= m * c_d * den, f"d={d};m={m};k={k};r={r}")


def _phi(k: int, m: int, r: int) -> _Row:
    km = k * m
    phi = (2 * km - 1) * r * r + (4 - 6 * km) * r - km * km + 6 * km - 4
    return "PHI", (("k", k), ("m", m), ("r", r)), phi, 0, "ge", phi >= 0, f"k={k};m={m};r={r}"


# --- A_beta ---------------------------------------------------------------------


def _falling_row(x: int, d: int) -> "list[int]":
    """[falling(x, 0), falling(x, 1), ..., falling(x, d)]."""
    return list(accumulate(range(x, x - d, -1), mul, initial=1))


def _falling_tails(m: int, d: int) -> "list[int]":
    """[falling(m - k, d - k) for k = 0..d]."""
    return [falling(m - k, d - k) for k in range(d + 1)]


def _a_beta_coeffs(
    beta: "tuple[int, ...]", counts: "tuple[int, ...]", tails: "list[int]",
    rows: "dict[tuple[int, int], list[int]]",
) -> "list[int]":
    """a_0..a_d with A_beta = sum_k a_k * (r falling k) for every 1 <= r <= m.

    a_k = c_k * falling(m - k, d - k) for k < d, with tails = _falling_tails(m, d).
    The only alpha <= beta with |alpha| = d is beta itself, so
    c_d = prod falling(counts_i, beta_i) and a_d = c_d - prod counts_i^beta_i.
    rows maps (c, b) to the convolution row falling(c, a) * S(b, a), a = 0..b,
    which depends on nothing else; a sweep passes one dict to every call.
    """
    c = [1]
    for mi, bi in zip(counts, beta):
        if bi == 0:
            continue
        row = rows.get((mi, bi))
        if row is None:
            row = rows[mi, bi] = [falling(mi, a) * stirling2(bi, a) for a in range(bi + 1)]
        nxt = [0] * (len(c) + bi)
        for j, cj in enumerate(c):
            for a, ra in enumerate(row):
                nxt[j + a] += cj * ra
        c = nxt
    coeffs = list(map(mul, c, tails))
    coeffs[-1] -= prod(map(pow, counts, beta))
    return coeffs


def _a_beta_at(coeffs: "list[int]", falls: "list[int]") -> int:
    """sum_k coeffs[k] * falls[k]: A_beta at the r whose falling row is falls."""
    return sum(map(mul, coeffs, falls))


def a_beta(beta: Sequence[int], r: int, m: int, counts: Sequence[int]) -> int:
    """The correction term of the moment decomposition; nonnegative by theory.

    Grouped by k = |alpha| over alpha <= beta, with d = |beta|:

      A_beta = sum_k c_k * (r falling k) * falling(m - k, d - k)
               - (r falling d) * prod counts_i^beta_i,
      c_k    = sum over |alpha| = k of prod falling(counts_i, alpha_i) * S(beta_i, alpha_i).

    The alpha = beta term (k = d) carries the (r falling d) * prod
    falling(counts_i, beta_i) part.  falling(m - k, d - k) is
    (m falling d)/(m falling k), an integer for k <= d <= m, so the whole
    quantity is integer-valued.  The urn (m, counts, r) is checked by
    hypergeom.HypergeomParams's rule: no negative count, counts summing to m,
    and 1 <= r <= m.
    """
    beta = tuple(map(_as_int, beta))
    d = sum(beta)
    if d < 1:
        raise ValueError("beta must have positive total degree")
    if any(b < 0 for b in beta):
        raise ValueError(f"negative entry in {beta}")
    if len(counts) != len(beta):
        raise ValueError(f"counts has {len(counts)} entries, beta has {len(beta)}")
    urn = hypergeom.HypergeomParams(m, counts, r)  # m, counts and r as ints (_as_int)
    m, counts, r = urn.m, urn.counts, urn.r
    if m < d:
        raise ValueError(f"need m >= total degree, got m={m}, degree={d}")
    return _a_beta_at(_a_beta_coeffs(beta, counts, _falling_tails(m, d), {}), _falling_row(r, d))


# --- the two A_beta families, one evaluation per color orbit ---------------------


def _orbit(counts: "tuple[int, ...]", beta: "tuple[int, ...]") -> "tuple[tuple[int, int], ...]":
    """The pairs (counts_i, beta_i) with beta_i > 0, sorted: the color orbit of
    (counts, beta).  A color with beta_i = 0 adds nothing to A_beta's
    coefficients, to E[X^beta]'s weights or to the point term, and permuting
    the colors of counts and beta together changes none of them, so at one
    (m, d), d = |beta|, each is a function of the orbit."""
    return tuple(sorted([(c, b) for c, b in zip(counts, beta) if b]))


def _a_beta_sides(
    m: int, d: int, counts: "tuple[int, ...]", weights: "list[tuple[tuple[int, ...], int]]",
    tails: "list[int]", falls: "list[list[int]]", gaps: "list[int]",
    coeffs: "dict[tuple, list[int]]", rows: "dict[tuple[int, int], list[int]]",
) -> "list[tuple[int, int, int]]":
    """A_BETA_NONNEG's and A_BETA_SUM's sides at the urn (m, counts), for
    r = 1..m: (min over beta of A_beta, the sum of d!/beta! * A_beta, the
    closed form gaps[r - 1]), beta over I(n, d) with its weight d!/beta! in
    weights.  All three are unchanged when counts is permuted.  coeffs maps
    an orbit at this (m, d) (_orbit) to A_beta's coefficients, built on its
    first use; falls[r] is the falling row of r."""
    table = []
    for beta, _ in weights:
        key = _orbit(counts, beta)
        row = coeffs.get(key)
        if row is None:
            row = coeffs[key] = _a_beta_coeffs(beta, counts, tails, rows)
        table.append(row)
    multis = [w for _, w in weights]
    sides = []
    for r, gap in enumerate(gaps, 1):
        values = [_a_beta_at(row, falls[r]) for row in table]
        sides.append((min(values), sum(map(mul, multis, values)), gap))
    return sides


def _moment_sides(
    m: int, d: int, counts: "tuple[int, ...]", beta: "tuple[int, ...]", tails: "list[int]",
    quotients: "list[int]", falls: "list[tuple[list[int], list[int], int]]",
    rows: "dict[tuple[int, int], list[int]]", moment_rows: "dict[tuple[int, int], list[int]]",
) -> "list[tuple[tuple[int, int], tuple[int, int], bool]]":
    """MOMENT_DECOMPOSITION's (lhs, rhs, holds) at the urn (m, counts) and beta,
    for r = 1..m: E[X^beta] from hypergeom's kernel (lhs) against the point
    term plus A_beta, (counts/m)^beta (r falling d) m^d + A_beta, over
    r^d (m falling d) (rhs), each a (numerator, positive denominator) pair.
    The two sides share no table: lhs reads hypergeom's weights and rows,
    rhs A_beta's coefficients and rows.  falls[r] holds A_beta's and
    hypergeom's falling rows of r and r^d."""
    weights = hypergeom._scaled_moments(beta, counts, quotients, moment_rows)
    coeffs = _a_beta_coeffs(beta, counts, tails, rows)
    point = prod(map(pow, counts, beta))
    sides = []
    for r in range(1, m + 1):
        a_falls, moment_falls, power = falls[r]
        lhs = (sum(map(mul, weights, moment_falls)), power * quotients[0])
        rhs = (point * a_falls[d] + _a_beta_at(coeffs, a_falls), power * tails[0])
        sides.append((lhs, rhs, lhs[0] * rhs[1] == rhs[0] * lhs[1]))
    return sides


# --- bounded sweeps -----------------------------------------------------------
# The loop bounds admit only valid parameters, so no check is validated on its own.


def sweep_stirling_sum(max_d: int = 6, max_r: int = 30) -> "Iterator[_Row]":
    for d in range(1, max_d + 1):
        for r in range(1, max_r + 1):
            yield _stirling_sum(d, r)


def sweep_stirling_multi(max_n: int = 3, max_d: int = 5) -> "Iterator[_Row]":
    for n in range(1, max_n + 1):
        for d in range(2, max_d + 1):
            weights = _multinomial_weights(n, d)
            table = [[stirling2(b, a) for a in range(d + 1)] for b in range(d + 1)]  # S(b, a)
            for k in range(1, d):
                for alpha in compositions(n, k):
                    yield _stirling_multi(alpha, d, weights, table)


def sweep_integer_point_identities(
    samples: int = 25, max_n: int = 4, max_d: int = 4, seed: int = 0
) -> "Iterator[_Row]":
    """Vandermonde-Chu and the multinomial theorem at random integer points."""
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, max_n)
        d = rng.randint(1, max_d)
        x = tuple(rng.randint(-6, 9) for _ in range(n))
        yield _integer_point(x, d, falling)
        yield _integer_point(x, d, pow)


def sweep_kmr(limit: int = 40) -> "Iterator[_Row]":
    for k in range(1, limit + 1):
        for m in range(1, limit + 1):
            for r in range((k - 1) * m + 1, min(k * m, limit) + 1):
                yield _kmr(k, m, r)


def sweep_sigma(max_d: int = 5, max_m: int = 12, max_k: int = 4) -> "Iterator[_Row]":
    for d in range(2, max_d + 1):
        c_d = rate_constant(d)
        for m in range(d, max_m + 1):
            for k in range(1, max_k + 1):
                for r in range((k - 1) * m + 1, k * m + 1):
                    yield _sigma(d, m, k, r, c_d)


def sweep_phi(max_k: int = 5, max_m: int = 10) -> "Iterator[_Row]":
    for k in range(2, max_k + 1):
        for m in range(3, max_m + 1):
            for r in range((k - 1) * m + 1, k * m + 1):
                yield _phi(k, m, r)


def sweep_a_beta(max_n: int = 3, max_d: int = 4, max_m: int = 8) -> "Iterator[_Row]":
    """Exhaustive nonnegativity and sum checks over every admissible urn.

    For each n <= max_n, degree d <= max_d, m between d and max_m, every
    composition of m into n color counts, and every 1 <= r <= m: all A_beta
    over I(n, d) must be nonnegative (reported as one aggregated check via
    their minimum) and their weighted sum must match the closed form.  Both
    checks read the same A_beta values.  In each (n, d, m), A_beta's
    coefficients in r are built once per color orbit (_orbit), and both
    checks' sides at every r once per sorted counts: the counts that permute
    one another share them (_a_beta_sides).  Both memos live for one
    (n, d, m), so the sweep holds a few hundred tables at most, whatever
    max_m is.
    """
    rows: "dict[tuple[int, int], list[int]]" = {}
    for n in range(1, max_n + 1):
        for d in range(1, max_d + 1):
            weights = _multinomial_weights(n, d)
            falls = [_falling_row(r, d) for r in range(max_m + 1)]  # per r = 0..max_m
            for m in range(d, max_m + 1):
                tails = _falling_tails(m, d)
                # r^d (m falling d) - (r falling d) m^d per r = 1..m
                gaps = [_refined_gap(d, r, m)[0] for r in range(1, m + 1)]
                coeffs: "dict[tuple[tuple[int, int], ...], list[int]]" = {}  # per orbit
                sides: "dict[tuple[int, ...], list[tuple[int, int, int]]]" = {}  # per sorted counts
                for counts in compositions(n, m):
                    key = tuple(sorted(counts))
                    per_r = sides.get(key)
                    if per_r is None:
                        per_r = sides[key] = _a_beta_sides(m, d, counts, weights, tails, falls,
                                                           gaps, coeffs, rows)
                    tail = f";m={m};counts={counts}"
                    for r, (low, total, gap) in enumerate(per_r, 1):
                        params = (("n", n), ("d", d), ("r", r), ("m", m), ("counts", counts))
                        text = f"n={n};d={d};r={r}{tail}"
                        yield "A_BETA_NONNEG", params, low, 0, "ge", low >= 0, text
                        yield "A_BETA_SUM", params, total, gap, "eq", total == gap, text


def sweep_moment_decomposition(
    max_n: int = 3, max_d: int = 3, max_m: int = 6
) -> "Iterator[_Row]":
    """E[X^beta] against the point term plus A_beta for every urn with n <= max_n
    colors and m <= max_m balls, every 1 <= r <= m and every beta in I(n, d),
    d <= max_d.  Once per (m, d) and color orbit of (counts, beta) in the
    sweep (_orbit), hypergeom's weights (the left side) and A_beta's
    coefficients (the right side) are each built, and both sides and holds
    made at every r (_moment_sides); every member of the orbit reads them."""
    rows: "dict[tuple[int, int], list[int]]" = {}  # A_beta's rows
    moment_rows: "dict[tuple[int, int], list[int]]" = {}  # hypergeom's rows
    sides: "dict[tuple, list]" = {}  # (m, d, orbit) -> (lhs, rhs, holds) per r = 1..m
    for n in range(1, max_n + 1):
        for d in range(1, max_d + 1):
            # per beta: its params item and its part of the params text
            betas = [(beta, (("beta", beta),), f";beta={beta}") for beta in compositions(n, d)]
            # per r = 0..max_m: each side's falling row of r and r^d
            falls = [(_falling_row(r, d), hypergeom._falling_row(r, d), r**d)
                     for r in range(max_m + 1)]
            for m in range(d, max_m + 1):
                tails = _falling_tails(m, d)  # tails[0] = falling(m, d)
                quotients = hypergeom._falling_quotients(m, d)  # quotients[0] = falling(m, d)
                for counts in compositions(n, m):
                    start = f"m={m};counts={counts};r="
                    table = []
                    for beta, item, text in betas:
                        key = m, d, _orbit(counts, beta)
                        per_r = sides.get(key)
                        if per_r is None:
                            per_r = sides[key] = _moment_sides(m, d, counts, beta, tails, quotients,
                                                               falls, rows, moment_rows)
                        table.append((item, text, per_r))
                    for r in range(1, m + 1):
                        # the params and their text up to beta's, once per (counts, r)
                        head, head_text = (("m", m), ("counts", counts), ("r", r)), f"{start}{r}"
                        for item, text, per_r in table:
                            lhs, rhs, holds = per_r[r - 1]
                            yield ("MOMENT_DECOMPOSITION", head + item, lhs, rhs, "eq", holds,
                                   head_text + text)


def run_default_sweeps(
    *,
    max_n: int = 3,
    max_d: int = 4,
    max_m: int = 8,
    max_k: int = 4,
    max_r: int = 30,
    samples: int = 25,
    seed: int = 0,
) -> "Iterator[IdentityCheck]":
    """All identity sweeps at their default (CI-sized) caps, chained: each
    check is made from its sweep's row when it is asked for (_sweep_rows)."""
    for name, params, lhs, rhs, relation, holds, _ in _sweep_rows(
            max_n=max_n, max_d=max_d, max_m=max_m, max_k=max_k, max_r=max_r, samples=samples,
            seed=seed):
        yield IdentityCheck(name, params, lhs, rhs, relation, holds)


def _sweep_rows(**caps: int) -> "Iterator[_Row]":
    """The rows of every default sweep at these caps (_default_sweep_args),
    chained: each row is made when it is asked for, and each sweep is looked
    up by name when it starts."""
    for name, kwargs in _default_sweep_args(**caps).items():
        yield from globals()[name](**kwargs)


def _default_sweep_args(
    *, max_n: int, max_d: int, max_m: int, max_k: int, max_r: int, samples: int, seed: "int | None"
) -> "dict[str, dict]":
    """Each default sweep's name and keyword arguments at these caps, in run order."""
    return {
        "sweep_stirling_sum": {"max_d": max(max_d, 6), "max_r": max_r},
        "sweep_stirling_multi": {"max_n": max_n, "max_d": max(max_d, 5)},
        "sweep_integer_point_identities": {"samples": samples, "seed": seed},
        "sweep_kmr": {"limit": max(max_r, 40)},
        "sweep_sigma": {"max_d": max(max_d, 5), "max_m": max(max_m, 12), "max_k": max_k},
        "sweep_phi": {"max_k": max(max_k, 5), "max_m": max(max_m, 10)},
        "sweep_a_beta": {"max_n": max_n, "max_d": max_d, "max_m": max_m},
        "sweep_moment_decomposition": {
            "max_n": min(max_n, 3), "max_d": min(max_d, 3), "max_m": min(max_m, 6)},
    }


def default_sweep_count(
    *, max_n: int, max_d: int, max_m: int, max_k: int, max_r: int, samples: int, stop: int
) -> int:
    """The number of checks run_default_sweeps makes at these caps, or a
    number above `stop` once the count passes it, computed without running any.

    Each sweep is counted in closed form, from hockey-stick sums of
    composition counts, at the caps _default_sweep_args gives it.
    MOMENT_DECOMPOSITION sums at most 3 * 3 * 6 terms, and the loop over
    n = 1..max_n stops once the count passes `stop`; every n adds at least n
    checks, so the time does not grow with the caps.  Caps below 1 count as no
    sweep at all, as cmd_verify runs none then.
    """
    if min(max_n, max_d, max_m) < 1:
        return 0
    stirling, multi, points, kmr, sigma, phi, a_beta, moments = _default_sweep_args(
        max_n=max_n, max_d=max_d, max_m=max_m, max_k=max_k, max_r=max_r, samples=samples, seed=None,
    ).values()
    d_multi, m_sigma, k_phi, m_phi = multi["max_d"], sigma["max_m"], phi["max_k"], phi["max_m"]
    e_sigma, e_beta = min(sigma["max_d"], m_sigma), min(a_beta["max_d"], a_beta["max_m"])
    total = (
        stirling["max_d"] * stirling["max_r"]  # STIRLING_SUM
        + 2 * points["samples"]  # VANDERMONDE_CHU and MULTINOMIAL
        + kmr["limit"] ** 2  # KMR: for each m, the windows of k cover r = 1..limit once
        # SIGMA: max_k * sum over 2 <= d <= m <= m_sigma of m
        + sigma["max_k"] * ((e_sigma - 1) * m_sigma * (m_sigma + 1) // 2 - comb(e_sigma + 1, 3))
        + (k_phi - 1) * (m_phi * (m_phi + 1) // 2 - 3)  # PHI: sum over 3 <= m <= m_phi of m
    )
    # MOMENT_DECOMPOSITION: at most 3 * 3 * 6 terms
    for n in range(1, moments["max_n"] + 1):
        for d in range(1, moments["max_d"] + 1):
            total += comb(n + d - 1, d) * sum(
                m * comb(n + m - 1, m) for m in range(d, moments["max_m"] + 1)
            )
    m_beta = a_beta["max_m"]
    for n in range(1, max_n + 1):  # STIRLING_MULTI and A_BETA both run n = 1..max_n
        # STIRLING_MULTI: sum over 2 <= d <= d_multi, 1 <= k < d of |I(n, k)|
        total += comb(n + d_multi, d_multi - 1) - d_multi
        # A_BETA_NONNEG and A_BETA_SUM: 2 * sum over d <= e_beta, d <= m <= m_beta
        # of m * |I(n, m)|, where m * |I(n, m)| = n * C(n + m - 1, m - 1)
        below = comb(n + e_beta, e_beta - 2) if e_beta > 1 else 0  # the m < d part
        total += 2 * n * (e_beta * comb(n + m_beta, m_beta - 1) - below)
        if total > stop:
            break
    return total


# Most checks `sgo verify` may run, counted before any check is made
# (_verify_checks).  The default run makes about 2.3e4; --max-m 20 makes 2.5e5
# in 0.6-0.9 s on a 2-vCPU Xeon VM under Python 3.11.  Each check is written as
# its row is made, so that run peaks at 16-18 MB RSS with stdout to a file, and
# at 82 MB in process with its 52 MB of JSON held in a StringIO.
_MAX_VERIFY_CHECKS = 3 * 10**5


def _verify_checks(
    max_n: int, max_d: int, max_m: int, max_k: int, max_r: int, samples: int, seed: int,
    witness_polys: int, inject_fault: bool,
) -> "Iterator[tuple[str, _Row]]":
    """The checks of one `sgo verify` run as rows (_Row), in output order,
    each after its "check" column: the identity sweeps (_sweep_rows, each row
    made as it is read), then the bound witnesses, then the injected fault.
    No IdentityCheck is made.

    The run is counted before any check is made: the sweeps' exact count
    (default_sweep_count, 0 exactly when a cap is below 1, and then nothing
    is swept or witnessed), or some count above _MAX_VERIFY_CHECKS once it
    passes that, plus at most one witness per witness polynomial, (r, m) pair
    and kind.  More than _MAX_VERIFY_CHECKS checks, or none without the
    fault, is refused (ValueError).  The count's time does not grow with the
    caps.

    The witnesses are few and made here, before the first check is read:
    for each of witness_polys random polynomials, every kind that applies at
    every pair 1 <= r <= m <= min(5, max_m), checked as lhs le rhs.  The
    coefficients are tabled once per degree (bounds._coefficient_table) and
    shared by the polynomials of that degree; each side is the integer pair
    bounds._witness_rows makes.
    """
    caps = {"max_n": max_n, "max_d": max_d, "max_m": max_m, "max_k": max_k, "max_r": max_r,
            "samples": samples}
    pairs = [(r, m) for m in range(1, min(5, max_m) + 1) for r in range(1, m + 1)]
    count = default_sweep_count(**caps, stop=_MAX_VERIFY_CHECKS)
    if count:
        count += witness_polys * len(pairs) * len(bounds.ALL_KINDS)
    if count > _MAX_VERIFY_CHECKS:
        raise ValueError(
            f"verify would run more than {_MAX_VERIFY_CHECKS} checks; lower --max-n, --max-d, "
            "--max-m, --max-k, --max-r, --samples or --witness-polys"
        )
    if not count and not inject_fault:
        raise ValueError("no checks run: sweep ranges are empty")
    checks, witnesses = (), []
    if count:
        rng = random.Random(seed)
        tables: "dict[int, list[tuple[str, bool, int, int, int, int]]]" = {}
        for _ in range(witness_polys):
            f = random_polynomial(rng, rng.randint(1, min(3, max_n)), rng.randint(1, min(3, max_d)))
            if f.d not in tables:
                tables[f.d] = bounds._coefficient_table(f.d, pairs)
            _, rows = bounds._witness_rows(f, tables[f.d])
            witnesses += [
                ("bound-witness", (name, (("d", f.d), ("r", r), ("m", m)), lhs, rhs, "le", holds,
                                   f"d={f.d};r={r};m={m}"))
                for (name, _, r, m, _, _), lhs, rhs, holds in rows
            ]
        checks = _sweep_rows(**caps, seed=seed)
    fault = ("INJECTED_FAULT", (), 0, 1, "eq", False, "")
    return chain(zip(repeat("identity"), checks), witnesses,
                 [("identity", fault)] if inject_fault else [])
