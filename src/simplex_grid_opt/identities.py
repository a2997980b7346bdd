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

Each family has one evaluator (_stirling_sum, _kmr, _a_beta_sum,
_moment_decomposition, ...), called only by that family's sweep; the two
integer-point families, Vandermonde-Chu and the multinomial theorem, are one
expansion over falling and over ordinary powers and share _integer_point,
which takes the power as hypergeom._stirling_terms does.  An evaluator takes
parameters the sweep's loop bounds have already made valid, and the tables
that do not depend on the one check, so a sweep builds each table once, in
the loop that owns it:

  - the rows falling(c, a) * S(b, a) of A_beta's convolution, once per
    (c, b) in a sweep;
  - falling(m - k, d - k), once per (m, d), and the falling row of r once
    per (d, r);
  - A_beta's coefficients in the falling-factorial basis of r (only the
    falling factorials of r depend on r), once per (counts, beta);
  - MOMENT_DECOMPOSITION's left side from hypergeom's own tables: its
    weights over r^d (m falling d), once per (counts, beta)
    (hypergeom._scaled_moments), its rows S(b, a) * falling(c, a) once per
    (c, b) in a sweep, its quotients (m falling d) // (m falling k) once per
    (m, d) (hypergeom._falling_quotients), and its falling row of r once per
    (d, r) (hypergeom._falling_row), so E[X^beta] at each r is one dot
    product;
  - d!/beta! per (n, d), and SIGMA's constant c_d = (d-1)(d!-1) per d;
  - the rendered params: each loop level formats its own part of the
    "key=value;..." text once, and a check joins the parts.

MOMENT_DECOMPOSITION compares two independent routes: its left side reads
only hypergeom's kernel, its right side only A_beta's coefficients; no table
is shared between them.

The right side of STIRLING_SUM, SIGMA's left side and the right side of
A_BETA_SUM are combin's _kls_gap and _refined_gap, the gap forms from which
bounds builds KLS_GENERAL, SQFREE_KLS, SQFREE_REFINED and GENERAL_REFINED, so
these checks read the same code as the coefficients `sgo bounds` prints.

No evaluator builds a Fraction.  Each side of a check is an int or an exact
pair (numerator, positive denominator), not necessarily reduced; holds is
decided by cross-multiplying the pairs, and IdentityCheck stores them as
they are.  Reading a side's lhs or rhs builds its Fraction, so the public
values and types are those of exact rationals; `sgo verify` instead renders
each stored side with one gcd (IdentityCheck._texts, rational._ratio_str).

Sweeps are bounded by explicit caps so they can run exhaustively in CI.  Each
sweep is a generator that makes one check at a time; run_default_sweeps chains
all eight, and its keyword defaults are `sgo verify`'s.  What one `sgo verify`
run checks is decided here, by _verify_checks: it counts the run before any
check is made, refuses more than _MAX_VERIFY_CHECKS or none, makes the few
bound witnesses (bounds' coefficient table and witness rows), and returns
every check in output order; the CLI writes each as it is made.
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
from .rational import _as_int, _Record, _ratio_str


class IdentityCheck(_Record):
    """One verified relation: lhs RELATION rhs, exactly.

    A side is kept as given when it is an int or a pair (numerator, positive
    denominator), not necessarily reduced, and as its (numerator, denominator)
    when it is a Fraction: this module's evaluators, and bounds' witnesses,
    make each side as such a pair and decide holds by cross-multiplying, so no
    Fraction is built unless lhs or rhs is read.
    Equality, hash and repr are those of the record (name, params, lhs, rhs,
    relation, holds).  Treat a check as immutable.
    """

    __slots__ = ("name", "params", "relation", "holds", "_lhs", "_rhs", "_rendered")
    __match_args__ = ("name", "params", "lhs", "rhs", "relation", "holds")
    # not frozen: this module's builders fill the slots of a new check directly
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self, name: str, params: "tuple[tuple[str, object], ...]",
        lhs: "Fraction | int | tuple[int, int]", rhs: "Fraction | int | tuple[int, int]",
        relation: str, holds: bool,
    ) -> None:
        self.name = name
        self.params = params
        self.relation = relation  # "eq", "le", or "ge"
        self.holds = holds
        self._lhs = (lhs.numerator, lhs.denominator) if isinstance(lhs, Fraction) else lhs
        self._rhs = (rhs.numerator, rhs.denominator) if isinstance(rhs, Fraction) else rhs
        self._rendered = ";".join([f"{k}={v}" for k, v in params])

    @property
    def lhs(self) -> "Fraction | int":
        side = self._lhs
        return Fraction(*side) if type(side) is tuple else side

    @property
    def rhs(self) -> "Fraction | int":
        side = self._rhs
        return Fraction(*side) if type(side) is tuple else side

    def params_str(self) -> str:
        """The params as "key=value;..." text, rendered once, when the check is
        made (this module's builders render them once per loop level)."""
        return self._rendered

    def _texts(self) -> "tuple[str, str]":
        """fraction_str(lhs) and fraction_str(rhs), rendered from the stored
        sides with one gcd each; the two sides of an "eq" that holds reduce to
        the same text, which is rendered once."""
        lhs = _side_str(self._lhs)
        if self.holds and self.relation == "eq":
            return lhs, lhs
        return lhs, _side_str(self._rhs)


def _side_str(side: "int | tuple[int, int]") -> str:
    """fraction_str of a side as IdentityCheck stores it."""
    return _ratio_str(*side) if type(side) is tuple else _ratio_str(side)


def _check(
    name: str, params: tuple, rendered: str, relation: str, lhs, rhs, holds: bool
) -> IdentityCheck:
    """The check lhs RELATION rhs, with each side given as IdentityCheck stores
    it (an int, or a (numerator, positive denominator) pair) and holds decided
    by the caller.  name is the family's name, such as "KMR"; rendered is the
    params' "key=value;..." text."""
    check = object.__new__(IdentityCheck)
    check.name = name
    check.params = params
    check.relation = relation
    check.holds = holds
    check._lhs = lhs
    check._rhs = rhs
    check._rendered = rendered
    return check


# --- one evaluator per family; the integer-point families share one -------------


def _integer_point(x: "tuple[int, ...]", d: int, power: "hypergeom.Power") -> IdentityCheck:
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
    return _check("VANDERMONDE_CHU" if power is falling else "MULTINOMIAL",
                  (("x", x), ("d", d)), f"x={x};d={d}", "eq", lhs, rhs, lhs == rhs)


def _stirling_sum(d: int, r: int) -> IdentityCheck:
    lhs = sum(falling(r, k) * stirling2(d, k) for k in range(1, d))
    rhs = _kls_gap(d, r)[0]  # r^d - (r falling d)
    return _check("STIRLING_SUM", (("d", d), ("r", r)), f"d={d};r={r}", "eq", lhs, rhs, lhs == rhs)


def _multinomial_weights(n: int, d: int) -> "list[tuple[tuple[int, ...], int]]":
    """(beta, d!/beta!) for every beta in I(n, d), in lex order."""
    return [(beta, multinomial(d, beta)) for beta in compositions(n, d)]


def _stirling_multi(
    alpha: "tuple[int, ...]", d: int, weights: "list[tuple[tuple[int, ...], int]]"
) -> IdentityCheck:
    """weights is _multinomial_weights(len(alpha), d)."""
    k = sum(alpha)
    rhs = 0
    for beta, term in weights:
        for bi, ai in zip(beta, alpha):
            term *= stirling2(bi, ai)
        rhs += term
    lhs, den = stirling2(d, k), multinomial(k, alpha)
    return _check("STIRLING_MULTI", (("alpha", alpha), ("d", d)), f"alpha={alpha};d={d}", "eq",
                  lhs, (rhs, den), lhs * den == rhs)


def _kmr(k: int, m: int, r: int) -> IdentityCheck:
    km = k * m
    # (km - r)/(km - 1) <= m/r, cross-multiplied so km = 1 (where both sides
    # degenerate, and the left one is taken as 0) stays exact
    holds = r * (km - r) <= m * (km - 1)
    lhs = (km - r, km - 1) if km > 1 else (0, 1)
    return _check("KMR", (("k", k), ("m", m), ("r", r)), f"k={k};m={m};r={r}", "le",
                  lhs, (m, r), holds)


def _sigma(d: int, m: int, k: int, r: int, c_d: int) -> IdentityCheck:
    """c_d is the rate constant (d-1)(d!-1) (combin.rate_constant)."""
    num, den = _refined_gap(d, r, k * m)  # den > 0, as km >= m >= d
    rr = r * r
    return _check("SIGMA", (("d", d), ("m", m), ("k", k), ("r", r)), f"d={d};m={m};k={k};r={r}",
                  "le", (num, den), (m * c_d, rr), num * rr <= m * c_d * den)


def _phi(k: int, m: int, r: int) -> IdentityCheck:
    km = k * m
    phi = (2 * km - 1) * r * r + (4 - 6 * km) * r - km * km + 6 * km - 4
    return _check("PHI", (("k", k), ("m", m), ("r", r)), f"k={k};m={m};r={r}", "ge",
                  phi, 0, phi >= 0)


def _a_beta_sum(
    params: tuple, rendered: str, d: int, r: int, m: int,
    values: "list[int]", multis: "list[int]",
) -> IdentityCheck:
    """A_BETA_SUM: values are the A_beta of every beta in I(n, d), in lex order,
    at one urn and r, and multis holds d!/beta! in the same order."""
    lhs = sum(map(mul, multis, values))
    rhs = _refined_gap(d, r, m)[0]  # r^d (m falling d) - (r falling d) m^d
    return _check("A_BETA_SUM", params, rendered, "eq", lhs, rhs, lhs == rhs)


def _moment_decomposition(
    m: int, counts: "tuple[int, ...]", r: int, beta: "tuple[int, ...]", rendered: str,
    lhs: "tuple[int, int]", rhs: "tuple[int, int]",
) -> IdentityCheck:
    """Compare E[X^beta] (lhs, from hypergeom's kernel) with the point term plus
    A_beta, (counts/m)^beta (r falling d) m^d + A_beta, over r^d (m falling d) (rhs);
    each side is a (numerator, positive denominator) pair."""
    params = (("m", m), ("counts", counts), ("r", r), ("beta", beta))
    return _check("MOMENT_DECOMPOSITION", params, rendered, "eq", lhs, rhs,
                  lhs[0] * rhs[1] == rhs[0] * lhs[1])


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


# --- bounded sweeps -----------------------------------------------------------
# The loop bounds admit only valid parameters, so no check is validated on its own.


def sweep_stirling_sum(max_d: int = 6, max_r: int = 30) -> "Iterator[IdentityCheck]":
    for d in range(1, max_d + 1):
        for r in range(1, max_r + 1):
            yield _stirling_sum(d, r)


def sweep_stirling_multi(max_n: int = 3, max_d: int = 5) -> "Iterator[IdentityCheck]":
    for n in range(1, max_n + 1):
        for d in range(2, max_d + 1):
            weights = _multinomial_weights(n, d)
            for k in range(1, d):
                for alpha in compositions(n, k):
                    yield _stirling_multi(alpha, d, weights)


def sweep_integer_point_identities(
    samples: int = 25, max_n: int = 4, max_d: int = 4, seed: int = 0
) -> "Iterator[IdentityCheck]":
    """Vandermonde-Chu and the multinomial theorem at random integer points."""
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, max_n)
        d = rng.randint(1, max_d)
        x = tuple(rng.randint(-6, 9) for _ in range(n))
        yield _integer_point(x, d, falling)
        yield _integer_point(x, d, pow)


def sweep_kmr(limit: int = 40) -> "Iterator[IdentityCheck]":
    for k in range(1, limit + 1):
        for m in range(1, limit + 1):
            for r in range((k - 1) * m + 1, min(k * m, limit) + 1):
                yield _kmr(k, m, r)


def sweep_sigma(max_d: int = 5, max_m: int = 12, max_k: int = 4) -> "Iterator[IdentityCheck]":
    for d in range(2, max_d + 1):
        c_d = rate_constant(d)
        for m in range(d, max_m + 1):
            for k in range(1, max_k + 1):
                for r in range((k - 1) * m + 1, k * m + 1):
                    yield _sigma(d, m, k, r, c_d)


def sweep_phi(max_k: int = 5, max_m: int = 10) -> "Iterator[IdentityCheck]":
    for k in range(2, max_k + 1):
        for m in range(3, max_m + 1):
            for r in range((k - 1) * m + 1, k * m + 1):
                yield _phi(k, m, r)


def sweep_a_beta(max_n: int = 3, max_d: int = 4, max_m: int = 8) -> "Iterator[IdentityCheck]":
    """Exhaustive nonnegativity and sum checks over every admissible urn.

    For each n <= max_n, degree d <= max_d, m between d and max_m, every
    composition of m into n color counts, and every 1 <= r <= m: all A_beta
    over I(n, d) must be nonnegative (reported as one aggregated check via
    their minimum) and their weighted sum must match the closed form.  Both
    checks read the same A_beta values, whose coefficients in r are built
    once per (counts, beta).
    """
    rows: "dict[tuple[int, int], list[int]]" = {}
    for n in range(1, max_n + 1):
        for d in range(1, max_d + 1):
            weights = _multinomial_weights(n, d)
            multis = [w for _, w in weights]
            falls = [_falling_row(r, d) for r in range(max_m + 1)]  # per r = 0..max_m
            for m in range(d, max_m + 1):
                tails = _falling_tails(m, d)
                for counts in compositions(n, m):
                    table = [_a_beta_coeffs(beta, counts, tails, rows) for beta, _ in weights]
                    tail = f";m={m};counts={counts}"
                    for r in range(1, m + 1):
                        values = [_a_beta_at(coeffs, falls[r]) for coeffs in table]
                        params = (("n", n), ("d", d), ("r", r), ("m", m), ("counts", counts))
                        rendered = f"n={n};d={d};r={r}{tail}"
                        low = min(values)
                        yield _check("A_BETA_NONNEG", params, rendered, "ge", low, 0, low >= 0)
                        yield _a_beta_sum(params, rendered, d, r, m, values, multis)


def sweep_moment_decomposition(
    max_n: int = 3, max_d: int = 3, max_m: int = 6
) -> "Iterator[IdentityCheck]":
    """E[X^beta] against the point term plus A_beta for every urn with n <= max_n
    colors and m <= max_m balls, every 1 <= r <= m and every beta in I(n, d),
    d <= max_d.  Per (counts, beta), hypergeom's weights (the left side) and
    A_beta's coefficients (the right side) are each built once; at each r
    either side is one dot product with its own falling row of r."""
    rows: "dict[tuple[int, int], list[int]]" = {}  # A_beta's rows
    moment_rows: "dict[tuple[int, int], list[int]]" = {}  # hypergeom's rows
    for n in range(1, max_n + 1):
        for d in range(1, max_d + 1):
            betas = [(beta, f";beta={beta}") for beta in compositions(n, d)]
            # per r = 0..max_m: each side's falling row of r and r^d
            falls = [(_falling_row(r, d), hypergeom._falling_row(r, d), r**d)
                     for r in range(max_m + 1)]
            for m in range(d, max_m + 1):
                tails = _falling_tails(m, d)  # tails[0] = falling(m, d)
                quotients = hypergeom._falling_quotients(m, d)  # quotients[0] = falling(m, d)
                for counts in compositions(n, m):
                    head = f"m={m};counts={counts};r="
                    table = [
                        (beta, rendered, hypergeom._scaled_moments(beta, counts, quotients, moment_rows),
                         _a_beta_coeffs(beta, counts, tails, rows), prod(map(pow, counts, beta)))
                        for beta, rendered in betas
                    ]
                    for r in range(1, m + 1):
                        a_falls, moment_falls, power = falls[r]
                        scale, moment_scale = power * tails[0], power * quotients[0]
                        start = f"{head}{r}"
                        for beta, rendered, weights, coeffs, point in table:
                            yield _moment_decomposition(
                                m, counts, r, beta, start + rendered,
                                (sum(map(mul, weights, moment_falls)), moment_scale),
                                (point * a_falls[d] + _a_beta_at(coeffs, a_falls), scale),
                            )


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
    check is made when it is asked for, and each sweep is looked up by name
    when it starts."""
    args = _default_sweep_args(max_n=max_n, max_d=max_d, max_m=max_m, max_k=max_k,
                               max_r=max_r, samples=samples, seed=seed)
    for name, kwargs in args.items():
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
# in about 3.4 s on a 2-vCPU Xeon VM.  Each check is written as it is made, so
# that run peaks at 18 MB RSS with stdout to a file, and at 88 MB in process
# with its 52 MB of JSON held in a StringIO.
_MAX_VERIFY_CHECKS = 3 * 10**5


def _verify_checks(
    max_n: int, max_d: int, max_m: int, max_k: int, max_r: int, samples: int, seed: int,
    witness_polys: int, inject_fault: bool,
) -> "Iterator[tuple[str, IdentityCheck]]":
    """The checks of one `sgo verify` run, in output order, each after its
    "check" column: the identity sweeps (run_default_sweeps, each check made
    as it is read), then the bound witnesses, then the injected fault.

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
    bounds._witness_rows makes, which the check renders with one gcd.
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
                ("bound-witness", IdentityCheck(name, (("d", f.d), ("r", r), ("m", m)), lhs, rhs,
                                                "le", holds))
                for (name, _, r, m, _, _), lhs, rhs, holds in rows
            ]
        checks = run_default_sweeps(**caps, seed=seed)
    fault = IdentityCheck("INJECTED_FAULT", (), 0, 1, "eq", False)
    return chain(zip(repeat("identity"), checks), witnesses,
                 [("identity", fault)] if inject_fault else [])
