"""The draws-without-replacement urn distribution on the simplex grid.

An urn holds m balls, counts[i] of color i; drawing r balls without
replacement makes the color-count vector Y a lattice point of I(n, r), and
X = Y/r a random point of the simplex grid with denominator r.  This module
computes, through one Stirling-number expansion shared by both urns, the raw
moments of Y, exact expectations E[f(X)] for polynomial f, and the
draws-with-replacement counterpart of E[f(X)] (the order-r Bernstein
approximation of f) in closed form, without a sum over the grid.  The pmf,
the brute-force moments and the closed degree-2 and degree-3 moment forms
that check it are test oracles and live with the tests.

The Stirling kernel is one kernel with one evaluation.  _stirling_rows, the
grouped convolution, does not depend on the number of draws r;
_scaled_moments turns it into weights w_k = grouped[k] * quotients[k], the
quotients putting every term over one common denominator; and the value at
r is one dot product of the weights with the falling row of r (_falling_row,
a running product), in integers and with no Fraction.  A single moment runs
all three once (_stirling_terms), its quotients power(total, K) //
power(total, k) for K = min(|beta|, r).  identities' MOMENT_DECOMPOSITION
sweep calls _scaled_moments once per color orbit of (counts, beta) with the
quotients falling(m, d) // falling(m, k) (_falling_quotients, once per
(m, d)), so its weights serve every r = 1..m over r^d * falling(m, d); it
builds the falling rows once per (d, r), and passes one row dict to every
call, so each row S(b, a) * falling(c, a) is built once per (c, b); that
dict lives for one sweep.  Nothing else is kept across calls.

Everything is exact; nothing is sampled.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Callable, Sequence

from .combin import falling, stirling2
from .poly import HomogeneousPolynomial
from .rational import _as_int, _Record, as_rational

# Most bits _expected_value lets the Stirling rows of one term hold, bounded
# before any row by (K + 1) * d * bit_length(r * total), K = min(d, r): a
# coordinate's row has at most K + 1 entries S(b, a) * power(c, a) of at most
# b * bit_length(r * total) bits, and the b sum to d.  On a 2-vCPU Xeon VM,
# `sgo expect` takes 0.4 s at d = 10^5, r = 3 (1.6e6); near the bound, 1.4 s
# at d = 4.4 * 10^5, r = 2 (4.0e6, mostly rendering the value) and 2.6 s at
# d = 600, r = 590 (3.9e6, mostly Stirling sums); d = 10^6, r = 3 (1.6e7) took
# 22 s.  The time also grows with the number of terms.
_MAX_KERNEL_BITS = 4 * 10**6
Power = Callable[[int, int], int]  # falling (draws without replacement) or pow (with)


class HypergeomParams(_Record):
    """Urn description: m balls total, counts per color, r draws."""

    __slots__ = __match_args__ = ("m", "counts", "r")

    def __init__(self, m: int, counts: "tuple[int, ...]", r: int) -> None:
        m, counts, r = _as_int(m), tuple(map(_as_int, counts)), _as_int(r)
        if len(counts) < 1:
            raise ValueError("need at least one color")
        if any(c < 0 for c in counts):
            raise ValueError(f"negative color count in {counts}")
        if sum(counts) != m:
            raise ValueError(f"counts {counts} sum to {sum(counts)}, expected m={m}")
        if not 1 <= r <= m:
            raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
        self._set(m, counts, r)

    @property
    def n(self) -> int:
        return len(self.counts)

    def mean_point(self) -> "tuple[Fraction, ...]":
        """E[X] = counts/m, a rational simplex point."""
        return tuple(Fraction(c, self.m) for c in self.counts)


def _stirling_rows(
    beta: "tuple[int, ...]", colors: Sequence[int], power: Power, top: int,
    rows: "dict[tuple[int, int], list[int]]",
) -> "list[int]":
    """grouped[k] for k = 0..min(|beta|, top): the sum over a <= beta with |a| = k
    of prod S(beta_i, a_i) * power(colors_i, a_i).  Independent of r; see
    _stirling_terms.  Entries for k <= top do not depend on top.

    rows maps (c, b) to the row S(b, a) * power(c, a), a = 0..min(b, top),
    built on its first use; a sweep passes one dict to every call with one
    power and top = |beta|, so each row is built once in the sweep."""
    grouped = [1]  # grouped[k]: sum over |a| = k of the row products so far
    for c, b in zip(colors, beta):
        if b:
            row = rows.get((c, b))
            if row is None:
                row = rows[c, b] = [stirling2(b, a) * power(c, a) for a in range(min(b, top) + 1)]
            nxt = [0] * min(len(grouped) + b, top + 1)
            for j, g in enumerate(grouped):
                for a, w in enumerate(row[: len(nxt) - j]):
                    nxt[j + a] += g * w
            grouped = nxt
    return grouped


def _stirling_terms(
    beta: "tuple[int, ...]", r: int, colors: Sequence[int], total: int, power: Power
) -> "tuple[int, int]":
    """(numerator, denominator) of E[prod Z_i^beta_i] for Z the color counts of r
    draws from an urn of `total` balls, colors[i] of color i: without replacement
    when power is falling, with replacement when power is pow.

    Both laws expand as the sum over a <= beta of falling(r, |a|) *
    prod S(beta_i, a_i) * power(colors_i, a_i) / power(total, |a|).  One
    convolution of the rows S(beta_i, a) * power(colors_i, a) groups the terms
    by k = |a| (_stirling_rows, which does not depend on r); they vanish for
    k > r, so the sum is taken in integers over power(total, K),
    K = min(|beta|, r), which each power(total, k <= K) divides: the grouped
    rows times the quotients power(total, K) // power(total, k) are the
    weights (_scaled_moments), dotted with the falling row of r.
    """
    top = min(sum(beta), r)
    powers = [power(total, k) for k in range(top + 1)]
    weights = _scaled_moments(beta, colors, [powers[top] // p for p in powers], {}, power)
    return sum(map(mul, weights, _falling_row(r, top))), powers[top]


def _falling_quotients(m: int, d: int) -> "list[int]":
    """falling(m, d) // falling(m, k) for k = 0..d, m >= d: the factors that put
    the grouped rows over the common denominator r^d * falling(m, d)."""
    top = falling(m, d)
    return [top // falling(m, k) for k in range(d + 1)]


def _falling_row(r: int, d: int) -> "list[int]":
    """falling(r, k) for k = 0..d, as a running product; the entries past
    k = r are 0."""
    return list(accumulate(range(r, r - d, -1), mul, initial=1))


def _scaled_moments(
    beta: "tuple[int, ...]", counts: Sequence[int], quotients: "list[int]",
    rows: "dict[tuple[int, int], list[int]]", power: Power = falling,
) -> "list[int]":
    """The weights w_0..w_K, K = len(quotients) - 1 <= |beta|, of the Stirling
    expansion: w_k = grouped[k] * quotients[k], grouped the rows of
    _stirling_terms up to K, built through rows (see _stirling_rows).  With
    quotients = _falling_quotients(m, d), d = |beta|, and power falling they
    give E[prod X_i^beta_i] for every r = 1..m draws from the urn of m
    balls, counts[i] of color i: sum_k w_k * falling(r, k) (one dot product
    with _falling_row(r, d)) over r^d * falling(m, d), since for r < d the
    terms k > r vanish; that is the sum _stirling_terms takes at one r."""
    top = len(quotients) - 1
    return list(map(mul, _stirling_rows(beta, counts, power, top, rows), quotients))


def moment(p: HypergeomParams, beta: Sequence[int]) -> Fraction:
    """Raw moment E[prod Y_i^beta_i] via the Stirling-number expansion.

    Sums falling(r,|a|)/falling(m,|a|) * prod falling(counts_i, a_i) * S(beta_i, a_i)
    over all a <= beta componentwise, in integers (see _stirling_terms); zero
    color counts need no special casing.  The moment of X = Y/r is this over
    r^|beta|.
    """
    beta = tuple(map(_as_int, beta))
    if len(beta) != p.n:
        raise ValueError(f"moment index has {len(beta)} entries, expected {p.n}")
    if any(b < 0 for b in beta):
        raise ValueError(f"negative entry in {beta}")
    return Fraction(*_stirling_terms(beta, p.r, p.counts, p.m, falling))


def _expected_value(
    f: HomogeneousPolynomial, r: int, colors: Sequence[int], total: int, power: Power
) -> Fraction:
    """E[f(Z/r)] = sum over beta of f_beta * E[Z^beta] / r^d; see _stirling_terms.
    Refuses (ValueError) a kernel past _MAX_KERNEL_BITS before any row."""
    if (min(f.d, r) + 1) * f.d * (r * total).bit_length() > _MAX_KERNEL_BITS:
        raise ValueError(
            f"the degree is too high for an expectation at r = {r}: its Stirling "
            f"rows could hold more than {_MAX_KERNEL_BITS} bits"
        )
    value = Fraction(0)
    for beta, coef in f.coeffs.items():
        value += coef * Fraction(*_stirling_terms(beta, r, colors, total, power))
    return value / r**f.d


def expectation(f: HomogeneousPolynomial, p: HypergeomParams) -> Fraction:
    """E[f(X)], exactly.  Always an upper bound on the grid minimum at r = p.r."""
    if f.n != p.n:
        raise ValueError(f"polynomial has {f.n} variables, urn has {p.n} colors")
    return _expected_value(f, p.r, p.counts, p.m, falling)


def bernstein_approximation(f: HomogeneousPolynomial, x: Sequence, r: int) -> Fraction:
    """Order-r Bernstein approximation of f at the simplex point x.

    Equals E[f(W/r)] for W the color counts of r draws *with* replacement
    from color distribution x = p/q (an urn of q balls, p_i of color i).  At
    least the grid minimum at r.  Closed form: sum over beta of
    f_beta * E[W^beta] / r^d costs O(terms * d^2), independent of r, and no
    grid is summed, so no grid size guard applies.
    """
    r = _as_int(r)
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if len(x) != f.n:
        raise ValueError(f"point has {len(x)} coordinates, polynomial has {f.n} variables")
    point = [as_rational(v) for v in x]
    if any(v < 0 for v in point) or sum(point) != 1:
        raise ValueError("point must lie on the standard simplex")
    q = lcm(*(v.denominator for v in point))
    return _expected_value(f, r, [v.numerator * (q // v.denominator) for v in point], q, pow)
