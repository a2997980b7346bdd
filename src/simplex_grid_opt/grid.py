"""Exact optimization over the rational simplex grid.

The grid with denominator r is the set of simplex points x with r*x integral;
it is in bijection with I(n, r) via alpha <-> alpha/r, so a full sweep covers
C(n + r - 1, r) points.  Homogeneity gives f(alpha/r) = f(alpha)/r^d, so the
sweep compares the integers L*f(alpha), where L clears the denominators of the
coefficients once; the reported value is reconstructed as a Fraction at the
end.  Every step below is integer arithmetic, so the engine is exact.

One engine serves grid_extrema: a single lex-order pass that tracks the
minimum and the maximum together.  grid_minimize and grid_maximize are views
of it, and bounds.range_enclosures takes its grid values from it.

- Prefix tree.  The leading coordinates alpha_0..alpha_{n-3} are fixed
  depth-first, in ascending order.  With a prefix fixed, L*f restricted to the
  remaining coordinates is a polynomial whose coefficients are indexed by the
  distinct exponent suffixes of f's monomials; fixing the next coordinate to a
  multiplies each coefficient by a^b and sums those sharing the next suffix.
  The suffix orders are tabled ahead of the walk, so a node costs a few passes
  over a short integer list instead of one pass over f per point.
- Rows.  The last two coordinates (v, s - v), v = 0..s, form a row on which
  L*f is an integer polynomial h(v) of degree e <= d.  A row longer than e + 1
  is tabulated by finite differences (Knuth, TAOCP Vol. 2, 4.6.4): the
  differences of h at 0 come from a per-s table, and e prefix-sum passes
  rebuild h(0..s).  Shorter rows are evaluated directly.
- A node whose budget reaches 0 is a single point: the coefficient of the
  all-zero suffix.
- The suffix, power and row tables depend only on f's support and on r, not
  on its coefficients, so the few most recently used are kept: bound checks
  sweep the same support at the same denominators many times.

Rows arrive in lex order, so the lex-first minimizers (capped) and exact tie
counts fall out of min, max, count and index on each row.  With threads > 1
the range of alpha_0 is split into contiguous chunks whose partial results
merge in lex order, so the outcome never depends on threading.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, inf, lcm
from operator import gt, lt, mul, sub

from .combin import composition_count
from .poly import HomogeneousPolynomial

MINIMIZER_CAP = 16
DEFAULT_GRID_GUARD = 10**8


class GridTooLargeError(RuntimeError):
    """Raised when a grid sweep would exceed the configured point budget."""


@dataclass(frozen=True)
class GridMinResult:
    """Outcome of an exhaustive grid sweep.

    minimizers holds the lexicographically first numerator tuples attaining
    the value (point = alpha/r), capped; tie_count is the exact number of
    attaining points.
    """

    value: Fraction
    r: int
    minimizers: "tuple[tuple[int, ...], ...]"
    tie_count: int
    evaluations: int


def _grid_size(n: int, r: int, max_points: "int | None") -> int:
    """Number of grid points; raises before any work when it exceeds max_points."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    total = composition_count(n, r)
    if max_points is not None and total > max_points:
        raise GridTooLargeError(f"grid has {total} points, budget is {max_points}")
    return total


class _Extreme:
    """Running minimum (pick=min) or maximum (pick=max) of a lex-ordered sweep."""

    __slots__ = ("pick", "beats", "cap", "value", "points", "ties")

    def __init__(self, pick, cap: int) -> None:
        self.pick = pick
        self.beats = lt if pick is min else gt
        self.cap = cap
        self.value = inf if pick is min else -inf  # worse than every integer
        self.points: "list[tuple[int, ...]]" = []
        self.ties = 0

    def add_row(self, values: "list[int]", prefix: "tuple[int, ...]", s: int) -> None:
        """Take the row of points prefix + (v, s - v) with values[v], v = 0..s."""
        v = self.pick(values)
        if self.beats(self.value, v):
            return
        if v != self.value:
            self.value, self.points, self.ties = v, [], 0
        ties = values.count(v)
        self.ties += ties
        i = -1
        for _ in range(min(ties, self.cap - len(self.points))):
            i = values.index(v, i + 1)
            self.points.append(prefix + (i, s - i))

    def absorb(self, value: int, ties: int, points) -> None:
        """Take `ties` points of the given value that follow in lex order;
        `points` lists the first of them (up to the cap)."""
        if self.beats(self.value, value):
            return
        if value != self.value:
            self.value, self.points, self.ties = value, [], 0
        self.ties += ties
        self.points.extend(points[: self.cap - len(self.points)])


class _Shape:
    """Integer tables for sweeping any polynomial with a given support over
    the grid with denominator r.  They do not depend on the coefficients.

    At depth k of the prefix tree (alpha_0..alpha_{k-1} fixed), L*f is held
    as one coefficient per distinct exponent suffix beta[k:].  The suffixes
    are listed so that the first `width` of them have one per child suffix
    beta[k+1:], in the child's order; fixing alpha_k = a then scales every
    coefficient by a^b, adds each later entry into its child's slot, and cuts
    the list to `width`.  levels[k] = (powers, width, extras, zero) holds the
    powers a^b per a = 0..r, the child count, the (child, entry) pairs to add,
    and the entries whose child suffix is all zero (the point reached when the
    budget runs out).  `order` lists the monomials in root order.

    rows[s] holds, for each row suffix (b, c), the values of v^b (s - v)^c at
    v = 0..s when s <= e, and otherwise its forward differences of order
    0..e at v = 0, where e is the largest b + c.
    """

    def __init__(self, support: "tuple[tuple[int, ...], ...]", n: int, d: int, r: int) -> None:
        # power[v][b] = v^b for v = 0..r, b = 0..d
        power = [tuple(accumulate(repeat(v, d), mul, initial=1)) for v in range(r + 1)]
        levels = []
        order = sorted({alpha[-2:] for alpha in support})  # row suffixes (b, c)
        row_suffixes = order
        for k in range(n - 3, -1, -1):
            found = defaultdict(set)
            for alpha in support:
                found[alpha[k + 1 :]].add(alpha[k])
            exponents = {child: sorted(found[child]) for child in order}
            parents = [(exponents[child][0],) + child for child in order]
            extras = []
            for j, child in enumerate(order):
                for b in exponents[child][1:]:
                    extras.append((j, len(parents)))
                    parents.append((b,) + child)
            lead = [suffix[0] for suffix in parents]
            levels.append((
                tuple(tuple(map(power[a].__getitem__, lead)) for a in range(r + 1)),
                len(order),
                tuple(extras),
                tuple(i for i, suffix in enumerate(parents) if not any(suffix[1:])),
            ))
            order = parents
        self.levels = tuple(reversed(levels))
        self.order = tuple(order)

        self.e = e = max((b + c for b, c in row_suffixes), default=0)
        rows: "list[tuple[tuple[int, ...], ...] | None]" = [None] * (r + 1)
        for s in range(1, r + 1) if n > 2 else (r,):
            values = []
            for v in range(min(s, e) + 1):
                left, right = power[v], power[s - v]
                values.append(tuple(left[b] * right[c] for b, c in row_suffixes))
            if s > e:  # keep the k-th forward differences at v = 0 instead
                deltas = []
                while values:
                    deltas.append(values[0])
                    values = [tuple(map(sub, y, x)) for x, y in zip(values, values[1:])]
                values = deltas
            rows[s] = tuple(values)
        self.rows = tuple(rows)

    def row(self, coeffs: "list[int]", s: int) -> "list[int]":
        """Values of L*f on the row v = 0..s, given the row-suffix coefficients."""
        table = [sum(map(mul, coeffs, w)) for w in self.rows[s]]
        e = self.e
        if s <= e:
            return table
        values = repeat(table[e], s + 1 - e)
        for k in range(e - 1, -1, -1):
            values = accumulate(values, initial=table[k])
        return list(values)


@lru_cache(maxsize=8)
def _shape(support: "tuple[tuple[int, ...], ...]", n: int, d: int, r: int) -> _Shape:
    """The tables for (support, r), kept for the few most recent shapes.

    Callers such as bound checks and enclosures sweep the same support at the
    same few denominators many times; the tables are immutable, so reuse is
    safe across calls and threads.
    """
    return _Shape(support, n, d, r)


def _scan(shape: "_Shape | None", root: "list[int]", n: int, r: int, first: int, stop: int,
          cap: int) -> "tuple[_Extreme, _Extreme]":
    """Extremes (low, high) of L*f over the grid points with first <= alpha_0 < stop.

    root holds L*f's coefficients in shape.order; for n = 1 it holds the one
    coefficient of x^d times r^d, or nothing for the zero polynomial.
    """
    low, high = _Extreme(min, cap), _Extreme(max, cap)
    if n == 1:
        value = root[0] if root else 0
        low.absorb(value, 1, [(r,)])
        high.absorb(value, 1, [(r,)])
        return low, high
    if n == 2:
        values = shape.row(root, r)
        low.add_row(values, (), r)
        high.add_row(values, (), r)
        return low, high

    levels, row_depth = shape.levels, n - 2

    def node(k: int, coeffs: "list[int]", s: int, prefix: "tuple[int, ...]", alphas: range) -> None:
        powers, width, extras, zero = levels[k]
        zeros = (0,) * (n - k - 1)
        for a in alphas:
            rest = s - a
            here = prefix + (a,)
            power = powers[a]
            if rest == 0:
                value = sum(map(mul, map(coeffs.__getitem__, zero), map(power.__getitem__, zero)))
                low.absorb(value, 1, [here + zeros])
                high.absorb(value, 1, [here + zeros])
                continue
            child = list(map(mul, coeffs, power))
            if extras:
                for j, i in extras:
                    child[j] += child[i]
                del child[width:]
            if k + 1 == row_depth:
                values = shape.row(child, rest)
                low.add_row(values, here, rest)
                high.add_row(values, here, rest)
            else:
                node(k + 1, child, rest, here, range(rest + 1))

    node(0, root, r, (), range(first, stop))
    return low, high


def _alpha0_chunks(n: int, r: int, threads: int) -> "list[tuple[int, int]]":
    """Split alpha_0 = 0..r into at most `threads` ranges of about equal point counts."""
    if n < 3 or threads <= 1:
        return [(0, r + 1)]
    count = min(threads, r + 1)
    # cum[a] * count: points with alpha_0 <= a, scaled so the cut targets stay integral
    cum = [c * count for c in accumulate(comb(r - a + n - 2, n - 2) for a in range(r + 1))]
    total = cum[-1] // count
    cuts = sorted({bisect_left(cum, total * i) + 1 for i in range(1, count)} - {r + 1})
    edges = [0, *cuts, r + 1]
    return list(zip(edges, edges[1:]))


def _sweep(
    f: HomogeneousPolynomial, r: int, threads: int, cap: int
) -> "tuple[_Extreme, _Extreme, int]":
    """Extremes (low, high) of L*f over the grid from one lex-order pass, and L*r^d."""
    scale = lcm(*(c.denominator for c in f.coeffs.values()))
    coeffs = {alpha: c.numerator * (scale // c.denominator) for alpha, c in f.coeffs.items()}
    if f.n == 1:
        shape, root = None, [c * r**f.d for c in coeffs.values()]
    else:
        shape = _shape(tuple(coeffs), f.n, f.d, r)
        root = [coeffs[alpha] for alpha in shape.order]
    chunks = _alpha0_chunks(f.n, r, threads)
    workers = min(len(chunks), os.cpu_count() or 1) if len(chunks) > 1 else 1
    if workers == 1:
        partials = [_scan(shape, root, f.n, r, first, stop, cap) for first, stop in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda chunk: _scan(shape, root, f.n, r, *chunk, cap), chunks))
    low, high = partials[0]
    for later_low, later_high in partials[1:]:  # chunks arrive in lex order
        low.absorb(later_low.value, later_low.ties, later_low.points)
        high.absorb(later_high.value, later_high.ties, later_high.points)
    return low, high, scale * r**f.d


def _result(ext: _Extreme, denominator: int, r: int, total: int) -> GridMinResult:
    return GridMinResult(
        value=Fraction(ext.value, denominator),
        r=r,
        minimizers=tuple(ext.points),
        tie_count=ext.ties,
        evaluations=total,
    )


def grid_extrema(
    f: HomogeneousPolynomial,
    r: int,
    *,
    threads: int = 1,
    minimizer_cap: int = MINIMIZER_CAP,
    max_points: "int | None" = DEFAULT_GRID_GUARD,
) -> "tuple[GridMinResult, GridMinResult]":
    """Exact (minimum, maximum) of f over the grid with denominator r, from one pass.

    The sweep is exhaustive and deterministic: threads split the range of
    alpha_0 into contiguous chunks whose partial results merge independently
    of the partition, so the outcome never depends on threading.  Workers are
    capped at the CPU count; under the GIL they give no speed-up.  The
    maximum's minimizers field holds the lex-first maximizers.
    """
    total = _grid_size(f.n, r, max_points)
    low, high, denominator = _sweep(f, r, threads, minimizer_cap)
    return _result(low, denominator, r, total), _result(high, denominator, r, total)


def grid_minimize(
    f: HomogeneousPolynomial,
    r: int,
    *,
    threads: int = 1,
    minimizer_cap: int = MINIMIZER_CAP,
    max_points: "int | None" = DEFAULT_GRID_GUARD,
) -> GridMinResult:
    """Exact minimum of f over the grid with denominator r; see grid_extrema."""
    return grid_extrema(f, r, threads=threads, minimizer_cap=minimizer_cap, max_points=max_points)[0]


def grid_maximize(
    f: HomogeneousPolynomial,
    r: int,
    *,
    threads: int = 1,
    minimizer_cap: int = MINIMIZER_CAP,
    max_points: "int | None" = DEFAULT_GRID_GUARD,
) -> GridMinResult:
    """Exact maximum of f over the grid with denominator r; see grid_extrema."""
    return grid_extrema(f, r, threads=threads, minimizer_cap=minimizer_cap, max_points=max_points)[1]
