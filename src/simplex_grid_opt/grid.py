"""Exact optimization over the rational simplex grid.

The grid with denominator r is the set of simplex points x with r*x integral;
it is in bijection with I(n, r) via alpha <-> alpha/r, so a full sweep covers
C(n + r - 1, r) points.  Homogeneity gives f(alpha/r) = f(alpha)/r^d, so the
sweep compares the integers L*f(alpha), where L clears the denominators of the
coefficients once; the reported value is reconstructed as a Fraction at the
end.  Every step below is integer arithmetic, so the engine is exact.

One engine serves every sweep: a single lex-order pass that tracks the sides
its caller needs, the minimum (grid_minimize), the maximum (grid_maximize) or
both (grid_extrema, from which bounds.range_enclosures takes its grid values).
Its one Bernstein kernel (_bernstein_rows, see Pruning) also gives
range_enclosures its outer endpoints: the table of the whole simplex at degree
d + k holds the coefficients of f elevated by k, whose extremes
_bernstein_extrema reads in integers.

- Prefix tree.  The leading coordinates alpha_0..alpha_{n-3} are fixed
  depth-first, in ascending order.  With a prefix fixed, L*f restricted to the
  remaining coordinates is a polynomial whose coefficients are indexed by the
  distinct exponent suffixes of f's monomials; fixing the next coordinate to a
  multiplies each coefficient by a^b and sums those sharing the next suffix.
  The suffix orders are tabled ahead of the walk, so a node costs a few passes
  over a short integer list instead of one pass over f per point.
- Rows.  The last two coordinates (v, s - v), v = 0..s, form a row on which
  L*f is an integer polynomial h(v) of degree e <= d, e the largest b + c over
  the row suffixes (b, c) of f.  A row longer than e + 1 is read from its
  forward differences t_k of h at 0, which come from a per-s table (Knuth,
  TAOCP Vol. 2, 4.6.4).  When e <= 2, always so for d = 2, h(v) = t0 + t1 v +
  t2 v(v - 1)/2 is read in closed form: its extreme on a side where it is
  convex sits at the least v with t2 (t1 + t2 v) >= 0, tied with v + 1 when
  that difference is 0, and on any other side at an end, so each row costs a
  few integer operations however long it is (_Extreme.add_quadratic).  For e
  >= 3, e prefix-sum passes rebuild h(0..s).  Shorter rows are evaluated
  directly.
- Stepped siblings.  The children alpha_k = a of a node are integer
  polynomials of degree <= d in a: a child's Bernstein coefficients p_g (see
  Pruning) and, for a row, its differences t_k.  So a node with more than d +
  1 children that the gate bounds, or a row parent with more than
  3 (d + 1) rows longer than e + 1 (_ROW_RUN), evaluates the first d + 1 and
  steps the rest with d vector additions each, the same tabulation as in a
  row.  A stepped node builds its coefficient list only when the walk
  descends into it.  A stepped row of degree e >= 3 also steps its d + 1
  Bernstein coefficients on the segment, as the node of m = 2 coordinates
  (see Pruning), and goes through the node test; a quadratic row is never
  tested, its closed form costs less.  A run stops at the end of a chunk,
  and at the first child below the gate or row no longer than e + 1.
- A node whose budget reaches 0 is a single point: the coefficient of the
  all-zero suffix.
- Pruning.  A node at depth k >= 1 holds L*f on the face of the m = n - k
  coordinates y left, with budget s = sum y, as one integer c_i per suffix
  sigma_i.  Homogenized by (sum y)^(d - |sigma_i|) and scaled by s^|sigma_i|,
  it has the simplicial Bernstein coefficients p_g / multinomial(d, g), g in
  I(m, d), with p_g = sum over sigma_i <= g of c_i s^|sigma_i| multinomial(d -
  |sigma_i|, g - sigma_i); every value under the node lies between their min
  and max (Leroy, Reliable Computing 17, 2012).  The node test (_Shape._loses)
  skips the node when, on every tracked side, p_g is strictly worse than the
  running extreme times multinomial(d, g) for every g, and stops at the first
  p_g that is not: the running extreme is attained, so minimizers and tie
  counts stay exact.  The p_g come from the node's own coefficients
  (_Shape.beaten) or are stepped with its siblings (_Shape.skip).  Each side's
  running extreme starts from its best vertex value, L*c_i*r^d with c_i the
  coefficient of x_i^d (0 if absent), which the grid point r e_i attains; the
  lex walk reaches r e_0 only at its last point, so without that start nothing
  could be skipped before the first row.  The node holding r e_i has a vertex
  row equal to the start, so it is never skipped, and the vertex is counted
  when the walk gets there.  The table holds the m vertex rows g = d e_i
  first, then one empty row standing for every other g that no sigma_i lies
  under (p_g = 0), then the rest; its size is its (index, weight) entry count,
  however large I(m, d) is.  The last vertex row, the node's lex-first point,
  is also kept apart (tails) and tested first, as the one-point node of depth
  n - 1, so a node that it keeps builds no table.  At d = 2 the test is
  sharper (_quadratic_beaten): with V_i the vertex coefficients, none of them
  reaching the running extreme, h the least edge coefficient (g = e_i + e_j)
  and D_i = V_i - h > 0, the form in t = y/s is h + sum D_i t_i^2 plus edge
  terms that are >= 0 on the face, so every value under the node is >= h +
  1/sum_i 1/D_i, the least of sum D_i t_i^2 on the simplex (Cauchy-Schwarz);
  the max side is the same bound for -f.  It is never below the least
  Bernstein coefficient, it is exact on the face for sum x_i^2, where that
  coefficient is h alone, and it prunes the stable-set forms x^T(I + A)x,
  whose minimizers are interior.  Only nodes of depth 1..n-3 whose subtree has
  at least one point per _BOUND_ENTRIES_PER_POINT entries are bounded, from
  their own coefficients or stepped ones; rows are bounded only when stepped,
  as the nodes of depth n - 2.  evaluations still counts every grid point,
  evaluated or certified.
- The tables depend only on f's support, not on its coefficients, and are
  kept in one cache for the few most recently used supports (_shape):
  converge, enclosures and bound checks sweep the same support at many
  denominators.  The suffix orders, gate sizes and Bernstein tables do not
  depend on r at all.  The powers a^b (a <= r) are grown to the largest r
  swept so far, adding only the missing entries, and a row table (s <= r) is
  built the first time the walk reads it, so a run over r = 2..R builds each
  of them once, and a walk that prunes most rows builds few.

Rows arrive in lex order, so the lex-first minimizers (capped) and exact tie
counts fall out of min, max, count and index on each tabulated row, and out of
the ascending extreme points of each closed-form one.  With threads > 1
the range of alpha_0 is split into contiguous chunks whose partial results
merge in lex order, so the outcome never depends on threading; each chunk
starts from the same vertex values and prunes against its own running
extremes, which changes only what it skips.  A chunk that finds nothing as
good as a start returns it with no points and 0 ties.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from math import comb, lcm
from operator import add, gt, lt, mul, sub
from threading import Lock

from .combin import composition_count
from .poly import HomogeneousPolynomial
from .rational import _Record, decimal_str

MINIMIZER_CAP = 16
DEFAULT_GRID_GUARD = 10**8

# The pruning gate (see _gates): a node is bounded only when its Bernstein
# table has at most this many entries per grid point below it.  Chosen by timing
# the sweep workload; the bound exits at the first row that fails, so it costs
# far less than its table on average.  Re-timed with the quadratic node bound
# (perfbench sweep, seeds 1-3, median work_per_s): 2, 4, 8 and 16 gave 1.92e6,
# 1.99e6, 2.03e6 and 2.06e6 points/s, inside the spread of the seeds at 4
# (1.97e6-2.33e6), and converge moved no more, so it stays at 4.  Re-timed with
# stepped siblings, where a bounded node costs d vector additions, on the
# eight polynomial sweep slots (2-vCPU Xeon VM, Python 3.11, 4 ops per slot,
# best of 3, the values interleaved per op): 2, 4, 8 and 16 took 0.283, 0.250,
# 0.234 and 0.228 s (seed 21), and 4, 16, 32 and 64 took 0.232, 0.214, 0.213
# and 0.212 s (seed 22).  It stays at 4 all the same: 8 and 16 also bound
# quadratic nodes that 4 does not, which moves the pinned pruned count of the
# Petersen form at r = 10 from 86093 to 87923 and 88593.
_BOUND_ENTRIES_PER_POINT = 4

# A row parent steps its rows (_scan) only in runs of more than _ROW_RUN times
# d + 1; a node steps its bounded children in runs of more than d + 1.  The
# d + 1 rows evaluated to start a run cost about five rows of the plain path,
# and a stepped row saves little unless it is skipped.  Timed on the benchmark
# workloads (2-vCPU Xeon VM, Python 3.11, 3 ops per slot, best of 3, the
# values interleaved per op): converge took 0.596, 0.515 and 0.612 s at 1 and
# 0.580, 0.489 and 0.588 s at 3 (seeds 31-33); 2 and 4 gave 0.579 and 0.575 s
# (seed 31), and sweep moved by 2% at most.
_ROW_RUN = 3

# The most bits a sweep's power table may hold, counted as (r + 1)(d + 1)
# integers a^b (a <= r, b <= d) of d * bit_length(r) bits each; the row tables
# grow with the same product.  The largest sweep of the test suite (n = 4,
# d = 4, r = 80) measures 1.1e4.  At the bound, on a 2-vCPU Xeon VM, d = 2000
# at r = 40 peaks at 60 MB RSS and d = 300 at r = 1000 at 79 MB (n = 2) or
# 258 MB (n = 3, 47 s); d = 10^4 at r = 40 measures 2.5e10 and peaks at 1 GB.
# A sweep above it is refused before any table is built, whatever the grid
# size guard allows.
_MAX_POWER_TABLE_BITS = 10**9

# The most entries the Bernstein table of an enclosure (_bernstein_extrema) may
# hold, |support| * C(n - 1 + k, n - 1) at elevation k, refused before any sweep.
# A table whose entries each make their own row costs most, about 0.75 KB per
# entry at its peak: on a 2-vCPU Xeon VM (Python 3.11, _bernstein_extrema alone
# in a fresh process, ru_maxrss), x_1^4 takes 1.0 s and peaks at 131 MB with 27
# variables at k = 5 (1.7e5 entries), 0.8 s and 107 MB with 13 at k = 8
# (1.3e5), and 3.3 s and 378 MB with 16 at k = 8 (4.9e5), past the bound; a
# dense one shares its rows, and n = 10, d = 3 (220 terms) at k = 4 (1.6e5)
# takes 0.44 s and 31 MB through `sgo enclose --r 1`.  The largest table of the
# test suite holds 660 entries, and of perfbench 525.
_MAX_ENCLOSURE_ENTRIES = 2 * 10**5


class GridTooLargeError(RuntimeError):
    """Raised when a grid sweep would exceed the configured point budget."""


class GridMinResult(_Record):
    """Outcome of an exhaustive grid sweep.

    minimizers holds the lexicographically first numerator tuples attaining
    the value (point = alpha/r), capped; tie_count is the exact number of
    attaining points.
    """

    __slots__ = __match_args__ = ("value", "r", "minimizers", "tie_count", "evaluations")

    def __init__(
        self, value: Fraction, r: int, minimizers: "tuple[tuple[int, ...], ...]",
        tie_count: int, evaluations: int,
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "minimizers", minimizers)
        object.__setattr__(self, "tie_count", tie_count)
        object.__setattr__(self, "evaluations", evaluations)


def _grid_size(n: int, r: int, max_points: "int | None") -> int:
    """Number of grid points; raises before any work when it exceeds max_points.
    The message gives the count to 20 significant digits, as one of any size
    renders (str() refuses an int of more than 4300 digits)."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    total = composition_count(n, r)
    if max_points is not None and total > max_points:
        raise GridTooLargeError(f"grid has {decimal_str(total)} points, budget is {max_points}")
    return total


def _check_degree(d: int, r: int) -> None:
    """Refuse (ValueError) a sweep of degree d at denominator r whose power
    table would exceed _MAX_POWER_TABLE_BITS.  The message gives d and r to 20
    significant digits, so it stays one short line however long they are."""
    if (r + 1) * (d + 1) * d * r.bit_length() > _MAX_POWER_TABLE_BITS:
        raise ValueError(
            f"degree {decimal_str(d)} is too high for a sweep at r = {decimal_str(r)}: "
            f"its power table would exceed {_MAX_POWER_TABLE_BITS} bits"
        )


class _Extreme:
    """Running minimum (pick=min) or maximum (pick=max) of a lex-ordered sweep.

    It starts from a value that some grid point attains, with no points and 0
    ties: the points of that value are counted when the sweep reaches them, and
    a better one replaces it.  So the value is always attained, and at least as
    good as any point seen, before or after the first point.
    """

    __slots__ = ("pick", "beats", "cap", "value", "points", "ties")

    def __init__(self, pick, cap: int, value: int) -> None:
        self.pick = pick
        self.beats = lt if pick is min else gt
        self.cap = cap
        self.value = value
        self.points: "list[tuple[int, ...]]" = []
        self.ties = 0

    def add_row(self, values: "list[int]", prefix: "tuple[int, ...]", s: int) -> None:
        """Take the row of points prefix + (v, s - v) with values[v], v = 0..s."""
        v = self.pick(values)
        if not self.beats(self.value, v):
            hits = compress(range(s + 1), map(v.__eq__, values))
            self._take(v, values.count(v), (prefix + (i, s - i) for i in hits))

    def add_quadratic(self, t0: int, t1: int, t2: int, prefix: "tuple[int, ...]", s: int) -> None:
        """add_row for the row h(v) = t0 + t1 v + t2 v(v - 1)/2, v = 0..s, read
        in closed form from its forward differences at 0.

        Delta h(v) = t1 + t2 v.  On the side where h is convex (t2 > 0 for min,
        t2 < 0 for max), the extreme is at the least v with t2 Delta h(v) >= 0,
        ceil(-t1/t2) clamped to 0..s, and v + 1 ties with it exactly when
        Delta h(v) = 0.  Otherwise the extreme is at an end, or at both when
        h(0) = h(s); a constant row ties at every v.  The points are listed in
        ascending v, as add_row lists them.
        """
        if t2 and (t2 > 0) == (self.pick is min):
            v = min(max(-(t1 // t2), 0), s)
            value = t0 + t1 * v + t2 * (v * (v - 1) // 2)
            hits = (v, v + 1) if v < s and t1 + t2 * v == 0 else (v,)
        elif t1 or t2:
            end = t0 + t1 * s + t2 * (s * (s - 1) // 2)
            value = self.pick(t0, end)
            hits = (0, s) if end == t0 else (0,) if value == t0 else (s,)
        else:
            value, hits = t0, range(s + 1)
        if not self.beats(self.value, value):
            self._take(value, len(hits), (prefix + (v, s - v) for v in hits))

    def absorb(self, value: int, ties: int, points) -> None:
        """Take `ties` points of the given value that follow in lex order;
        `points` lists the first of them (up to the cap)."""
        if not self.beats(self.value, value):
            self._take(value, ties, points)

    def _take(self, value: int, ties: int, points) -> None:
        """Count `ties` points of a value no worse than the extreme, which follow
        every point seen in lex order, and keep the first of `points`, an
        iterable of them in lex order, up to the cap; a better value replaces
        the extreme."""
        if value != self.value:
            self.value, self.points, self.ties = value, [], 0
        self.ties += ties
        self.points += islice(points, self.cap - len(self.points))


def _suffix_orders(support: "tuple[tuple[int, ...], ...]", rows: "list[tuple[int, int]]", n: int):
    """The coefficient lists of the prefix tree, from depth n - 3 up to the root.

    At depth n - 2 the list holds one entry per row suffix (b, c) in `rows`.
    Each depth k <= n - 3 yields (lead, child, degrees, width, extras, slot): entry i
    stands for the suffix (lead[i],) + (suffix child[i] of depth k + 1), of
    degree degrees[i]; the first `width` entries have child[i] = i, and
    extras lists the (child, entry) pairs of the rest.  slot[t] is the entry
    of support[t].  Suffixes are tracked by index, so a depth costs time linear
    in the support, whatever n is.
    """
    index = {suffix: j for j, suffix in enumerate(rows)}
    slot = [index[alpha[-2:]] for alpha in support]
    degrees = [b + c for b, c in rows]
    for k in range(n - 3, -1, -1):
        found = defaultdict(set)
        for alpha, j in zip(support, slot):
            found[j].add(alpha[k])
        width = len(degrees)
        exponents = [sorted(found[j]) for j in range(width)]
        lead = [bs[0] for bs in exponents]
        child = list(range(width))
        extras = []
        for j, bs in enumerate(exponents):
            for b in bs[1:]:
                extras.append((j, len(lead)))
                lead.append(b)
                child.append(j)
        index = {(b, j): i for i, (b, j) in enumerate(zip(lead, child))}
        slot = [index[alpha[k], j] for alpha, j in zip(support, slot)]
        degrees = [b + degrees[j] for b, j in zip(lead, child)]
        yield lead, child, degrees, width, tuple(extras), slot


def _table_entries(m: int, d: int, degrees: "list[int]") -> int:
    """Size of the Bernstein table of a node with m coordinates left: a suffix
    of degree e takes part in C(m - 1 + d - e, m - 1) of its rows."""
    return sum(count * comb(m - 1 + d - e, m - 1) for e, count in Counter(degrees).items())


def _bernstein_rows(suffixes: "list[tuple[int, ...]]", m: int, d: int) -> "tuple[tuple, ...]":
    """The Bernstein table of a node with m coordinates left whose coefficients
    are indexed by `suffixes`.

    A row is the entries i with suffixes[i] <= g, their weights
    multinomial(d - |suffixes[i]|, g - suffixes[i]), and multinomial(d, g).
    The m vertices g = d*e_i come first, in coordinate order: each is the value
    at a grid point of the subtree, so the test starts there, and a vertex no
    suffix lies under has an empty row (p_g = 0).  Every other g without a row
    also has p_g = 0; one empty row stands for them all (p_g = 0 fails against
    the incumbent times any positive size alike, so it takes size 2) and comes
    next, before the rows that cost a sum, which follow in the order their g
    is first reached: suffix by suffix, and for each, g = sigma + kappa over
    kappa in I(m, d - |sigma|) in lex order.  The table costs its entry count
    (_table_entries) and at most m + 1 rows more, not |I(m, d)|.  It depends
    only on the suffixes and d, not on the coefficients, the budget or r.
    Each g is keyed by its base-(d + 1) code, the sum of g_j (d + 1)^j, so
    sigma + kappa costs one integer addition; its sparse (coordinate,
    exponent) form, which gives its size, is built once per row from those of
    sigma and kappa.  So an entry costs O(d) and not O(m): many-variable
    tables stay linear in their size.  With the full exponents of f as
    suffixes, m = n and degree d + k, it is the table of f elevated by k
    (_bernstein_extrema).
    """
    unit = list(accumulate(repeat(d + 1, m - 1), mul, initial=1))  # (d + 1)^j
    offsets = {}  # e: I(m, e) from _compositions, built once however many suffixes share it
    hits = {}  # the code of g: [i, weight, i, weight, ...] over the suffixes under g
    firsts = []  # per g, in the order of hits: the first (i, kappa) that reached it
    for i, sigma in enumerate(suffixes):
        e = d - sum(sigma)
        kappas = offsets.get(e)
        if kappas is None:
            kappas = offsets[e] = _compositions(m, e, unit)
        base = sum(map(mul, sigma, unit))
        for code, weight, kappa in kappas:
            row = hits.get(base + code)
            if row is None:
                hits[base + code] = [i, weight]
                firsts.append((i, kappa))
            else:
                row += i, weight
    rows, rest = [((), (), 1)] * m, []
    sparse = [[(j, b) for j, b in enumerate(sigma) if b] for sigma in suffixes]
    for (i, kappa), row in zip(firsts, hits.values()):
        g = dict(kappa)
        for j, b in sparse[i]:
            g[j] = g.get(j, 0) + b
        index, weights = tuple(row[0::2]), tuple(row[1::2])
        if len(g) == 1:  # g = d e_j
            rows[next(iter(g))] = (index, weights, 1)
        else:
            size, left = 1, d
            for b in g.values():
                size *= comb(left, b)
                left -= b
            rest.append((index, weights, size))
    if len(rest) < composition_count(m, d) - m:
        rows.append(((), (), 2))
    return tuple(rows + rest)


def _compositions(m: int, e: int, unit: "list[int]") -> "list[tuple[int, int, tuple]]":
    """I(m, e) in ascending lex order, each kappa as its code (the sum of
    kappa_j unit[j]), its weight multinomial(e, kappa) and its (coordinate,
    exponent) pairs in coordinate order.

    The successor of kappa moves one unit from its last nonzero coordinate j
    to j - 1 and the rest of kappa_j to the last coordinate, so the pairs are
    kept as a stack and the code and weight are updated in place: with a =
    kappa_{j-1} and b = kappa_j, the weight becomes weight * b / (a + 1).  Each
    kappa costs O(e), however large m is, and nothing recurses over the m
    coordinates.
    """
    if e == 0:
        return [(0, 1, ())]
    last = m - 1
    stack = [(last, e)]
    code, weight = e * unit[last], 1
    out = []
    while True:
        out.append((code, weight, tuple(stack)))
        j, b = stack.pop()
        if j == 0:  # kappa = e e_0, the last
            return out
        a = stack.pop()[1] if stack and stack[-1][0] == j - 1 else 0
        stack.append((j - 1, a + 1))
        weight = weight * b // (a + 1)
        code += unit[j - 1] - b * unit[j]
        if b > 1:
            stack.append((last, b - 1))
            code += (b - 1) * unit[last]


def _integer_form(f: HomogeneousPolynomial) -> "tuple[int, dict[tuple[int, ...], int]]":
    """L and the integer coefficients of L*f, L the least common denominator of
    f's coefficients (1 for the zero polynomial)."""
    scale = lcm(*(c.denominator for c in f.coeffs.values()))
    return scale, {alpha: c.numerator * (scale // c.denominator) for alpha, c in f.coeffs.items()}


def _check_enclosure_table(f: HomogeneousPolynomial, k: int) -> None:
    """Refuse (ValueError) an enclosure at elevation k whose Bernstein table
    (_bernstein_extrema) would hold more than _MAX_ENCLOSURE_ENTRIES entries:
    each monomial of f lies under C(n - 1 + k, n - 1) of its rows."""
    entries = len(f.coeffs) * comb(f.n - 1 + k, f.n - 1)
    if entries > _MAX_ENCLOSURE_ENTRIES:
        raise ValueError(
            f"the Bernstein table at elevation {k} would hold {decimal_str(entries)} "
            f"entries, more than {_MAX_ENCLOSURE_ENTRIES}"
        )


def _bernstein_extrema(f: HomogeneousPolynomial, k: int) -> "tuple[Fraction, Fraction]":
    """The least and greatest simplicial Bernstein coefficients of f times
    (x_1 + ... + x_n)^k, which enclose f on the simplex.

    They are the extremes of p_g / multinomial(d + k, g) over g in I(n, d + k),
    p_g = sum over alpha <= g of L*f_alpha * multinomial(k, g - alpha): the
    table of the root node at degree d + k (_bernstein_rows), in integers,
    divided by L at the end.
    """
    scale, coeffs = _integer_form(f)
    values = list(coeffs.values())
    low = high = None
    for index, weights, size in _bernstein_rows(list(coeffs), f.n, f.d + k):
        p = sum(map(mul, map(values.__getitem__, index), weights))
        if low is None:
            low = high = (p, size)
        elif p * low[1] < low[0] * size:
            low = (p, size)
        elif p * high[1] > high[0] * size:
            high = (p, size)
    return Fraction(low[0], low[1] * scale), Fraction(high[0], high[1] * scale)


class _Shape:
    """Integer tables for sweeping any polynomial with a given support.  They
    do not depend on the coefficients, and only the power and row tables
    depend on r: grow(r) extends the powers to the grid with denominator r and
    makes room for its rows.

    At depth k of the prefix tree (alpha_0..alpha_{k-1} fixed), L*f is held
    as one coefficient per distinct exponent suffix beta[k:], listed as in
    _suffix_orders; fixing alpha_k = a then scales every coefficient by a^b,
    adds each later entry into its child's slot, and cuts the list to `width`.
    levels[k] = (powers, width, extras, zero) holds the powers a^b per
    a = 0..r, the child count, the (child, entry) pairs to add, and the
    entries whose child suffix is all zero (the point reached when the budget
    runs out).  `order` lists the monomials in root order.

    rows[s] holds, for each row suffix (b, c), the values of v^b (s - v)^c at
    v = 0..s when s <= e, and otherwise its forward differences of order
    0..e at v = 0, where e is the largest b + c.  It is None until the walk
    first reads it (_row_table), and kept from then on: a stepped row parent
    reads only its first d + 1 rows, and a pruned node none.  For n = 2 the
    only row is the whole grid, so only rows[r] of each r swept is built.

    entries[k] is the size of the Bernstein table of depth k = 1..n-3; the
    table itself is built when the gate first admits a node of that depth
    whose last vertex does not keep it (beaten), or a run of stepped children
    of that depth starts (differences).  The table of depth n - 2, of the
    rows, is built only for stepped rows of degree e >= 3.  sizes[k] lists the
    sizes multinomial(d, g) of a built table's rows, which the node test
    (_loses) reads; sizes[n - 1] = (1,) is the one vertex row of a one-point
    node.  tails[k] lists the (entry, degree) pairs of the suffixes at depth k
    that are 0 but on the last coordinate.
    """

    def __init__(self, support: "tuple[tuple[int, ...], ...]", n: int, d: int) -> None:
        self.n, self.d = n, d
        self.row_suffixes = row_suffixes = sorted({alpha[-2:] for alpha in support})
        self.e = max((b + c for b, c in row_suffixes), default=0)
        levels, links, entries, tails = [], [], [0] * (n - 1), [()] * (n - 1)
        order = row_suffixes  # n = 2: the row suffixes are the monomials
        tail = {j for j, (b, _) in enumerate(row_suffixes) if b == 0}
        for k, (lead, child, degrees, width, extras, slot) in zip(
            range(n - 3, -1, -1), _suffix_orders(support, row_suffixes, n)
        ):
            levels.append(((), width, extras, tuple(i for i, b in enumerate(lead) if b == degrees[i])))
            links.append((lead, child))
            tail = {i for i, (b, j) in enumerate(zip(lead, child)) if b == 0 and j in tail}
            if k:
                entries[k] = _table_entries(n - k, d, degrees)
                tails[k] = tuple((i, degrees[i]) for i in sorted(tail))
            else:
                order = [()] * len(support)
                for alpha, i in zip(support, slot):
                    order[i] = alpha
        self.levels = tuple(reversed(levels))
        self.links = tuple(reversed(links))
        self.order = tuple(order)
        self.entries = tuple(entries)
        self.tails = tuple(tails)
        self.tables: "list[tuple | None]" = [None] * (n - 1)
        self.sizes: "list[tuple[int, ...] | None]" = [None] * (n - 1) + [(1,)]
        self.power: "list[tuple[int, ...]]" = []  # power[v][b] = v^b, b = 0..d
        self.rows: "list[tuple[list[int], ...] | None]" = []
        self._lock = Lock()

    def grow(self, r: int) -> None:
        """Extend the power tables to the grid with denominator r, and rows to
        r + 1 slots, each None until read (_row_table).

        Only the powers of the a not covered yet are built, and those for
        smaller r stay as they are.  levels are only ever replaced by longer
        tuples with the same entries in front, and rows only ever lengthened,
        so a sweep that read them after growing to its r may go on reading
        them while another thread grows them further.
        """
        with self._lock:
            if len(self.rows) > r:
                return
            power, d, have = self.power, self.d, len(self.power)
            power += [tuple(accumulate(repeat(v, d), mul, initial=1)) for v in range(have, r + 1)]
            self.levels = tuple(
                (powers + tuple(tuple(map(power[a].__getitem__, lead)) for a in range(have, r + 1)),
                 width, extras, zero)
                for (powers, width, extras, zero), (lead, _) in zip(self.levels, self.links)
            )
            self.rows += [None] * (r + 1 - len(self.rows))

    def _row_table(self, s: int) -> "tuple[list[int], ...]":
        """rows[s], from the powers of v = 0..s, built on its first read and
        kept.  The build is idempotent, so threads may race on it."""
        power, e = self.power, self.e
        values = [[power[v][b] * power[s - v][c] for b, c in self.row_suffixes]
                  for v in range(min(s, e) + 1)]
        table = self.rows[s] = tuple(values if s <= e else _forward_differences(values))
        return table

    def feed_row(self, tracked: "list[_Extreme]", coeffs: "list[int]", prefix: "tuple[int, ...]",
                s: int) -> None:
        """Give each tracked extreme the row of points prefix + (v, s - v), v =
        0..s, on which L*f has the given row-suffix coefficients.

        A row longer than e + 1 has its forward differences at 0 in rows[s]
        (feed_differences); a shorter one has its values there.
        """
        table = [sum(map(mul, coeffs, w)) for w in self.rows[s] or self._row_table(s)]
        if s > self.e:
            self.feed_differences(tracked, table, prefix, s)
            return
        # a row no longer than e + 1 is read directly: differences of order
        # 0..min(s, e) for every s timed 1.14-1.50x slower over converge runs
        for ext in tracked:
            ext.add_row(table, prefix, s)

    def feed_differences(self, tracked: "list[_Extreme]", t: "list[int]", prefix: "tuple[int, ...]",
                         s: int) -> None:
        """feed_row for a row longer than e + 1, from its forward differences
        t_0..t_e at v = 0.  For e <= 2 they are read in closed form
        (_Extreme.add_quadratic); otherwise e prefix-sum passes rebuild the
        row's values."""
        e = self.e
        if e <= 2:
            t0, t1, t2 = t + [0] * (2 - e)
            for ext in tracked:
                ext.add_quadratic(t0, t1, t2, prefix, s)
            return
        values = repeat(t[e], s + 1 - e)
        for k in range(e - 1, -1, -1):
            values = accumulate(values, initial=t[k])
        table = list(values)
        for ext in tracked:
            ext.add_row(table, prefix, s)

    def beaten(self, k: int, coeffs: "list[int]", s: int, low: "_Extreme | None",
               high: "_Extreme | None") -> bool:
        """Whether the depth-k node with budget s and these coefficients loses
        (_loses), from its own Bernstein coefficients.  Its lex-first point,
        the value of its last vertex row, is read first from tails[k] and
        tested as the one-point node of depth n - 1, so a node that it keeps
        builds no table: a sweep of many variables that goes down one node per
        depth builds none."""
        power = self.power[s]
        tail = sum(coeffs[i] * power[e] for i, e in self.tails[k])
        return self._loses(self.n - 1, (tail,), low, high) and \
            self._loses(k, self._bernstein(k, coeffs, power), low, high)

    def skip(self, k: int, p: "list[int]", s: int, low: "_Extreme | None",
             high: "_Extreme | None") -> int:
        """The number of grid points under the depth-k node with budget s when
        it loses (_loses) from the Bernstein coefficients p that the walk
        stepped (differences), one per row of the depth-k table and perhaps
        other entries after them, and 0 otherwise.  A row (k = n - 2) is the
        node of m = 2 coordinates."""
        m = self.n - k
        return comb(s + m - 1, m - 1) if self._loses(k, p, low, high) else 0

    def _loses(self, k: int, ps, low: "_Extreme | None", high: "_Extreme | None") -> bool:
        """The node test (see Pruning): whether the Bernstein coefficients ps of
        a depth-k node, an iterable in the order of its table, are all strictly
        worse than the running extremes low and high (None when not tracked),
        whose values are attained.  It stops at the first that is not; a d = 2
        node runs _quadratic_beaten."""
        lo = None if low is None else low.value
        hi = None if high is None else high.value
        if self.d == 2:
            return _quadratic_beaten(self.n - k, ps, lo, hi)
        for p, size in zip(ps, self.sizes[k]):
            if lo is not None and p <= lo * size or hi is not None and p >= hi * size:
                return False
        return True

    def _bernstein(self, k: int, coeffs: "list[int]", power: "tuple[int, ...]"):
        """The Bernstein coefficients p_g (see Pruning) of the depth-k node with
        these coefficients, in the order of its table, one by one, from the
        powers s^0..s^d of its budget s."""
        degrees, rows = self.tables[k] or self._build_table(k)
        scaled = list(map(mul, coeffs, map(power.__getitem__, degrees)))
        return (sum(map(mul, map(scaled.__getitem__, index), weights)) for index, weights, _ in rows)

    def differences(self, k: int, coeffs: "list[int]", s: int, a: int) -> "tuple[bool, list]":
        """Whether the node test is run on the children that the depth-k node
        with these coefficients and budget s steps across, and the forward
        differences of order 0..d, at alpha_k = a, of what it steps: the
        child's Bernstein coefficients, one per row of the depth-(k + 1) table
        (none for a row of degree e <= 2, which is not tested: its closed form
        costs less), then for a row its forward differences t_0..t_e at v = 0.

        Each is a polynomial of degree <= d in a: a child coefficient of
        suffix sigma has degree <= d - |sigma| in a, and it is scaled by (s -
        a)^|sigma|, or by the differences in rows[s - a] of degree <= |sigma|
        in s - a.  So their values at a..a + d, differenced, tabulate them
        exactly: the child at a + 1 has the sum of orders j and j + 1 at a as
        its order j, d vector additions in all.  A row stepped over must be
        longer than e + 1, so that rows[s - a] holds its differences.
        """
        powers, width, extras, _ = self.levels[k]
        row = k == self.n - 3
        tested = not row or self.e > 2
        values = []
        for b in range(a, a + self.d + 1):
            child, rest = _child(coeffs, powers[b], width, extras), s - b
            value = list(self._bernstein(k + 1, child, self.power[rest])) if tested else []
            if row:
                value += [sum(map(mul, child, w)) for w in self.rows[rest] or self._row_table(rest)]
            values.append(value)
        return tested, _forward_differences(values)

    def _build_table(self, k: int) -> "tuple[tuple[int, ...], tuple[tuple, ...]]":
        """The suffix degrees and Bernstein rows of depth k, kept in self.tables,
        and the rows' sizes multinomial(d, g), kept in self.sizes."""
        suffixes = self.row_suffixes
        for lead, child in reversed(self.links[k:]):
            suffixes = [(b,) + suffixes[j] for b, j in zip(lead, child)]
        table = (tuple(map(sum, suffixes)), _bernstein_rows(suffixes, self.n - k, self.d))
        self.sizes[k] = tuple(size for _, _, size in table[1])
        self.tables[k] = table  # idempotent, so threads may race here; sizes first
        return table


def _child(coeffs: "list[int]", power: "tuple[int, ...]", width: int, extras: tuple) -> "list[int]":
    """The coefficients of the child alpha_k = a of a node with these
    coefficients, from the level's powers a^b (see _Shape)."""
    child = list(map(mul, coeffs, power))
    if extras:
        for j, i in extras:
            child[j] += child[i]
        del child[width:]
    return child


def _forward_differences(values: list) -> list:
    """The forward differences of order 0..len(values) - 1 at the first of
    these lists, the values of a polynomial at consecutive points (Knuth,
    TAOCP Vol. 2, 4.6.4).  They are lists: as tuples, the many that stepped
    runs drop stay in CPython's tuple free lists, which raised peak RSS on
    the benchmark's converge workload by about 0.4 MB (2-vCPU VM, Python
    3.11)."""
    deltas = []
    while values:
        deltas.append(values[0])
        values = [list(map(sub, y, x)) for x, y in zip(values, values[1:])]
    return deltas


def _quadratic_beaten(m: int, ps, lo: "int | None", hi: "int | None") -> bool:
    """_Shape._loses for d = 2, from the node's Bernstein coefficients ps in
    table order, an iterable with the m vertex rows first.

    With t = y/s, the node's form is sum_i V_i t_i^2 + sum_{i<j} p_ij t_i t_j
    over the vertex values V_i and edge p_ij (0 for an edge without a row).
    Since (sum t)^2 = 1, for h = min p_ij / 2 it equals h + sum_i (V_i - h)
    t_i^2 + sum_{i<j} (p_ij - 2h) t_i t_j, whose last sum is >= 0, and the
    least of sum D_i t_i^2 over the simplex is 1/sum_i 1/D_i.  So every value
    under the node is >= h + 1/sum_i 1/(V_i - h) once every V_i > h; the max
    side is the same bound for -f.  It is at least the least Bernstein
    coefficient, so it prunes every node the plain test prunes.
    """
    ps = iter(ps)
    vertices = []
    for v in islice(ps, m):
        if lo is not None and v <= lo or hi is not None and v >= hi:
            return False  # the value at a grid point of the subtree
        vertices.append(v)
    edges = list(ps)
    if not edges:  # m = 1: the vertex is the node's one point
        return True
    if lo is not None and not _diagonal_beats(lo, min(edges), vertices):
        return False
    return hi is None or _diagonal_beats(-hi, -max(edges), [-v for v in vertices])


def _diagonal_beats(lo: int, edge: int, vertices: "list[int]") -> bool:
    """Whether lo < h + 1/sum_i 1/(V_i - h), h = edge/2, for vertex values V_i > lo.

    That is N sum_i prod_{j != i} E_j < prod_i E_i, with N = 2 lo - edge and
    E_i = 2 V_i - edge, all integers; an edge > 2 lo beats lo outright.
    """
    gap = 2 * lo - edge
    if gap < 0:
        return True
    total, product = 0, 1
    for v in vertices:
        e = 2 * v - edge
        total = total * e + product
        product *= e
    return gap * total < product


@lru_cache(maxsize=8)
def _shape(support: "tuple[tuple[int, ...], ...]", n: int, d: int) -> _Shape:
    """The tables of a support, kept for the few most recent supports.

    Converge runs, enclosures and bound checks sweep the same support at many
    denominators; each sweep grows the shape to its r before it starts, and
    the Bernstein and row tables are filled in once, on first use, so reuse
    is safe across calls and threads.
    """
    return _Shape(support, n, d)


def _gates(shape: _Shape, n: int, r: int) -> "list[int]":
    """The smallest budget at which a node of each depth is bounded; r + 1 for never.

    A depth-k node (1 <= k <= n - 3) with budget s covers C(s + m - 1, m - 1)
    points, m = n - k; it is bounded only when its table has at most
    _BOUND_ENTRIES_PER_POINT entries per point.  The root has no incumbent to
    beat, and rows pass no gate: they are bounded only when stepped.
    """
    gates = [r + 1] * (n - 1)
    for k in range(1, n - 2):
        m = n - k
        target = -(-shape.entries[k] // _BOUND_ENTRIES_PER_POINT)  # points needed
        if comb(r + m - 1, m - 1) >= target:
            gates[k] = bisect_left(range(r + 1), target, key=lambda s: comb(s + m - 1, m - 1))
    return gates


def _scan(shape: "_Shape | None", root: "list[int]", n: int, r: int, first: int, stop: int,
          cap: int, picks: tuple, starts: "list[int]",
          gates: "list[int] | None") -> "tuple[list[_Extreme], int]":
    """Running extremes (one per pick, min and/or max, each from its attained
    start) of L*f over the grid points with first <= alpha_0 < stop, and the
    number of points pruned.

    root holds L*f's coefficients in shape.order; for n = 1 it holds the one
    coefficient of x^d times r^d, or nothing for the zero polynomial.  The
    prefix tree is walked depth-first with an explicit stack, so n is not
    limited by the recursion limit.  A node that passes gates is skipped when
    shape.beaten says no point below it can reach a tracked extreme, or
    shape.skip, from the stepped coefficients of a long run of siblings
    (shape.differences), which also skips rows.
    """
    tracked = [_Extreme(pick, cap, start) for pick, start in zip(picks, starts)]
    if n == 1:
        value = root[0] if root else 0
        for ext in tracked:
            ext.absorb(value, 1, [(r,)])
        return tracked, 0
    if n == 2:
        shape.feed_row(tracked, root, (), r)
        return tracked, 0

    low = tracked[0] if picks[0] is min else None
    high = tracked[-1] if picks[-1] is max else None
    frames = [level + (gates[k + 1],) for k, level in enumerate(shape.levels)]  # + children's gate
    row_parent, pruned, d, e = n - 3, 0, shape.d, shape.e
    stack = []

    def enter(k: int, coeffs: "list[int]", s: int, prefix: "tuple[int, ...]", start: int,
              stop: int) -> None:
        """Push the node's children alpha_k = start..stop - 1: on top, the run of
        them that is stepped, when it is long enough, and below, the rest."""
        if k == row_parent:  # rows longer than e + 1
            end, shortest = min(stop, s - e), _ROW_RUN * (d + 1)
        else:  # bounded children
            end, shortest = min(stop, s - max(frames[k][4], 1) + 1), d + 1
        if end - start > shortest:
            stack.append((k, coeffs, s, prefix, iter(range(end, stop)), None, False))
            tested, steps = shape.differences(k, coeffs, s, start)
            stack.append((k, coeffs, s, prefix, iter(range(start, end)), steps, tested))
        else:
            stack.append((k, coeffs, s, prefix, iter(range(start, stop)), None, False))

    enter(0, root, r, (), first, stop)
    while stack:  # a level resumes from `alphas` once the child it descended into is done
        k, coeffs, s, prefix, alphas, steps, tested = stack[-1]
        powers, width, extras, zero, gate = frames[k]
        if steps is not None:  # stepped children: each takes d vector additions
            for a in alphas:
                stepped = steps[0]
                for j in range(d):
                    steps[j] = list(map(add, steps[j], steps[j + 1]))
                rest = s - a
                skipped = tested and shape.skip(k + 1, stepped, rest, low, high)
                if skipped:
                    pruned += skipped
                elif k == row_parent:  # a row longer than e + 1
                    shape.feed_differences(tracked, stepped[-e - 1:], prefix + (a,), rest)
                else:
                    enter(k + 1, _child(coeffs, powers[a], width, extras), rest, prefix + (a,), 0, rest + 1)
                    break
            else:
                stack.pop()
            continue
        for a in alphas:
            rest = s - a
            here = prefix + (a,)
            power = powers[a]
            if rest == 0:
                value = sum(map(mul, map(coeffs.__getitem__, zero), map(power.__getitem__, zero)))
                point = here + (0,) * (n - k - 1)
                for ext in tracked:
                    ext.absorb(value, 1, [point])
                continue
            child = _child(coeffs, power, width, extras)
            if k == row_parent:
                shape.feed_row(tracked, child, here, rest)
            elif rest >= gate and shape.beaten(k + 1, child, rest, low, high):
                pruned += comb(rest + n - k - 2, n - k - 2)
            else:
                enter(k + 1, child, rest, here, 0, rest + 1)
                break
        else:
            stack.pop()
    return tracked, pruned


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


def _vertex_values(coeffs: "dict[tuple[int, ...], int]", n: int, d: int) -> "list[int]":
    """The values of L*f at the simplex vertices e_i, each once: the integer
    coefficient of every pure power x_i^d present, and 0 if one is absent.  One
    pass over the support; a monomial of degree d >= 1 with an exponent d is a
    pure power."""
    pure = [c for alpha, c in coeffs.items() if d in alpha]
    return pure if len(pure) == n else pure + [0]


def _sweep(
    f: HomogeneousPolynomial, r: int, threads: int, cap: int, picks: tuple = (min, max)
) -> "tuple[list[_Extreme], int, int]":
    """Extremes of L*f over the grid from one lex-order pass, one per pick (min
    and/or max, in that order); L*r^d; and the number of points pruned.

    Each side starts from its best vertex value, L*f(r e_i) = L*c_i*r^d, so
    nodes are pruned from the first one on; every chunk starts from it."""
    scale, coeffs = _integer_form(f)
    top = r**f.d
    vertices = _vertex_values(coeffs, f.n, f.d)
    starts = [pick(vertices) * top for pick in picks]
    if f.n == 1:
        shape, root, gates = None, [c * top for c in coeffs.values()], None
    else:
        shape = _shape(tuple(coeffs), f.n, f.d)
        shape.grow(r)  # before any worker starts
        root = [coeffs[alpha] for alpha in shape.order]
        gates = _gates(shape, f.n, r)
    chunks = _alpha0_chunks(f.n, r, threads)
    workers = min(len(chunks), os.cpu_count() or 1) if len(chunks) > 1 else 1

    def scan(chunk: "tuple[int, int]") -> "tuple[list[_Extreme], int]":
        return _scan(shape, root, f.n, r, *chunk, cap, picks, starts, gates)

    if workers == 1:
        partials = [scan(chunk) for chunk in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only here: it is slow to import

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(scan, chunks))
    extremes, pruned = partials[0]
    for later, later_pruned in partials[1:]:  # chunks arrive in lex order
        for ext, part in zip(extremes, later):
            ext.absorb(part.value, part.ties, part.points)
        pruned += later_pruned
    return extremes, scale * top, pruned


def _grid_extremes(f: HomogeneousPolynomial, r: int, picks: tuple, threads: int, cap: int,
                   max_points: "int | None") -> "list[GridMinResult]":
    """One result per pick; only the picked sides are tracked and bound.  A
    negative cap is refused (ValueError) before any work."""
    if cap < 0:
        raise ValueError(f"minimizer_cap must be at least 0, got {decimal_str(cap)}")
    cap = min(cap, sys.maxsize)  # no list holds more points, and islice takes no more
    total = _grid_size(f.n, r, max_points)
    _check_degree(f.d, r)
    extremes, denominator, _ = _sweep(f, r, threads, cap, picks)
    return [
        GridMinResult(
            value=Fraction(ext.value, denominator),
            r=r,
            minimizers=tuple(ext.points),
            tie_count=ext.ties,
            evaluations=total,
        )
        for ext in extremes
    ]


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
    maximum's minimizers field holds the lex-first maximizers.  evaluations
    counts the grid points covered, whether evaluated or certified by the
    pruning bound.
    """
    low, high = _grid_extremes(f, r, (min, max), threads, minimizer_cap, max_points)
    return low, high


def grid_minimize(
    f: HomogeneousPolynomial,
    r: int,
    *,
    threads: int = 1,
    minimizer_cap: int = MINIMIZER_CAP,
    max_points: "int | None" = DEFAULT_GRID_GUARD,
) -> GridMinResult:
    """Exact minimum of f over the grid with denominator r; see grid_extrema.

    Only the minimum is tracked, so the pruning bound serves that side alone.
    """
    return _grid_extremes(f, r, (min,), threads, minimizer_cap, max_points)[0]


def grid_maximize(
    f: HomogeneousPolynomial,
    r: int,
    *,
    threads: int = 1,
    minimizer_cap: int = MINIMIZER_CAP,
    max_points: "int | None" = DEFAULT_GRID_GUARD,
) -> GridMinResult:
    """Exact maximum of f over the grid with denominator r; see grid_extrema.

    Only the maximum is tracked, so the pruning bound serves that side alone.
    """
    return _grid_extremes(f, r, (max,), threads, minimizer_cap, max_points)[0]
