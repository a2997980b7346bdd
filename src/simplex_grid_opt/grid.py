"""Exact optimization over the rational simplex grid.

The grid with denominator r is the set of simplex points x with r*x integral;
it is in bijection with I(n, r) via alpha <-> alpha/r, so a full sweep covers
C(n + r - 1, r) points.  Homogeneity gives f(alpha/r) = f(alpha)/r^d, so the
sweep compares the integers L*f(alpha), where L clears the denominators of the
coefficients once; the reported value is the pair (L*f(alpha), L*r^d), made a
Fraction at the end by grid_extrema and its kin and rendered as it is by
converge (_grid_pairs).  Every step below is integer arithmetic, so the engine
is exact.

What a sweep of f needs that no denominator changes, L, the integer
coefficients of L*f, its vertex values, its shape and the root's coefficient
order, is built once as one _Plan: grid_extrema and its kin build one per
call, and converge one per run, which every r and its enclosures sweep.  Per r
only r^d, the starts, the gates, the field width and the chunks are made
before the walk (_sweep).

One engine serves every sweep: a single lex-order pass that tracks the sides
its caller needs, the minimum (grid_minimize), the maximum (grid_maximize) or
both (grid_extrema, from which bounds.range_enclosures takes its grid values).
Its one Bernstein kernel (_bernstein_columns, see Pruning) also gives
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
- Stepped siblings.  The children alpha_k = a of a node are integer polynomials
  of degree <= d in a: a child's Bernstein coefficients p_g (see Pruning) and,
  for a row, its differences t_k.  So a node with more than d + 1 children that
  the gate bounds, or a row parent with more than 3 (d + 1) rows longer than
  e + 1 (_ROW_RUN), evaluates the first d + 1 and steps the rest with d
  additions each, the same tabulation as in a row.  Each difference order of
  the stepped vector is one Python int with a signed field of w bits per entry
  (broadword arithmetic, Knuth, TAOCP Vol. 4A, 7.1.3; Kronecker packing,
  Harvey, J. Symbolic Comput. 44, 2009): a row's t_0..t_e in the low fields
  and the child's p_g above them (_Packing), so a step is d integer additions.
  A node tested from its own coefficients packs its p_g in the same fields (see
  Pruning).  The sweep derives w from a bound on every field it decodes or
  tests (_field_width); Python ints are unbounded, so w has no cap and no other
  form is kept.  A stepped node builds its coefficient list only when the walk
  descends into it.  A stepped row of degree e >= 3 also steps its d + 1
  Bernstein coefficients on the segment, as the node of m = 2 coordinates (see
  Pruning), and goes through the node test; a quadratic row is never tested,
  its closed form costs less.  A row that is not skipped decodes only its e + 1
  low fields.  A run stops at the end of a chunk, and at the first child below
  the gate or row no longer than e + 1.
- A node whose budget reaches 0 is a single point: the coefficient of the
  all-zero suffix.
- Pruning.  A node at depth k >= 1 holds L*f on the face of the m = n - k
  coordinates y left, with budget s = sum y, as one integer c_i per suffix
  sigma_i.  Homogenized by (sum y)^(d - |sigma_i|) and scaled by s^|sigma_i|,
  it has the simplicial Bernstein coefficients p_g / multinomial(d, g), g in
  I(m, d), with p_g = sum over sigma_i <= g of c_i s^|sigma_i|
  multinomial(d - |sigma_i|, g - sigma_i); every value under the node lies
  between their min and max (Leroy, Reliable Computing 17, 2012).  The node
  test (_Shape._loses) skips the node when, on every tracked side, p_g is
  strictly worse than the running extreme times multinomial(d, g) for every g:
  the running extreme is attained, so minimizers and tie counts stay exact.
  The p_g come from the node's own coefficients (_Shape.beaten,
  _Packing.bernstein) or are stepped with its siblings (_Shape.skip), packed
  either way in the fields of the depth's _Packing, and are tested packed: on
  each side one multiplication of the packed sizes by the running extreme, one
  subtraction and one mask comparison test every g at once (_Packing.beats), as
  p_g - lo*size - 1 >= 0 exactly when its field, offset by 2^(w - 1), has its
  top bit set.  Each side's running extreme starts from its best vertex value,
  L*c_i*r^d with c_i the coefficient of x_i^d (0 if absent), which the grid
  point r e_i attains; the lex walk reaches r e_0 only at its last point, so
  without that start nothing could be skipped before the first row.  The node
  holding r e_i has a vertex field equal to the start, so it is never skipped,
  and the vertex is counted when the walk gets there.  The table
  (_bernstein_columns) is one column per sigma_i, its (field, weight) entries,
  and one size per field: the m vertex fields g = d e_i first, then a field per
  other g that some sigma_i lies under, then one empty field standing for every
  g that none lies under (p_g = 0); its size is its entry count, however large
  I(m, d) is.  The last vertex field, the node's lex-first point, is also kept
  apart (tails) and tested first, alone, so a node that it keeps builds no
  table.  At d = 2 the test is sharper (_quadratic_beaten): with V_i the vertex
  coefficients, none of them reaching the running extreme, h the least edge
  coefficient (g = e_i + e_j) and D_i = V_i - h > 0, the form in t = y/s is h +
  sum D_i t_i^2 plus edge terms that are >= 0 on the face, so every value under
  the node is >= h + 1/sum_i 1/D_i, the least of sum D_i t_i^2 on the simplex
  (Cauchy-Schwarz); the max side is the same bound for -f.  It is never below
  the least Bernstein coefficient, it is exact on the face for sum x_i^2, where
  that coefficient is h alone, and it prunes the stable-set forms x^T(I + A)x,
  whose minimizers are interior; it decodes the packed fields.  Only nodes of
  depth 1..n-3 whose subtree has at least one point per
  _BOUND_ENTRIES_PER_POINT entries are bounded, from their own coefficients or
  stepped ones; rows are bounded only when stepped, as the nodes of depth
  n - 2.  evaluations still counts every grid point, evaluated or certified.
- The tables depend only on f's support, not on its coefficients, and are kept
  in one cache for the few most recently used supports (_shape): converge,
  enclosures and bound checks sweep the same support at many denominators.  The
  suffix orders, gate sizes and Bernstein tables do not depend on r at all.
  The powers v^b, a depth's powers a^b of its suffixes, the row tables, the
  Bernstein tables and their packings each fill an entry on its first read and
  keep it (_Lazy), so a run over r = 2..R builds each entry once, and a walk
  that prunes most of its grid builds few.  A sweep whose row tables could pass
  a fixed bound is refused before any table (_check_rows).

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
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, compress, count, filterfalse, islice, repeat
from math import comb, lcm
from operator import add, eq, floordiv, gt, itemgetter, lshift, lt, mod, mul, sub

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
# integers a^b (a <= r, b <= d) of d * bit_length(r) bits each; the level
# powers, built on first read, pick their entries from it, and the row
# tables have their own bound below.  The largest sweep of the test suite
# (n = 4, d = 4, r = 80) measures 1.1e4.  At the bound, on a 2-vCPU Xeon VM,
# d = 2000 at r = 40 peaks at 60 MB RSS and d = 300 at r = 1000 at 79 MB (n = 2) or
# 258 MB (n = 3, 47 s); d = 10^4 at r = 40 measures 2.5e10 and peaks at 1 GB.
# A sweep above it is refused before any table is built, whatever the grid
# size guard allows.
_MAX_POWER_TABLE_BITS = 10**9

# The most bits a sweep's row tables may hold, counted as R (min(s, e) + 1)
# entries of d * bit_length(r) bits for each table rows[s] the sweep may
# build (_check_rows), R the number of row suffixes and e their
# largest degree: every s <= r for n >= 3, and s = r alone for n = 2.  The
# largest sweep of the test suite, the scripts and the benchmark's seed-0 ops
# (n = 3, d = 6, R = 28, r = 80) measures 6.4e5.  On a 2-vCPU Xeon VM, the
# power-table bound's cases pass: x^300 + y^300 + z^300 at r = 1000 (R = 3,
# 2.3e9) builds 1.1e9 bits of row tables in 50 s at 266 MB peak RSS, and
# n = 2, d = 2000 at r = 40 measures 9.8e5, or 9.8e8 on the dense binary
# form.  Near the bound, a 480-term n = 3, d = 100 form at r = 150 (3.9e9)
# peaks at 361 MB in 15 s.  The dense random_polynomial(Random(0), 3, 100)
# (R = 4887) at r = 150 measures 4.0e10 and ran to 3.49 GB RSS in 134 s
# before this bound refused it.  A sweep above it is refused before any
# table is built, whatever the grid size guard allows.
_MAX_ROW_TABLE_BITS = 4 * 10**9

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
        self._set(value, r, minimizers, tie_count, evaluations)


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


def _check_rows(shape: "_Shape", r: int) -> None:
    """Refuse (ValueError) a sweep of the shape at denominator r whose row
    tables could exceed _MAX_ROW_TABLE_BITS: rows[s] holds min(s, e) + 1
    lists of R entries, counted at d * bit_length(r) bits each, and a sweep of
    n >= 3 may build it for every s <= r, one of n = 2 only for s = r, its one
    row.  The message gives the row suffix count and r to 20 significant
    digits, as _check_degree does."""
    count, e = len(shape.row_suffixes), shape.e
    if shape.n == 2:
        lists = min(r, e) + 1
    else:
        m = min(r, e)
        lists = (m + 1) * (m + 2) // 2 + (r - m) * (e + 1)  # sum over s <= r of min(s, e) + 1
    if count * lists * shape.d * r.bit_length() > _MAX_ROW_TABLE_BITS:
        raise ValueError(
            f"{decimal_str(count)} row suffixes of degree up to {decimal_str(e)} are too many "
            f"for a sweep at r = {decimal_str(r)}: its row tables would exceed "
            f"{_MAX_ROW_TABLE_BITS} bits"
        )


def _check_sweep(f: HomogeneousPolynomial, r: int) -> None:
    """Refuse (ValueError) a sweep of f at denominator r past the degree bound
    (_check_degree) or the row-table bound (_check_rows), before any table is
    built; the shape it reads is the one the sweep will use (_shape).  Every
    sweep checks both here: grid_extrema, its kin and the enclosures at their
    r (_checked_grid), converge at its largest."""
    _check_degree(f.d, r)
    if f.n > 1:
        _check_rows(_shape(tuple(f.coeffs), f.n, f.d), r)


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


def _suffix_orders(support: "tuple[tuple[int, ...], ...]", rows: "list[tuple[int, int]]", n: int,
                   d: int):
    """The coefficient lists of the prefix tree, from depth n - 3 up to the root.

    At depth n - 2 the list holds one entry per row suffix (b, c) in `rows`.
    Each depth k <= n - 3 yields (lead, child, degrees, width, extras, slot): entry i
    stands for the suffix (lead[i],) + (suffix child[i] of depth k + 1), of
    degree degrees[i]; the first `width` entries have child[i] = i and its
    least exponent, and extras lists the (child, entry) pairs of the rest, in
    the order of (child, exponent).  slot[t] is the entry of support[t].
    Suffixes are tracked by index, and a (child, exponent) pair as the one
    integer child (d + 1) + exponent, as no exponent passes d; so a depth
    costs one sort of the support's distinct pairs, whatever n is.
    """
    base = d + 1
    index = {b * base + c: j for j, (b, c) in enumerate(rows)}
    slot = [index[alpha[-2] * base + alpha[-1]] for alpha in support]
    degrees = [b + c for b, c in rows]
    for k in range(n - 3, -1, -1):
        keys = list(map(add, map(mul, slot, repeat(base)), map(itemgetter(k), support)))
        width = len(degrees)
        pairs = sorted(set(keys))  # by child, then exponent
        least = dict(zip(map(floordiv, reversed(pairs), repeat(base)), reversed(pairs)))
        firsts = list(map(least.__getitem__, range(width)))  # each child's pair of least exponent
        rest = list(filterfalse(set(firsts).__contains__, pairs))
        child = [*range(width), *map(floordiv, rest, repeat(base))]
        lead = list(map(mod, firsts + rest, repeat(base)))
        index = dict(zip(firsts + rest, count()))
        slot = list(map(index.__getitem__, keys))
        degrees = list(map(add, lead, map(degrees.__getitem__, child)))
        yield lead, child, degrees, width, tuple(zip(child[width:], count(width))), slot


def _table_entries(m: int, d: int, degrees: "list[int]") -> int:
    """Size of the Bernstein table of a node with m coordinates left: a suffix
    of degree e takes part in C(m - 1 + d - e, m - 1) of its fields."""
    return sum(count * comb(m - 1 + d - e, m - 1) for e, count in Counter(degrees).items())


def _bernstein_columns(suffixes: "list[tuple[int, ...]]", m: int,
                       d: int) -> "tuple[list[tuple[list[int], list[int]]], list[int]]":
    """The Bernstein table of a node with m coordinates left whose coefficients
    are indexed by `suffixes`, one column per suffix, and the sizes of its
    fields.

    Each g in I(m, d) that some suffix lies under has a field, and column i
    lists the fields of the g with suffixes[i] <= g and their weights
    multinomial(d - |suffixes[i]|, g - suffixes[i]), as two flat lists; the
    weights depend only on |suffixes[i]|, so the columns of one degree share
    one list.  sizes holds multinomial(d, g) in field order.  The m vertices
    g = d*e_i take fields 0..m-1, in coordinate order, with size 1: each is the
    value at a grid point of the subtree, so the tests read them first, and a
    vertex no suffix lies under has an empty field (p_g = 0).  Every other g
    takes the next field when it is first reached: suffix by suffix, and for
    each, g = sigma + kappa over kappa in I(m, d - |sigma|) in lex order.
    Every g that no suffix lies under also has p_g = 0, and one empty field
    stands for them all, last (p_g = 0 fails against the incumbent times any
    positive size alike, so it takes size 2).  The table costs its entry count
    (_table_entries) and at most m + 1 fields more, not |I(m, d)|.  It depends
    only on the suffixes and d, not on the coefficients, the budget or r.  Each
    g is keyed by its base-(d + 1) code, the sum of g_j (d + 1)^j, so sigma +
    kappa costs one integer addition; its size comes, when its field is made,
    from kappa's (coordinate, exponent) pairs and sigma's, built once per
    suffix.  So an entry costs O(d) and not O(m): many-variable tables stay
    linear in their size.  With the full exponents of f as suffixes, m = n and
    degree d + k, it is the table of f elevated by k (_bernstein_extrema).
    """
    unit = list(accumulate(repeat(d + 1, m - 1), mul, initial=1))  # (d + 1)^j
    offsets = _Lazy(lambda e: _compositions(m, e, unit))  # I(m, e), built once per e
    shared = _Lazy(lambda e: [weight for _, weight, _ in offsets[e]])  # one list per e, not per column
    fields = {d * u: j for j, u in enumerate(unit)}  # the code of g: its field
    sizes, columns = [1] * m, []
    for sigma in suffixes:
        e = d - sum(sigma)
        base = sum(map(mul, sigma, unit))
        sparse = [(j, b) for j, b in enumerate(sigma) if b]
        index = []
        for code, _, kappa in offsets[e]:
            field = fields.get(base + code)
            if field is None:
                field = fields[base + code] = len(sizes)
                g = dict(kappa)
                for j, b in sparse:
                    g[j] = g.get(j, 0) + b
                size, left = 1, d
                for b in g.values():
                    size *= comb(left, b)
                    left -= b
                sizes.append(size)
            index.append(field)
        columns.append((index, shared[e]))
    if len(sizes) < composition_count(m, d):
        sizes.append(2)
    return columns, sizes


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


def _bernstein_extrema(plan: _Plan, k: int) -> "tuple[Fraction, Fraction]":
    """The least and greatest simplicial Bernstein coefficients of f (the
    plan's polynomial) times (x_1 + ... + x_n)^k, which enclose f on the
    simplex.

    They are the extremes of p_g / multinomial(d + k, g) over g in I(n, d + k),
    p_g = sum over alpha <= g of L*f_alpha * multinomial(k, g - alpha): the
    table of the root node at degree d + k (_bernstein_columns), in integers,
    divided by L at the end.
    """
    f, scale, coeffs = plan.f, plan.scale, plan.coeffs
    columns, sizes = _bernstein_columns(list(coeffs), f.n, f.d + k)
    ps = [0] * len(sizes)
    for c, (index, weights) in zip(coeffs.values(), columns):
        for field, weight in zip(index, weights):
            ps[field] += c * weight
    low = high = (ps[0], sizes[0])
    for p, size in zip(ps, sizes):
        if p * low[1] < low[0] * size:
            low = (p, size)
        elif p * high[1] > high[0] * size:
            high = (p, size)
    return Fraction(low[0], low[1] * scale), Fraction(high[0], high[1] * scale)


class _Lazy(dict):
    """A table whose entry for a key is built as build(key) on its first read
    and kept.  A build is idempotent and a dict store is atomic under the GIL,
    so threads may race on an entry: each reads one built the same way."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Shape:
    """Integer tables for sweeping any polynomial with a given support.  They
    do not depend on the coefficients, and only the power and row tables
    depend on r.  Each table is a _Lazy one: an entry is built where the walk
    first reads it and kept, so a new support pays for what its sweeps read
    and no more, and a run over r = 2..R builds each entry once.

    At depth k of the prefix tree (alpha_0..alpha_{k-1} fixed), L*f is held
    as one coefficient per distinct exponent suffix beta[k:], listed as in
    _suffix_orders; fixing alpha_k = a then scales every coefficient by a^b,
    adds each later entry into its child's slot, and cuts the list to `width`.
    levels[k] = (powers, width, extras, zero) holds the powers a^b keyed by
    a, the child count, the (child, entry) pairs to add, and the entries
    whose child suffix is all zero (the point reached when the budget runs
    out).  A stepped child builds its coefficients only when the walk
    descends into it, so a sweep reads about a third of the level powers.
    power[v] holds v^b, b = 0..d.  `order` lists the monomials in root order.

    rows[s] holds, for each row suffix (b, c), the values of v^b (s - v)^c at
    v = 0..s when s <= e, and otherwise its forward differences of order
    0..e at v = 0, where e is the largest b + c: a stepped row parent reads
    only its first d + 1 rows, and a pruned node none.  For n = 2 the only
    row is the whole grid, so a sweep builds its table by rows.build and does
    not keep it.

    entries[k] is the size of the Bernstein table of depth k = 1..n-3, and
    tables[k] = (degrees, columns, sizes) its suffix degrees, its columns of
    (field, weight) entries, one per suffix, and its field sizes
    (_bernstein_columns), first read when the gate admits a node of that
    depth whose last vertex does not keep it (beaten), or when a run of
    stepped children of that depth starts (differences).  The table of depth
    n - 2, of the rows, is read only for stepped rows of degree e >= 3.
    tails[k] lists the (entry, degree) pairs of the suffixes at depth k that
    are 0 but on the last coordinate, those in the last vertex field.
    packs[k, w] is the _Packing of depth k at field width w, through which
    every node test reads its Bernstein coefficients (_loses).  No builder
    holds the shape, so a shape that leaves the cache is freed at once.
    """

    def __init__(self, support: "tuple[tuple[int, ...], ...]", n: int, d: int) -> None:
        self.n, self.d = n, d
        self.row_suffixes = row_suffixes = sorted({alpha[-2:] for alpha in support})
        self.e = e = max((b + c for b, c in row_suffixes), default=0)
        self.power = power = _Lazy(lambda v: tuple(accumulate(repeat(v, d), mul, initial=1)))
        levels, links, entries, tails = [], [], [0] * (n - 1), [()] * (n - 1)
        order = row_suffixes  # n = 2: the row suffixes are the monomials
        tail = {j for j, (b, _) in enumerate(row_suffixes) if b == 0}
        for k, (lead, child, degrees, width, extras, slot) in zip(
            range(n - 3, -1, -1), _suffix_orders(support, row_suffixes, n, d)
        ):
            powers = _Lazy(lambda a, lead=lead: tuple(map(power[a].__getitem__, lead)))
            levels.append((powers, width, extras, tuple(compress(count(), map(eq, lead, degrees)))))
            links.append((lead, child))
            if k:
                tail = {i for i, (b, j) in enumerate(zip(lead, child)) if b == 0 and j in tail}
                entries[k] = _table_entries(n - k, d, degrees)
                tails[k] = tuple((i, degrees[i]) for i in sorted(tail))
            else:
                order = [()] * len(support)
                for alpha, i in zip(support, slot):
                    order[i] = alpha
        self.levels = tuple(reversed(levels))
        self.links = links = tuple(reversed(links))
        self.order = tuple(order)
        self.entries = tuple(entries)
        self.tails = tuple(tails)
        self.rows = _Lazy(partial(_row_table, power, row_suffixes, e))
        self.tables = tables = _Lazy(partial(_depth_table, row_suffixes, links, n, d))
        self.packs = _Lazy(partial(_depth_packing, tables, n - 2, e))

    def feed_row(self, tracked: "list[_Extreme]", coeffs: "list[int]", prefix: "tuple[int, ...]",
                 s: int, rows: "tuple[list[int], ...]") -> None:
        """Give each tracked extreme the row of points prefix + (v, s - v), v =
        0..s, on which L*f has the given row-suffix coefficients, from rows, the
        row table of s (rows[s]).

        A row longer than e + 1 has its forward differences at 0 there
        (feed_differences); a shorter one has its values.
        """
        table = [sum(map(mul, coeffs, w)) for w in rows]
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
               high: "_Extreme | None", w: int) -> bool:
        """Whether the depth-k node with budget s and these coefficients loses
        (_loses), from its own Bernstein coefficients, packed at field width w
        (_Packing.bernstein).  Its lex-first point, the value of its last
        vertex field, is read first from tails[k] and tested alone, so a node
        that it keeps builds no table: a sweep of many variables that goes
        down one node per depth builds none."""
        power = self.power[s]
        tail = sum(coeffs[i] * power[e] for i, e in self.tails[k])
        if low is not None and tail <= low.value or high is not None and tail >= high.value:
            return False
        pack = self.packs[k, w]
        return self._loses(k, pack.bernstein(coeffs, power), low, high, pack)

    def skip(self, k: int, p: int, s: int, low: "_Extreme | None", high: "_Extreme | None",
             pack: "_Packing") -> int:
        """The number of grid points under the depth-k node with budget s when
        it loses (_loses) from the Bernstein coefficients that the walk stepped
        (differences), packed in p by `pack`, the depth's packing, and 0
        otherwise.  A row (k = n - 2) is the node of m = 2 coordinates."""
        m = self.n - k
        return comb(s + m - 1, m - 1) if self._loses(k, p, low, high, pack) else 0

    def _loses(self, k: int, p: int, low: "_Extreme | None", high: "_Extreme | None",
               pack: "_Packing") -> bool:
        """The node test (see Pruning): whether the Bernstein coefficients of a
        depth-k node, packed in p by `pack`, are all strictly worse than the
        running extremes low and high (None when not tracked), whose values are
        attained.  On each tracked side it is one multiplication, one
        subtraction and one mask comparison (_Packing.beats); at d = 2 the
        table fields are decoded for _quadratic_beaten instead."""
        if self.d == 2:
            return _quadratic_beaten(self.n - k, pack.table(p), None if low is None else low.value,
                                     None if high is None else high.value)
        return pack.beats(p, low, high)

    def differences(self, k: int, coeffs: "list[int]", s: int, a: int,
                    w: int) -> "tuple[_Packing, list[int]]":
        """The packing of depth k + 1 at field width w (packs), and the
        forward differences of order 0..d, at alpha_k = a, of what the depth-k
        node with these coefficients and budget s steps across, each packed
        into one integer: the child's Bernstein coefficients, one per field of
        the depth-(k + 1) table (none for a row of degree e <= 2, which is not
        tested: its closed form costs less), and for a row also its forward
        differences t_0..t_e at v = 0, in the low fields.

        Each field is a polynomial of degree <= d in a: a child coefficient of
        suffix sigma has degree <= d - |sigma| in a, and it is scaled by (s -
        a)^|sigma|, or by the differences in rows[s - a] of degree <= |sigma|
        in s - a.  So their values at a..a + d, differenced, tabulate them
        exactly: the child at a + 1 has the sum of orders j and j + 1 at a as
        its order j, d integer additions in all.  A row stepped over must be
        longer than e + 1, so that rows[s - a] holds its differences.
        """
        powers, width, extras, _ = self.levels[k]
        pack = self.packs[k + 1, w]
        row = k == self.n - 3
        values = []
        for b in range(a, a + self.d + 1):
            child, rest = _child(coeffs, powers[b], width, extras), s - b
            value = pack.bernstein(child, self.power[rest])
            if row:
                t = [sum(map(mul, child, weights)) for weights in self.rows[rest]]
                value += sum(map(lshift, t, pack.row_shifts))
            values.append(value)
        return pack, _forward_differences(values, sub)


def _row_table(power: _Lazy, suffixes: "list[tuple[int, int]]", e: int,
               s: int) -> "tuple[list[int], ...]":
    """rows[s] of a _Shape (see there) with these row suffixes of largest
    degree e, from the powers of v = 0..s."""
    values = []
    for v in range(min(s, e) + 1):
        left, right = power[v], power[s - v]
        values.append([left[b] * right[c] for b, c in suffixes])
    return tuple(values if s <= e else _forward_differences(values, lambda y, x: list(map(sub, y, x))))


def _depth_table(row_suffixes: "list[tuple[int, int]]", links: tuple, n: int, d: int,
                 k: int) -> "tuple[tuple[int, ...], list, list[int]]":
    """tables[k] of a _Shape: the suffix degrees, Bernstein columns and field
    sizes of depth k (_bernstein_columns), whose suffixes are rebuilt from the
    row suffixes and the links below it."""
    suffixes = row_suffixes
    for lead, child in reversed(links[k:]):
        suffixes = [(b,) + suffixes[j] for b, j in zip(lead, child)]
    return (tuple(map(sum, suffixes)), *_bernstein_columns(suffixes, n - k, d))


def _depth_packing(tables: _Lazy, row: int, e: int, key: "tuple[int, int]") -> "_Packing":
    """packs[k, w] of a _Shape, from its tables: at the row depth the fields
    t_0..t_e come first, and rows of degree e <= 2 are not tested, so their
    packing holds no table."""
    k, w = key
    if k != row:
        return _Packing(w, 0, *tables[k])
    return _Packing(w, e + 1, *tables[k] if e > 2 else ((), (), ()))


def _child(coeffs: "list[int]", power: "tuple[int, ...]", width: int, extras: tuple) -> "list[int]":
    """The coefficients of the child alpha_k = a of a node with these
    coefficients, from the level's powers a^b (see _Shape)."""
    child = list(map(mul, coeffs, power))
    if extras:
        for j, i in extras:
            child[j] += child[i]
        del child[width:]
    return child


def _forward_differences(values: list, minus) -> list:
    """The forward differences of order 0..len(values) - 1 at the first of
    these values, those of a polynomial at consecutive points (Knuth, TAOCP
    Vol. 2, 4.6.4), where minus(y, x) is y - x: integers, or lists of them.
    Lists stay lists: as tuples, the many that stepped runs dropped stayed in
    CPython's tuple free lists, which raised peak RSS on the benchmark's
    converge workload by about 0.4 MB (2-vCPU VM, Python 3.11)."""
    deltas = []
    while values:
        deltas.append(values[0])
        values = list(map(minus, values[1:], values))
    return deltas


class _Packing:
    """The fields of the stepped vectors of one depth at field width w (see
    Stepped siblings): a vector v_0..v_{F-1} is the one integer sum_j v_j
    2^(w j).  At the row depth, fields 0..e hold a row's forward differences
    t_0..t_e and, when the row is tested (e >= 3), the fields above them its
    Bernstein coefficients p_g in the field order of the depth's table
    (_bernstein_columns); at a node depth the p_g start at field 0.

    columns[i] packs suffix i's column, its weight in each of its fields, as
    the table lists it, with no transpose; so a node's packed p_g are sum_i c_i
    s^|sigma_i| columns[i] (degrees holds the |sigma_i|), and sizes packs the
    sizes multinomial(d, g).  half = 2^(w - 1) and bias holds half in every
    field.  Every field that is decoded or tested lies strictly between -half
    and half (_field_width), so it plus half is a w-bit field of its own, and
    no carry or borrow crosses into the next one.  Fields of difference orders
    >= 1 may be wider: their sums are exact integers all the same, and they are
    never decoded.
    """

    __slots__ = ("half", "mask", "bias", "low", "row_shifts", "shifts", "degrees", "columns", "sizes",
                 "ones", "top")

    def __init__(self, w: int, offset: int, degrees: "tuple[int, ...]", columns: list,
                 sizes: "list[int]") -> None:
        fields = offset + len(sizes)
        self.half, self.mask = half, mask = 1 << (w - 1), (1 << w) - 1
        self.low = low = (1 << w * offset) - 1
        self.row_shifts = range(0, w * offset, w)
        self.shifts = shifts = list(range(w * offset, w * fields, w))  # a list: the columns index it
        every = ((1 << w * fields) - 1) // mask  # 1 in every field: (2^(wF) - 1)/(2^w - 1)
        ones = every - low // mask  # 1 in every table field
        self.bias = every * half
        self.ones = ones - self.bias  # 1 in every table field, less half in every field
        self.top = ones * half  # the top bit of every table field
        self.degrees = degrees
        self.columns = [sum(map(lshift, weights, map(shifts.__getitem__, index)))
                        for index, weights in columns]
        self.sizes = sum(map(lshift, sizes, shifts))

    def bernstein(self, coeffs: "list[int]", power: "tuple[int, ...]") -> int:
        """The packed Bernstein coefficients of the node of this depth with these
        coefficients and the powers s^0..s^d of its budget s: sum_i c_i
        s^|sigma_i| columns[i], one sum of products."""
        return sum(map(mul, map(mul, coeffs, map(power.__getitem__, self.degrees)), self.columns))

    def beats(self, p: int, low: "_Extreme | None", high: "_Extreme | None") -> bool:
        """Whether every Bernstein coefficient packed in p is strictly worse
        than the running extremes low and high (None when not tracked): p_g >
        lo*size and p_g < hi*size for every g.  p_g - lo*size - 1 >= 0 exactly
        when that field plus half has its top bit set, so on each side one
        multiplication, one subtraction of ones and one mask comparison test
        every g at once."""
        sizes, ones, top = self.sizes, self.ones, self.top
        return (low is None or (p - low.value * sizes - ones) & top == top) and \
            (high is None or (high.value * sizes - p - ones) & top == top)

    def table(self, p: int) -> "list[int]":
        """The Bernstein coefficients packed in p, in field order."""
        x, mask, half = p + self.bias, self.mask, self.half
        return [(x >> shift & mask) - half for shift in self.shifts]

    def row(self, p: int) -> "list[int]":
        """The forward differences t_0..t_e of a row, the low fields of p."""
        x, mask, half = (p + self.bias) & self.low, self.mask, self.half
        return [(x >> shift & mask) - half for shift in self.row_shifts]


def _field_width(values, n: int, d: int, r: int) -> int:
    """A field width w that holds every field _Packing decodes or tests, in a
    sweep at denominator r of the n-variable form of degree d whose integer
    coefficients L*f_alpha are `values` (n >= 3).

    With A = sum |L*f_alpha| and m <= n - 1 coordinates left below a node of
    depth >= 1: each term of a p_g is L*f_alpha times a product of d of the
    coordinates fixed so far and the budget, each at most r, times a weight
    multinomial(d - |sigma|, g - sigma) <= m^d, and each alpha enters p_g at
    most once, so |p_g| <= A (r m)^d.  A row difference t_k = sum c_bc
    Delta^k[v^b (s - v)^c](0) of a stepped row (k <= e < s) is a signed sum of
    2^k values at most s^(b + c), so |t_k| <= 2^e A r^d <= A (r m)^d as m >= 2.
    The running extremes are values of L*f at grid points, at most A r^d, and
    sizes are at most m^d, so every tested field p_g - lo*size - 1 and hi*size
    - p_g - 1 is at most B = 2 A (r (n - 1))^d + 1 in size, and w =
    bit_length(B) + 1 gives B < 2^(w - 1)."""
    bound = 2 * sum(map(abs, values)) * (r * (n - 1)) ** d + 1
    return bound.bit_length() + 1


def _quadratic_beaten(m: int, ps, lo: "int | None", hi: "int | None") -> bool:
    """_Shape._loses for d = 2, from the node's Bernstein coefficients ps in
    field order, an iterable with the m vertex fields first; the order of
    the rest does not matter.

    With t = y/s, the node's form is sum_i V_i t_i^2 + sum_{i<j} p_ij t_i t_j
    over the vertex values V_i and edge p_ij (0 for an edge without a field).
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
    denominators; every table entry is built once, on its first read (_Lazy),
    so reuse is safe across calls and threads.
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
          cap: int, picks: tuple, starts: "list[int]", gates: "list[int] | None",
          w: int) -> "tuple[list[_Extreme], int]":
    """Running extremes (one per pick, min and/or max, each from its attained
    start) of L*f over the grid points with first <= alpha_0 < stop, and the
    number of points pruned.

    root holds L*f's coefficients in shape.order; for n = 1 the one grid
    point r e_0 is the vertex each side starts from, so root is not read.  The
    prefix tree is walked depth-first with an explicit stack, so n is not
    limited by the recursion limit.  A node that passes gates is skipped when
    shape.beaten says no point below it can reach a tracked extreme, or
    shape.skip, from the stepped coefficients of a long run of siblings
    (shape.differences, packed in fields of w bits), which also skips rows.
    """
    tracked = [_Extreme(pick, cap, start) for pick, start in zip(picks, starts)]
    if n == 1:
        for ext in tracked:
            ext.absorb(ext.value, 1, [(r,)])
        return tracked, 0
    if n == 2:  # the one row is the whole grid: its table is built for this sweep alone
        shape.feed_row(tracked, root, (), r, shape.rows.build(r))
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
            stack.append((k, coeffs, s, prefix, iter(range(end, stop)), None, None))
            pack, steps = shape.differences(k, coeffs, s, start, w)
            stack.append((k, coeffs, s, prefix, iter(range(start, end)), steps, pack))
        else:
            stack.append((k, coeffs, s, prefix, iter(range(start, stop)), None, None))

    enter(0, root, r, (), first, stop)
    while stack:  # a level resumes from `alphas` once the child it descended into is done
        k, coeffs, s, prefix, alphas, steps, pack = stack[-1]
        powers, width, extras, zero, gate = frames[k]
        if steps is not None:  # stepped children: each takes d integer additions
            tested = bool(pack.columns)
            for a in alphas:
                stepped = steps[0]
                for j in range(d):
                    steps[j] += steps[j + 1]
                rest = s - a
                skipped = shape.skip(k + 1, stepped, rest, low, high, pack) if tested else 0
                if skipped:
                    pruned += skipped
                elif k == row_parent:  # a row longer than e + 1
                    shape.feed_differences(tracked, pack.row(stepped), prefix + (a,), rest)
                else:
                    child = _child(coeffs, powers[a], width, extras)
                    enter(k + 1, child, rest, prefix + (a,), 0, rest + 1)
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
                shape.feed_row(tracked, child, here, rest, shape.rows[rest])
            elif rest >= gate and shape.beaten(k + 1, child, rest, low, high, w):
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


class _Plan:
    """The part of a sweep of f that no denominator changes: L and the integer
    coefficients of L*f (_integer_form), the values of L*f at the vertices
    (_vertex_values), the shape of its support (_shape, None for n = 1) and
    the root's coefficients in shape.order.  grid_extrema and its kin build
    one per call, converge one per run for every r and its enclosures.
    Nothing writes to it once built, so calls and threads may share it."""

    __slots__ = ("f", "scale", "coeffs", "vertices", "shape", "root")

    def __init__(self, f: HomogeneousPolynomial) -> None:
        self.f = f
        self.scale, coeffs = _integer_form(f)
        self.coeffs = coeffs
        self.vertices = _vertex_values(coeffs, f.n, f.d)
        self.shape = None if f.n == 1 else _shape(tuple(coeffs), f.n, f.d)
        self.root = [coeffs[alpha] for alpha in self.shape.order] if self.shape else []


def _sweep(
    plan: _Plan, r: int, threads: int, cap: int, picks: tuple = (min, max)
) -> "tuple[list[_Extreme], int, int]":
    """Extremes of L*f over the grid from one lex-order pass, one per pick (min
    and/or max, in that order); L*r^d; and the number of points pruned.

    Each side starts from its best vertex value, L*f(r e_i) = L*c_i*r^d, so
    nodes are pruned from the first one on; every chunk starts from it.  All
    that depends on r is made here: r^d, the starts, the gates, the field
    width and the chunks."""
    n, d, shape = plan.f.n, plan.f.d, plan.shape
    top = r**d
    starts = [pick(plan.vertices) * top for pick in picks]
    gates = w = None
    if shape is not None:
        gates = _gates(shape, n, r)
        w = _field_width(plan.root, n, d, r)
    chunks = _alpha0_chunks(n, r, threads)
    workers = min(len(chunks), os.cpu_count() or 1) if len(chunks) > 1 else 1

    def scan(chunk: "tuple[int, int]") -> "tuple[list[_Extreme], int]":
        return _scan(shape, plan.root, n, r, *chunk, cap, picks, starts, gates, w)

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
    return extremes, plan.scale * top, pruned


def _grid_pairs(plan: _Plan, r: int, threads: int) -> "tuple[int, int, int]":
    """(L*min, L*max, L*r^d): the grid extremes of f at r as integer pairs over
    one denominator, from a sweep that keeps no points.  It refuses nothing;
    the caller has checked the grid (_checked_grid, or converge's guard)."""
    (low, high), denominator, _ = _sweep(plan, r, threads, 0)
    return low.value, high.value, denominator


def _checked_grid(f: HomogeneousPolynomial, r: int, threads: int, max_points: "int | None") -> int:
    """The point count of f's grid at r, after the refusals a sweep of it takes
    before any work: fewer than one thread (ValueError), more points than
    max_points (GridTooLargeError), and the degree and row-table bounds
    (_check_sweep)."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {decimal_str(threads)}")
    total = _grid_size(f.n, r, max_points)
    _check_sweep(f, r)
    return total


def _grid_extremes(f: HomogeneousPolynomial, r: int, picks: tuple, threads: int, cap: int,
                   max_points: "int | None") -> "list[GridMinResult]":
    """One result per pick; only the picked sides are tracked and bound.  A
    negative cap, or fewer than one thread, is refused (ValueError) before any
    work."""
    if cap < 0:
        raise ValueError(f"minimizer_cap must be at least 0, got {decimal_str(cap)}")
    cap = min(cap, sys.maxsize)  # no list holds more points, and islice takes no more
    total = _checked_grid(f, r, threads, max_points)
    extremes, denominator, _ = _sweep(_Plan(f), r, threads, cap, picks)
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
    capped at the CPU count; under the GIL they give no speed-up.  Fewer than
    one thread is refused (ValueError), as `sgo --threads` refuses it.  The
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
