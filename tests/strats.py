"""Shared fixtures-by-convention: example objects and hypothesis strategies."""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, product
from math import prod
from operator import mul
from pathlib import Path
from typing import Callable, Sequence

import hypothesis.strategies as st

from simplex_grid_opt import (
    BoundKind,
    DegenerateRangeError,
    Enclosure,
    Graph,
    HomogeneousPolynomial,
    HypergeomParams,
    as_rational,
    binomial,
    composition_count,
    compositions,
    evaluate,
    falling,
    fraction_str,
    moment,
    multinomial,
    stirling2,
)
from simplex_grid_opt.rational import _shown
from simplex_grid_opt.rational import _LITERAL, MAX_INT_DIGITS, _head

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def sum_of_squares(n: int) -> HomogeneousPolynomial:
    return HomogeneousPolynomial(
        n, 2, {tuple(2 * (i == j) for j in range(n)): 1 for i in range(n)}
    )


def strict_gap_poly() -> HomogeneousPolynomial:
    """2x1^2 + x2^2 - 5x1x2: simplex minimum -17/32 at (7/16, 9/16)."""
    return HomogeneousPolynomial(2, 2, {(2, 0): 2, (0, 2): 1, (1, 1): -5})


def fixed_quartic() -> HomogeneousPolynomial:
    """A dense n = 4, d = 4 polynomial on which the sweep engine's default gate
    prunes at r = 80."""
    coeffs = {
        alpha: Fraction((7 * i) % 11 - 5, 1 + i % 3) for i, alpha in enumerate(compositions(4, 4))
    }
    return HomogeneousPolynomial(4, 4, coeffs)


def petersen() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph(10, outer + spokes + inner)


@st.composite
def exponent_tuples(draw, n: int, d: int):
    """A random element of I(n, d)."""
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(d - prev)
    return tuple(parts)


@st.composite
def polynomials(draw, max_n: int = 4, max_d: int = 3, coef_bound: int = 9):
    """Sparse nonzero integer-coefficient homogeneous polynomials."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    n_terms = draw(st.integers(1, 6))
    coeffs = {}
    for _ in range(n_terms):
        alpha = draw(exponent_tuples(n, d))
        c = draw(st.integers(-coef_bound, coef_bound))
        coeffs[alpha] = coeffs.get(alpha, 0) + c
    coeffs = {a: c for a, c in coeffs.items() if c}
    if not coeffs:
        coeffs[(d,) + (0,) * (n - 1)] = 1
    return HomogeneousPolynomial(n, d, coeffs)


@st.composite
def simplex_points(draw, n: int):
    """A random rational point of the standard simplex with n coordinates."""
    weights = draw(
        st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def naive_extremes(f, r, cap):
    """(value, lex-first points up to cap, tie count) of the minimum and maximum,
    from poly.evaluate at every point of combin.compositions."""
    values = [
        (evaluate(f, [Fraction(a, r) for a in alpha]), alpha) for alpha in compositions(f.n, r)
    ]
    out = []
    for pick in (min, max):
        best = pick(v for v, _ in values)
        hits = [alpha for v, alpha in values if v == best]
        out.append((best, tuple(hits[:cap]), len(hits)))
    return out


def anchored_form(q: "Sequence[Fraction]", k: int) -> HomogeneousPolynomial:
    """f_{q,k} = s^k sum_i (x_i - q_i s)^2 with s = x_1 + ... + x_n, for a
    rational point q of the simplex: degree k + 2, and on the simplex, where
    s = 1, the squared distance to q."""
    n = len(q)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    s = HomogeneousPolynomial(n, 1, {e: 1 for e in unit})
    f = None
    for i, q_i in enumerate(q):
        line = HomogeneousPolynomial(n, 1, {e: int(i == j) - q_i for j, e in enumerate(unit)})
        square = poly_mul(line, line)
        f = square if f is None else poly_add(f, square)
    for _ in range(k):
        f = poly_mul(f, s)
    return f


def anchored_extremes(q: "Sequence[Fraction]", r: int, cap: int):
    """naive_extremes of any anchored form f_{q,k} at r, in closed form.

    On the grid f(alpha/r) = sum_i (alpha_i - r q_i)^2 / r^2.  With r q_i =
    floor_i + phi_i, the least sum gives floor_i + 1 to the m = r - sum floor_i
    indices with the largest phi_i, and floor_i to the rest: one more unit to
    i costs 1 - 2 phi_i, a second one or one fewer costs more than any first.
    The minimizers are the ways to pick, among the indices whose phi ties the
    m-th largest, those that the larger ones leave.  The maximum of the
    strictly convex squared distance is at the vertices r e_i with the least
    q_i, and only there.
    """
    n = len(q)
    floors = [math.floor(r * q_i) for q_i in q]
    phis = [r * q_i - f_i for q_i, f_i in zip(q, floors)]
    m = r - sum(floors)
    edge = sorted(phis, reverse=True)[m - 1] if m else None
    above = [i for i in range(n) if m and phis[i] > edge]
    tied = [i for i in range(n) if m and phis[i] == edge]
    points = sorted(
        tuple(f_i + (i in above or i in chosen) for i, f_i in enumerate(floors))
        for chosen in combinations(tied, m - len(above))
    )
    low = sum((a - r * q_i) ** 2 for a, q_i in zip(points[0], q)) / Fraction(r * r)
    least = min(q)
    vertices = sorted(tuple(r * (j == i) for j in range(n)) for i in range(n) if q[i] == least)
    high = (1 - least) ** 2 + sum(q_i**2 for q_i in q) - least**2
    return [(low, tuple(points[:cap]), len(points)), (high, tuple(vertices[:cap]), len(vertices))]


@st.composite
def anchored_points(draw, n: int, max_denominator: int = 12):
    """A rational point q of the simplex with n coordinates, each a multiple of
    1/D for a drawn D <= max_denominator, so that r q has many fractional
    parts and ties among them."""
    total = draw(st.integers(1, max_denominator))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return tuple(Fraction(w, total) for w in weights)


def naive_a_beta(beta, r, m, counts):
    """A_beta term by term over every alpha <= beta:

    (r falling d) * (prod falling(counts_i, beta_i) - prod counts_i^beta_i)
    + sum over alpha != beta of (r falling |alpha|) * falling(m - |alpha|, d - |alpha|)
      * prod falling(counts_i, alpha_i) * S(beta_i, alpha_i).
    """
    d = sum(beta)
    prod_falling = 1
    prod_power = 1
    for mi, bi in zip(counts, beta):
        prod_falling *= falling(mi, bi)
        prod_power *= mi**bi
    total = falling(r, d) * (prod_falling - prod_power)
    for alpha in product(*(range(b + 1) for b in beta)):
        if alpha == tuple(beta):
            continue
        k = sum(alpha)
        term = falling(r, k) * falling(m - k, d - k)
        for mi, ai, bi in zip(counts, alpha, beta):
            term *= falling(mi, ai) * stirling2(bi, ai)
        total += term
    return total


def naive_bernstein(f, x, r):
    """The order-r Bernstein value of f at the simplex point x, summed over the grid:
    sum over alpha in I(n, r) of f(alpha/r) * (r!/alpha!) * x^alpha."""
    total = Fraction(0)
    for alpha in compositions(f.n, r):
        weight = Fraction(multinomial(r, alpha))
        for xi, ai in zip(x, alpha):
            weight *= Fraction(xi) ** ai
        if weight:
            total += evaluate(f, tuple(Fraction(a, r) for a in alpha)) * weight
    return total


# --- oracles and helpers that only the tests use -------------------------------


class FractionSubclass(Fraction):
    """A Fraction subclass: the polynomial constructors store plain Fractions."""


def coefficient_forms(q: Fraction) -> "list":
    """q spelled as every coefficient type the loaders take: Fraction, a
    Fraction subclass, a "p/q" string, and an int, an int string and a decimal
    string where q has those forms."""
    forms = [q, FractionSubclass(q), f"{q.numerator}/{q.denominator}"]
    if q.denominator == 1:
        forms += [q.numerator, str(q.numerator)]
    if 10**6 % q.denominator == 0:
        forms.append(str(Decimal(q.numerator) / Decimal(q.denominator)))
    return forms


@st.composite
def term_lists(draw, max_n: int = 4, max_d: int = 3, lower_degrees: bool = False):
    """(n, d, [(exponent, coefficient), ...]) with repeated exponents, some of
    whose coefficients cancel to zero, in every coefficient form.  With
    lower_degrees, terms may have any degree up to d (for homogenize)."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    degrees = st.integers(0, d) if lower_degrees else st.just(d)
    pool = draw(st.lists(degrees.flatmap(lambda e: exponent_tuples(n, e)), min_size=1, max_size=4))
    values = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 5, 8, 12]))
    terms, sums = [], {}
    for _ in range(draw(st.integers(0, 8))):
        alpha, q = draw(st.sampled_from(pool)), draw(values)
        terms.append((draw(st.sampled_from([alpha, list(alpha)])),
                      draw(st.sampled_from(coefficient_forms(q)))))
        sums[alpha] = sums.get(alpha, 0) + q
    for alpha, total in sums.items():  # cancel some exponents to zero
        if draw(st.booleans()):
            terms.append((alpha, draw(st.sampled_from(coefficient_forms(-total)))))
    return n, d, terms


def reference_terms(n: int, d: "int | None", terms) -> "tuple[int, int, list]":
    """(n, d, sorted (exponent, Fraction) items) of the polynomial that
    HomogeneousPolynomial.from_terms builds from valid terms: every
    coefficient read by as_rational and added to a Fraction(0) start, the
    exponents sorted, and the zero sums dropped."""
    merged = {}
    for alpha, coef in (terms.items() if isinstance(terms, Mapping) else terms):
        key = tuple(int(a) for a in alpha)
        merged[key] = merged.get(key, Fraction(0)) + as_rational(coef)
    if d is None:
        d = max(sum(alpha) for alpha in merged)
    return n, d, [(alpha, Fraction(c)) for alpha, c in sorted(merged.items()) if c != 0]


def reference_homogenize(n: int, d: int, terms) -> "tuple[int, int, list]":
    """reference_terms of each term times (x_1 + ... + x_n)^(d - |alpha|),
    multiplied out one factor at a time."""
    raised = []
    for alpha, coef in terms:
        term = {tuple(alpha): as_rational(coef)}
        for _ in range(d - sum(alpha)):
            nxt = {}
            for beta, c in term.items():
                for i in range(n):
                    key = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    nxt[key] = nxt.get(key, Fraction(0)) + c
            term = nxt
        raised += term.items()
    return reference_terms(n, d, raised)



def poly_add(f, g):
    if (f.n, f.d) != (g.n, g.d):
        raise ValueError("can only add polynomials with equal variable count and degree")
    out = dict(f.coeffs)
    for alpha, c in g.coeffs.items():
        out[alpha] = out.get(alpha, Fraction(0)) + c
    return HomogeneousPolynomial(f.n, f.d, out)


def poly_scale(f, c):
    c = as_rational(c)
    return HomogeneousPolynomial(f.n, f.d, {a: c * v for a, v in f.coeffs.items()})


def poly_mul(f, g):
    """Product polynomial of degree f.d + g.d."""
    if f.n != g.n:
        raise ValueError("variable counts differ")
    out = {}
    for a, ca in f.coeffs.items():
        for b, cb in g.coeffs.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return HomogeneousPolynomial(f.n, f.d + g.d, out)


def composition_unrank(n, total, rank):
    """The rank-th element (0-based) of I(n, total) in lexicographic order."""
    if not 0 <= rank < composition_count(n, total):
        raise ValueError(f"rank {rank} out of range for I({n}, {total})")
    out = []
    for pos in range(n - 1):
        v = 0
        while True:
            block = math.comb(total - v + n - pos - 2, n - pos - 2)
            if rank < block:
                break
            rank -= block
            v += 1
        out.append(v)
        total -= v
    out.append(total)
    return tuple(out)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def clique_union(cliques: int, size: int) -> Graph:
    """Disjoint union of `cliques` copies of K_size: stability number `cliques`."""
    return Graph(cliques * size, [
        (c * size + i, c * size + j)
        for c in range(cliques) for i in range(1, size + 1) for j in range(i + 1, size + 1)
    ])


def random_graph(seed: int, n: int, m: int) -> Graph:
    """m distinct edges on n vertices, drawn with random.Random(seed)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Graph(n, random.Random(seed).sample(pairs, m))


def motzkin_straus_form(g: Graph) -> HomogeneousPolynomial:
    """The quadratic x^T (I + A) x: coefficient 1 on each square, 2 per edge.
    The oracle of stableset's closed-form grid value, which builds no form."""
    coeffs: dict = {}
    for i in range(g.n):
        key = tuple(2 if j == i else 0 for j in range(g.n))
        coeffs[key] = 1
    for u, v in g.edges:
        key = tuple(1 if j + 1 in (u, v) else 0 for j in range(g.n))
        coeffs[key] = 2
    return HomogeneousPolynomial(n=g.n, d=2, coeffs=coeffs)


def edge_list_text(g: Graph) -> str:
    """The graph as an edge list whose "p" line names every vertex."""
    return f"p edge {g.n} {len(g.edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


def brute_force_alpha(g: Graph) -> int:
    """Stability number by scanning every vertex subset, largest first."""
    for size in range(g.n, 0, -1):
        for subset in combinations(range(1, g.n + 1), size):
            if not any((u, v) in g.edges for u, v in combinations(subset, 2)):
                return size
    return 0


def greedy_stable_set(g):
    """A maximal (not maximum) stable set: repeatedly take a minimum-degree vertex."""
    neighbors = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    alive = set(range(1, g.n + 1))
    chosen = []
    while alive:
        v = min(alive, key=lambda w: (len(neighbors[w] & alive), w))
        chosen.append(v)
        alive -= neighbors[v] | {v}
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class FallingPolyCoeffs:
    """Expansion data of q(x) = (x-1)(x-2)...(x-d+1) for d >= 2.

    q(x) = x^(d-1) + sum_{i=0}^{d-2} (-1)^(d-1-i) a_i x^i with every a_i a
    positive integer, together with the derived constant c_d = (d-1) * sum(a).
    """

    d: int
    a: tuple[int, ...]
    c_d: int


def falling_poly_coeffs(d: int) -> FallingPolyCoeffs:
    """Expand (x-1)(x-2)...(x-d+1) and strip the alternating signs."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    coeffs = [1]  # coeffs[j] = coefficient of x^j, starting from the polynomial 1
    for root in range(1, d):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= root * c
        coeffs = nxt
    assert coeffs[d - 1] == 1
    a = []
    for i in range(d - 1):
        ai = coeffs[i] if (d - 1 - i) % 2 == 0 else -coeffs[i]
        assert ai > 0
        a.append(ai)
    return FallingPolyCoeffs(d=d, a=tuple(a), c_d=(d - 1) * sum(a))


# --- oracles moved out of the package: only the tests call them ----------------
#
# The dense Fraction Bernstein table of f elevated by k, against which the
# engine's integer enclosure (grid._bernstein_extrema) is checked; the JSON
# writer of a polynomial; the urn pmf, brute-force moments and closed degree-2
# and degree-3 moments, against which hypergeom's Stirling expansion is
# checked; and the crossover r past which the refined cubic bound coefficient
# is checked to be the stronger one.

DEFAULT_ELEVATION_CAP = 8


def elevate(f: HomogeneousPolynomial, k: int, *, cap: int = DEFAULT_ELEVATION_CAP) -> HomogeneousPolynomial:
    """Multiply f by (x_1 + ... + x_n)^k, exactly.

    On the simplex this leaves values unchanged while refining the Bernstein
    coefficient table.  k is capped because the table grows as
    C(n + d + k - 1, d + k); pass a larger cap explicitly to go beyond it.
    """
    if k < 0:
        raise ValueError("elevation must be nonnegative")
    if k > cap:
        raise ValueError(f"elevation {k} exceeds the cap {cap}")
    coeffs = dict(f.coeffs)
    for _ in range(k):
        nxt: "dict[tuple[int, ...], Fraction]" = {}
        for alpha, c in coeffs.items():
            for i in range(f.n):
                key = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                nxt[key] = nxt.get(key, Fraction(0)) + c
        coeffs = nxt
    return HomogeneousPolynomial(f.n, f.d + k, coeffs)


@dataclass(frozen=True)
class BernsteinTable:
    """Coefficients of f in the simplex Bernstein basis {(d!/b!) x^b : b in I(n,d)}.

    The entry at b is f_b * b!/d!.  The table covers all of I(n, d), zeros
    included, because the extreme entries are what certify bounds: on the
    simplex, f(x) is a convex combination of these coefficients, so
    min_coeff <= f(x) <= max_coeff.
    """

    entries: "dict[tuple[int, ...], Fraction]"
    min_coeff: Fraction
    max_coeff: Fraction


def bernstein_table(f: HomogeneousPolynomial) -> BernsteinTable:
    entries: "dict[tuple[int, ...], Fraction]" = {}
    for beta in compositions(f.n, f.d):
        entries[beta] = f.coeffs.get(beta, Fraction(0)) / multinomial(f.d, beta)
    values = entries.values()
    return BernsteinTable(entries=entries, min_coeff=min(values), max_coeff=max(values))


def bernstein_columns_oracle(suffixes: "list[tuple[int, ...]]", m: int,
                             d: int) -> "tuple[list[tuple[list[int], list[int]]], list[int]]":
    """The Bernstein table of grid._bernstein_columns, fields and their order
    included, built as it was before that kernel keyed g by an integer: each g
    as a sorted tuple of its (coordinate, exponent) pairs, each kappa in I(m, e)
    a Counter over the reversed combinations_with_replacement(range(m), e).
    The vertex fields come first, then each other g as it is first reached,
    then one empty field of size 2 when some g has no suffix under it."""
    factorial = list(accumulate(range(1, d - min(map(sum, suffixes), default=d) + 1), mul,
                                initial=1))
    offsets = {}
    fields = {((j, d),): j for j in range(m)}
    sizes, columns = [1] * m, []
    for sigma in suffixes:
        e = d - sum(sigma)
        if e not in offsets:
            kappas = map(Counter, reversed(list(combinations_with_replacement(range(m), e))))
            offsets[e] = [
                (tuple(h.items()), factorial[e] // prod(map(factorial.__getitem__, h.values())))
                for h in kappas
            ]
        base = {j: b for j, b in enumerate(sigma) if b}
        index, weights = [], []
        for kappa, weight in offsets[e]:
            g = base.copy()
            for j, b in kappa:
                g[j] = g.get(j, 0) + b
            g = tuple(sorted(g.items()))
            if g not in fields:
                fields[g] = len(sizes)
                size, left = 1, d
                for _, b in g:
                    size *= math.comb(left, b)
                    left -= b
                sizes.append(size)
            index.append(fields[g])
            weights.append(weight)
        columns.append((index, weights))
    if len(sizes) < composition_count(m, d):
        sizes.append(2)
    return columns, sizes


def node_coefficients_oracle(table, suffixes, coeffs, s) -> "list[tuple[int, int]]":
    """(p_g, multinomial(d, g)) per field of `table`, the Bernstein columns and
    sizes of a node with these suffixes (bernstein_columns_oracle), for its
    coefficients and budget s: p_g = sum over sigma_i <= g of c_i s^|sigma_i|
    multinomial(d - |sigma_i|, g - sigma_i)."""
    columns, sizes = table
    ps = [0] * len(sizes)
    for c, sigma, (index, weights) in zip(coeffs, suffixes, columns):
        for j, w in zip(index, weights):
            ps[j] += c * s ** sum(sigma) * w
    return list(zip(ps, sizes))


def quadratic_bound_oracle(pairs, m: int) -> Fraction:
    """A lower bound on the values under a node of degree 2 from its (p_g,
    size) pairs in field order, the m vertex fields first: h + 1/sum_i 1/(V_i -
    h), with V_i the vertex coefficients and h the least other p_g / size, or
    the least V_i when some V_i <= h or no other row is there."""
    vertices = [p for p, _ in pairs[:m]]
    h = min((Fraction(p, size) for p, size in pairs[m:]), default=None)
    if h is None or min(vertices) <= h:
        return Fraction(min(vertices))
    return h + 1 / sum(1 / (v - h) for v in vertices)


def node_loses_oracle(pairs, m: int, d: int, lo: "int | None", hi: "int | None") -> bool:
    """The sweep's node test in list form, from a node's (p_g, size) pairs in
    field order (node_coefficients_oracle) against running extremes lo and
    hi, None when a side is not tracked: every p_g / size is strictly worse
    than both, or at d = 2 each extreme is strictly worse than the quadratic
    bound of its side (quadratic_bound_oracle, for -f on the max side)."""
    if d != 2:
        return all((lo is None or p > lo * size) and (hi is None or p < hi * size) for p, size in pairs)
    return (lo is None or lo < quadratic_bound_oracle(pairs, m)) and \
        (hi is None or -hi < quadratic_bound_oracle([(-p, size) for p, size in pairs], m))


def decimal_rational(text: str) -> Fraction:
    """as_rational of a string as it read every string before plain integers
    and p/q went to int(): through Decimal, with the same refusals and error
    texts."""
    stripped = text.strip()
    _, e, exponent = stripped.lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (
        len(digits) > len(str(MAX_INT_DIGITS)) or int(digits) > MAX_INT_DIGITS
    ):
        raise ValueError(f"decimal exponent in {_head(text)} exceeds {MAX_INT_DIGITS}")
    if _LITERAL.fullmatch(stripped) is None:
        raise ValueError(f"cannot parse {_head(text)} as an exact rational")
    num, slash, den = stripped.partition("/")
    if not slash:
        return Fraction(Decimal(stripped))
    q = int(Decimal(den))
    if q == 0:
        raise ValueError(f"zero denominator in {_head(text)}")
    return Fraction(int(Decimal(num)), q)


def to_json_dict(f: HomogeneousPolynomial) -> dict:
    return {
        "n": f.n,
        "degree": f.d,
        "terms": [{"alpha": list(alpha), "coef": str(c)} for alpha, c in f.coeffs.items()],
    }


BRUTE_FORCE_GATE = 10**4


def pmf(p: HypergeomParams, alpha: Sequence[int]) -> Fraction:
    """Probability of drawing exactly alpha[i] balls of each color i."""
    if len(alpha) != p.n:
        raise ValueError(f"outcome has {len(alpha)} colors, expected {p.n}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative count in {tuple(alpha)}")
    if sum(alpha) != p.r:
        raise ValueError(f"outcome {tuple(alpha)} must sum to the draw count {p.r}")
    return Fraction(prod(map(binomial, p.counts, alpha)), binomial(p.m, p.r))


def moment_bruteforce(
    p: HypergeomParams, beta: Sequence[int], *, max_points: int = BRUTE_FORCE_GATE
) -> Fraction:
    """Oracle: E[prod Y_i^beta_i] summed outcome by outcome from the pmf.

    Independent of the Stirling-number route; gated because the outcome set
    I(n, r) grows combinatorially.
    """
    beta = tuple(int(b) for b in beta)
    if len(beta) != p.n:
        raise ValueError(f"moment index has {len(beta)} entries, expected {p.n}")
    size = composition_count(p.n, p.r)
    if size > max_points:
        raise ValueError(f"brute force over {size} outcomes exceeds the gate {max_points}")
    num = 0
    for alpha in compositions(p.n, p.r):
        weight = prod(map(binomial, p.counts, alpha))
        if weight:
            num += weight * prod(map(pow, alpha, beta))
    return Fraction(num, binomial(p.m, p.r))


def scaled_moment(p: HypergeomParams, beta: Sequence[int]) -> Fraction:
    """E[prod X_i^beta_i] of the grid point X = Y/r, from the public moment."""
    return moment(p, beta) / p.r ** sum(beta)


def scaled_moment_bruteforce(
    p: HypergeomParams, beta: Sequence[int], *, max_points: int = BRUTE_FORCE_GATE
) -> Fraction:
    return moment_bruteforce(p, beta, max_points=max_points) / Fraction(p.r) ** sum(beta)


def quadratic_moments_closed(p: HypergeomParams) -> "dict[tuple[int, int], Fraction]":
    """Closed-form degree-2 moments E[X_i X_j], keyed by sorted index pairs.

    Requires m >= 2.  The textbook form divides by counts[i]; here it is
    multiplied through, so zero color counts are fine:
      E[X_i^2]   = (m_i/m)^2 (1 - c) + (m_i/m) c,   c = (m-r) / (r(m-1))
      E[X_i X_j] = (m_i m_j / m^2) (1 - c)          for i != j.
    """
    if p.m < 2:
        raise ValueError("closed-form quadratic moments need m >= 2")
    m, r = p.m, p.r
    c = Fraction(m - r, r * (m - 1))
    out: "dict[tuple[int, int], Fraction]" = {}
    for i, mi in enumerate(p.counts):
        out[(i, i)] = Fraction(mi * mi, m * m) * (1 - c) + Fraction(mi, m) * c
        for j in range(i + 1, p.n):
            out[(i, j)] = Fraction(mi * p.counts[j], m * m) * (1 - c)
    return out


def cubic_moments_closed(p: HypergeomParams) -> "dict[tuple[int, int, int], Fraction]":
    """Closed-form degree-3 moments E[X_i X_j X_k], keyed by sorted index triples.

    Requires m >= 3.  With D = r^2 (m-1)(m-2) and c = (m-r)(3mr - 2(m+r))/D,
    the denominator-free rewrites are:
      E[X_i^3]     = (m_i/m)^3 (1 - c) + (m_i/m)(m-r)(3(r-1)m_i + m - 2r)/D
      E[X_i^2 X_j] = (m_i^2 m_j/m^3)(1 - c) + (m_i m_j/m)(m-r)(r-1)/D
      E[X_i X_j X_k] = (m_i m_j m_k/m^3)(1 - c)
    """
    if p.m < 3:
        raise ValueError("closed-form cubic moments need m >= 3")
    m, r = p.m, p.r
    den = r * r * (m - 1) * (m - 2)
    c = Fraction((m - r) * (3 * m * r - 2 * (m + r)), den)
    out: "dict[tuple[int, int, int], Fraction]" = {}
    counts = p.counts
    for i, mi in enumerate(counts):
        out[(i, i, i)] = Fraction(mi**3, m**3) * (1 - c) + Fraction(mi, m) * Fraction(
            (m - r) * (3 * (r - 1) * mi + m - 2 * r), den
        )
        for j in range(p.n):
            if j == i:
                continue
            key = tuple(sorted((i, i, j)))
            out[key] = Fraction(mi * mi * counts[j], m**3) * (1 - c) + Fraction(
                mi * counts[j], m
            ) * Fraction((m - r) * (r - 1), den)
        for j in range(i + 1, p.n):
            for k in range(j + 1, p.n):
                out[(i, j, k)] = Fraction(mi * counts[j] * counts[k], m**3) * (1 - c)
    return out


def bound_coefficient_oracle(kind, d: int, r: int, m: "int | None") -> "Fraction | None":
    """The coefficient of one bound kind at (d, r, m), in Fraction arithmetic
    straight from the formulas of the bounds module docstring, or None where
    the kind does not apply."""
    kind = BoundKind(kind).value
    if m is None and kind not in ("KLS_QUAD", "KLS_GENERAL", "CUBIC_KLS", "SQFREE_KLS"):
        return None
    gap = binomial(2 * d - 1, d) * d**d
    kls = Fraction(falling(r, d), r**d)
    refined = lambda: Fraction(falling(r, d) * m**d, r**d * falling(m, d))
    formulas = {
        "KLS_QUAD": lambda: Fraction(1, r) if d == 2 else None,
        "KLS_GENERAL": lambda: (1 - kls) * gap,
        "QUAD_REFINED": lambda: (Fraction(m - r, r * (m - 1)) if m > 1 else Fraction(0))
        if d == 2 and r <= m else None,
        "QUAD_DENOM": lambda: Fraction(m, r * r) if d == 2 else None,
        "CUBIC_KLS": lambda: Fraction(4, r) - Fraction(4, r * r) if d == 3 and r >= 2 else None,
        "SQFREE_KLS": lambda: 1 - kls,
        "CUBIC_REFINED": lambda: Fraction((m - r) * (4 * m * r - 2 * m - 2 * r),
                                          r * r * (m - 1) * (m - 2))
        if d == 3 and m >= 3 and r <= m else None,
        "SQFREE_REFINED": lambda: 1 - refined() if m >= d and r <= m else None,
        "GENERAL_REFINED": lambda: (1 - refined()) * gap if m >= d and r <= m else None,
        "CUBIC_RHO": lambda: (Fraction(m * m, r * r * (m - 2)) if r <= m else Fraction(6 * m, r * r))
        if d == 3 and m >= 3 else None,
        "GENERAL_RHO": lambda: Fraction(m, r * r) * (d - 1) * (math.factorial(d) - 1) * gap
        if d >= 2 and m >= d else None,
    }
    return formulas[kind]()


def rho_interval_oracle(fmin: Enclosure, fmax: Enclosure, grid_min: Fraction,
                        grid_max: Fraction) -> Enclosure:
    """bounds.rho_interval as it was computed in Fractions before its integer
    core (bounds._rho): the same refutations, degenerate range, messages and
    interval, from the formulas unchanged."""
    if grid_min < fmin.lo:
        raise ValueError("assumed minimizer denominator is inconsistent: its grid value "
                         "exceeds the grid minimum at r")
    if grid_max > fmax.hi:
        raise ValueError("assumed maximizer denominator is inconsistent: its grid value "
                         "is below the grid maximum at r")
    min_hi = min(fmin.hi, grid_min)
    den_lo = max(fmax.lo, grid_max) - min_hi
    den_hi = fmax.hi - fmin.lo
    if den_lo <= 0:
        raise DegenerateRangeError(
            "degenerate range: cannot certify that fmax exceeds fmin "
            f"(range enclosure gap is [{fraction_str(den_lo)}, {fraction_str(den_hi)}])"
        )
    num_lo, num_hi = grid_min - min_hi, grid_min - fmin.lo
    return Enclosure(num_lo / den_hi, min(Fraction(1), num_hi / den_lo))


def cubic_threshold_reached(r: int, m: int) -> bool:
    """Whether r is past the crossover where the refined cubic bound
    is at least as strong as the coarse one.

    The crossover is r >= 1 + (m-1)/(sqrt(2m)-1); since both sides of the
    squared form are nonnegative for r, m >= 1, it is equivalent to the
    integer inequality 2m(r-1)^2 >= (m+r-2)^2.
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    return 2 * m * (r - 1) ** 2 >= (m + r - 2) ** 2


# --- frozen-dataclass twins of the package's value classes ---------------------
#
# Each twin is the frozen dataclass its package class used to be: the same
# fields, defaults and __post_init__ checks, under the same __qualname__, so that
# the record-parity test can compare the two classes' constructors, equality,
# hash, repr and refusals byte for byte.


@dataclass(frozen=True)
class TwinGridMinResult:
    __qualname__ = "GridMinResult"

    value: Fraction
    r: int
    minimizers: "tuple[tuple[int, ...], ...]"
    tie_count: int
    evaluations: int


@dataclass(frozen=True)
class TwinHomogeneousPolynomial:
    __qualname__ = "HomogeneousPolynomial"

    n: int
    d: int
    coeffs: "dict[tuple[int, ...], Fraction]"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("polynomial needs at least one variable")
        if self.d < 1:
            raise ValueError("degree must be at least 1")
        table: "dict[tuple[int, ...], Fraction]" = {}
        for alpha, coef in sorted(self.coeffs.items()):
            alpha = tuple(map(int, alpha))
            if len(alpha) != self.n:
                raise ValueError(
                    f"exponent {_shown(alpha)} has length {len(alpha)}, expected {self.n}"
                )
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {_shown(alpha)}")
            if sum(alpha) != self.d:
                raise ValueError(
                    f"monomial {_shown(alpha)} has degree {sum(alpha)}, expected {self.d}"
                )
            c = as_rational(coef)
            if c != 0:
                table[alpha] = c
        object.__setattr__(self, "coeffs", table)


@dataclass(frozen=True)
class TwinEnclosure:
    __qualname__ = "Enclosure"

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class TwinHypergeomParams:
    __qualname__ = "HypergeomParams"

    m: int
    counts: "tuple[int, ...]"
    r: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.counts) < 1:
            raise ValueError("need at least one color")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative color count in {self.counts}")
        if sum(self.counts) != self.m:
            raise ValueError(f"counts {self.counts} sum to {sum(self.counts)}, expected m={self.m}")
        if not 1 <= self.r <= self.m:
            raise ValueError(f"need 1 <= r <= m, got r={self.r}, m={self.m}")


@dataclass(frozen=True)
class TwinBoundReport:
    __qualname__ = "BoundReport"

    kind: BoundKind
    d: int
    r: int
    m: "int | None"
    k: "int | None"
    coefficient: "Fraction | None"
    applicable: bool
    reason: str = ""


@dataclass(frozen=True)
class TwinRule:
    __qualname__ = "_Rule"

    needs_m: bool
    conditions: tuple
    coefficient: Callable
    square_free: bool = False


@dataclass(frozen=True)
class TwinRangeAssumptions:
    __qualname__ = "RangeAssumptions"

    elevation: int = 0
    grid: "int | None" = None
    assume_min_denominator: "int | None" = None
    assume_max_denominator: "int | None" = None


@dataclass(frozen=True)
class TwinBoundWitness:
    __qualname__ = "BoundWitness"

    kind: BoundKind
    d: int
    r: int
    m: int
    lhs: Fraction
    coefficient: Fraction
    range_bound: Fraction
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class TwinGraph:
    __qualname__ = "Graph"

    n: int
    edges: "frozenset[tuple[int, int]]"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 1..{self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))


@dataclass(frozen=True)
class TwinStableSetBound:
    __qualname__ = "StableSetBound"

    r: int
    grid_value: Fraction
    alpha_lb: int
    evaluations: int
