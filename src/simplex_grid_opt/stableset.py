"""Stable-set lower bounds from grid minimization of a vertex-form quadratic.

For a graph G, the reciprocal of the stability number equals the simplex
minimum of x^T (I + A) x, with A the adjacency matrix.  Minimizing that
quadratic over the grid with denominator r gives a value at least the true
minimum 1/alpha, so ceil(1/grid value) is a certified lower bound on alpha;
it is exact whenever some maximum stable set size divides r (the uniform
point on the stable set is then a grid point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable

from .grid import DEFAULT_GRID_GUARD, GridTooLargeError, _grid_size, grid_minimize
from .poly import HomogeneousPolynomial
from .rational import MAX_INT_DIGITS, _head, decimal_str


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, edges as sorted pairs."""

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

    @classmethod
    def from_edges(cls, n: int, edges: "Iterable[tuple[int, int]]") -> "Graph":
        return cls(n=n, edges=frozenset((u, v) for u, v in edges))


def parse_graph_text(text: str) -> Graph:
    """Parse an edge list: one "u v" pair per line, vertices 1-indexed.

    Comment lines ("c ...") and problem lines ("p ...") in the DIMACS style
    are tolerated; a "p" line may announce the vertex count (its first token
    of digits), and edge lines may carry a leading "e".  Otherwise the vertex
    count is the largest index seen.  Indices and counts are ASCII digits, at
    most 4300 of them; an error names the line and quotes at most 40
    characters of it.
    """
    n = 0
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0].lower()
        if tag == "c":
            continue
        if tag == "p":
            for token in parts[1:]:
                if token.isdigit():  # any script's digits, so that '²' is refused, not skipped
                    n = max(n, _index(token, lineno, "vertex count"))
                    break
            continue
        if tag == "e":
            parts = parts[1:]
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {_head(raw)}")
        u, v = _index(parts[0], lineno, "vertex"), _index(parts[1], lineno, "vertex")
        if u < 1 or v < 1:
            raise ValueError(f"line {lineno}: vertices are 1-indexed, got {_head(line)}")
        edges.append((u, v))
        n = max(n, u, v)
    if n == 0:
        raise ValueError("graph file defines no vertices")
    return Graph.from_edges(n, edges)


def _index(token: str, lineno: int, what: str) -> int:
    if not (token.isascii() and token.isdigit()) or len(token) > MAX_INT_DIGITS:
        raise ValueError(
            f"line {lineno}: {what} {_head(token)} is not an integer of at most "
            f"{MAX_INT_DIGITS} ASCII digits"
        )
    return int(token)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_graph_text(fp.read())


def motzkin_straus_form(g: Graph) -> HomogeneousPolynomial:
    """The quadratic x^T (I + A) x: coefficient 1 on each square, 2 per edge."""
    coeffs: dict = {}
    for i in range(g.n):
        key = tuple(2 if j == i else 0 for j in range(g.n))
        coeffs[key] = 1
    for u, v in g.edges:
        key = tuple(1 if j + 1 in (u, v) else 0 for j in range(g.n))
        coeffs[key] = 2
    return HomogeneousPolynomial(n=g.n, d=2, coeffs=coeffs)


@dataclass(frozen=True)
class StableSetBound:
    """Certified lower bound on the stability number from a grid sweep."""

    r: int
    grid_value: Fraction
    alpha_lb: int
    evaluations: int


def alpha_lower_bound(
    g: Graph, r: int, *, threads: int = 1, max_points: "int | None" = DEFAULT_GRID_GUARD
) -> StableSetBound:
    """Minimize the vertex-form quadratic over the grid and round up its reciprocal.

    Raises GridTooLargeError before building the form when the work estimate,
    the larger of the form's table size n * (n + |E|) and the grid size,
    exceeds max_points (None disables the guard).  The table size is compared
    first, so a huge vertex count never reaches the grid-size binomial.
    """
    table = g.n * (g.n + len(g.edges))
    if max_points is not None and table > max_points:
        raise GridTooLargeError(
            f"the vertex form has {decimal_str(table)} table entries, budget is {max_points}"
        )
    _grid_size(g.n, r, max_points)
    result = grid_minimize(motzkin_straus_form(g), r, threads=threads, max_points=max_points)
    # the quadratic dominates sum x_i^2 > 0 on the simplex, so the value is positive
    return StableSetBound(
        r=r,
        grid_value=result.value,
        alpha_lb=ceil(1 / result.value),
        evaluations=result.evaluations,
    )


def exact_alpha(g: Graph, *, max_vertices: int = 25) -> int:
    """Exact stability number by branch and bound.  Exponential; test oracle only.

    Branches on a maximum-degree vertex: either exclude it, or include it and
    drop its closed neighborhood.  Vertex subsets are bitmasks.
    """
    if g.n > max_vertices:
        raise ValueError(f"refusing exponential search on {g.n} > {max_vertices} vertices")
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)

    best = 0

    def search(mask: int, size: int) -> None:
        nonlocal best
        if size + bin(mask).count("1") <= best:
            return  # even taking everything left cannot beat the incumbent
        if mask == 0:
            best = max(best, size)
            return
        pick = -1
        pick_deg = -1
        probe = mask
        while probe:
            v = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            deg = bin(adj[v] & mask).count("1")
            if deg > pick_deg:
                pick, pick_deg = v, deg
        if pick_deg == 0:
            best = max(best, size + bin(mask).count("1"))
            return
        bit = 1 << pick
        search(mask & ~(bit | adj[pick]), size + 1)
        search(mask & ~bit, size)

    search((1 << g.n) - 1, 0)
    return best
