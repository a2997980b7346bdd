"""Stable-set lower bounds from the grid minimum of the Motzkin-Straus form.

For a graph G with adjacency matrix A and stability number alpha, the simplex
minimum of x^T (I + A) x is 1/alpha (Motzkin and Straus, Canad. J. Math. 17,
1965).  Its minimum over the grid with denominator r is B(k, r)/r^2, where
k = min(alpha, r), r = qk + t with 0 <= t < k, and B(k, r) = (k-t)q^2 + t(q+1)^2.
Along an edge direction e_i - e_j the form is linear (its second derivative
there is 2 - 2A_ij = 0), so moving whole units between adjacent positive
coordinates can empty one without raising the form or leaving the grid: some
grid minimizer has a stable support.  There the form is sum x_i^2, least for
the most balanced spread of r units over the most vertices, k of them.

So no grid is swept: one stable-set search, capped at r, finds k.  The grid
value is at least 1/alpha, so ceil(1/grid value) is a certified lower bound on
alpha; it is exact whenever alpha divides r.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Iterable

from .grid import DEFAULT_GRID_GUARD, _check_degree, _grid_size
from .rational import MAX_INT_DIGITS, _as_int, _Record, _head


class Graph(_Record):
    """Simple undirected graph on vertices 1..n, edges as sorted pairs.

    edges may be any iterable of vertex pairs, in either order and repeated;
    the graph keeps the frozenset of their sorted forms."""

    __slots__ = __match_args__ = ("n", "edges")

    def __init__(self, n: int, edges: "Iterable[tuple[int, int]]") -> None:
        n = _as_int(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for u, v in edges:
            u, v = _as_int(u), _as_int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 1..{n}")
            norm.add((min(u, v), max(u, v)))
        self._set(n, frozenset(norm))


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
    return Graph(n, edges)


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


class StableSetBound(_Record):
    """Certified lower bound on the stability number from the grid value."""

    __slots__ = __match_args__ = ("r", "grid_value", "alpha_lb", "evaluations")

    def __init__(self, r: int, grid_value: Fraction, alpha_lb: int, evaluations: int) -> None:
        self._set(r, grid_value, alpha_lb, evaluations)


def alpha_lower_bound(
    g: Graph, r: int, *, max_points: "int | None" = DEFAULT_GRID_GUARD
) -> StableSetBound:
    """The form's grid minimum B(k, r)/r^2 and the bound ceil(1/value) on alpha.

    Refuses what a sweep of the form would, in the same order: a grid of more
    than max_points points, C(n + r - 1, r) (GridTooLargeError; None disables
    the guard), then a power table past grid._check_degree's bound.  The grid
    size also bounds the search for k = min(alpha, r), which visits at most
    sum_{j <= r} C(n, j) <= C(n + r - 1, r) stable sets.  evaluations is the
    grid size, every point of which the closed form covers.  r and a
    max_points other than None must be integers (rational._as_int; TypeError).
    """
    r = _as_int(r)
    total = _grid_size(g.n, r, None if max_points is None else _as_int(max_points))
    _check_degree(2, r)
    k = _stability(g, r)
    q, t = divmod(r, k)
    value = Fraction((k - t) * q * q + t * (q + 1) ** 2, r * r)
    return StableSetBound(r=r, grid_value=value, alpha_lb=ceil(1 / value), evaluations=total)


def exact_alpha(g: Graph, *, max_vertices: int = 25) -> int:
    """Exact stability number by the stable-set search with no cap.  Exponential.
    max_vertices must be an integer (rational._as_int; TypeError)."""
    if g.n > _as_int(max_vertices):
        raise ValueError(f"refusing exponential search on {g.n} > {max_vertices} vertices")
    return _stability(g, g.n)


def _stability(g: Graph, cap: int) -> int:
    """min(alpha, cap).  A vertex on no edge joins every maximum stable set, so
    those are counted in closed form, and the walk covers only the vertices
    that touch an edge, capped at what the isolated ones leave: its masks have
    at most twice as many bits as there are edges, whatever n is.

    The walk goes depth-first over the stable sets, each grown by later
    vertices only, and stops at the first set of the cap's size.  It visits
    each nonempty stable set of at most that many vertices at most once, and
    drops a set that could not outgrow the largest found if every later vertex
    joined it.  A vertex's neighbour mask is built when the walk first goes on
    past a set that it joined, so a walk that stops at its first vertex builds
    none."""
    touched = sorted({v for edge in g.edges for v in edge})  # relabelled 0.. in order
    isolated = g.n - len(touched)
    if isolated >= cap:
        return cap
    label = {v: i for i, v in enumerate(touched)}
    neighbours: "dict[int, list[int]]" = {}
    for u, v in g.edges:
        neighbours.setdefault(label[u], []).append(label[v])
        neighbours.setdefault(label[v], []).append(label[u])
    cap -= isolated
    masks: "dict[int, int]" = {}
    best = 0
    stack = [(0, (1 << len(touched)) - 1)]  # (size of a stable set, later vertices that may join it)
    while stack:
        size, later = stack.pop()
        if size + later.bit_count() <= best:
            continue
        low = later & -later
        later ^= low
        stack.append((size, later))  # the sets that skip this vertex, after those that take it
        if size + 1 > best:
            best = size + 1
            if best == cap:
                break
        v = low.bit_length() - 1
        if v not in masks:
            masks[v] = sum(1 << w for w in neighbours[v])
        stack.append((size + 1, later & ~masks[v]))
    return isolated + best
