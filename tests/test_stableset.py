import math
import random
import re
from fractions import Fraction

import pytest

from simplex_grid_opt import (
    Graph,
    GridTooLargeError,
    alpha_lower_bound,
    evaluate,
    exact_alpha,
    grid_minimize,
    parse_graph_text,
    stableset,
)
from strats import (
    brute_force_alpha, complete_graph, greedy_stable_set, motzkin_straus_form, petersen, random_graph,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    g = Graph(3, [(2, 1), (1, 2)])
    assert g.edges == frozenset({(1, 2)})


def test_parse_edge_list_with_dimacs_noise():
    text = """
    c a comment line
    p edge 5 3
    1 2
    e 2 3
    4 5
    """
    g = parse_graph_text(text)
    assert g.n == 5
    assert g.edges == frozenset({(1, 2), (2, 3), (4, 5)})


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_graph_text("1 2 3")
    with pytest.raises(ValueError):
        parse_graph_text("a b")
    with pytest.raises(ValueError):
        parse_graph_text("c only comments")


def test_motzkin_straus_form_examples():
    empty = Graph(3, [])
    f = motzkin_straus_form(empty)
    assert f.coeffs == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}

    edge = motzkin_straus_form(Graph(2, [(1, 2)]))
    assert edge.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    # (x1 + x2)^2 is 1 everywhere on the simplex
    assert grid_minimize(edge, 5).value == 1

    k3 = motzkin_straus_form(complete_graph(3))
    assert grid_minimize(k3, 4).value == 1


def test_alpha_lower_bound_examples():
    empty = Graph(4, [])
    bound = alpha_lower_bound(empty, 4)
    assert bound.grid_value == Fraction(1, 4)
    assert bound.alpha_lb == 4

    for n in (3, 5):
        bound = alpha_lower_bound(complete_graph(n), 3)
        assert bound.grid_value == 1
        assert bound.alpha_lb == 1


def test_alpha_lower_bound_bounds_the_form_before_building_it():
    # no vertex form is built: 10^8 vertices make 10^8 grid points at r = 1, within the budget
    assert alpha_lower_bound(Graph(10**8, []), 1).alpha_lb == 1
    g = petersen()  # 10 grid points at r = 1
    assert alpha_lower_bound(g, 1, max_points=249).alpha_lb == 1
    with pytest.raises(GridTooLargeError):
        alpha_lower_bound(g, 1, max_points=9)
    with pytest.raises(GridTooLargeError):
        alpha_lower_bound(g, 4, max_points=714)  # 715 grid points
    assert alpha_lower_bound(g, 4, max_points=715).alpha_lb == 4


_NOT_INTEGERS = {
    "alpha-r-bool": (lambda g: alpha_lower_bound(g, True), "True"),
    "alpha-r-float": (lambda g: alpha_lower_bound(g, 2.0), "2.0"),
    "alpha-r-str": (lambda g: alpha_lower_bound(g, "3"), "'3'"),
    "alpha-max-points-float": (lambda g: alpha_lower_bound(g, 3, max_points=10.5), "10.5"),
    "alpha-max-points-bool": (lambda g: alpha_lower_bound(g, 3, max_points=True), "True"),
    "exact-max-vertices-float": (lambda g: exact_alpha(g, max_vertices=2.5), "2.5"),
    "exact-max-vertices-whole-float": (lambda g: exact_alpha(g, max_vertices=10.0), "10.0"),
}


@pytest.mark.parametrize("call, message", _NOT_INTEGERS.values(), ids=_NOT_INTEGERS.keys())
def test_an_integer_parameter_of_stable_set_that_is_no_integer_is_refused_before_any_search(
        monkeypatch, call, message):
    # r, max_points and max_vertices go through rational._as_int, which names the
    # value, where they once ran (r=True, max_vertices=10.0), failed somewhere
    # unrelated (r=2.0, r="3"), or were echoed or compared (max_points=10.5,
    # max_vertices=2.5)
    monkeypatch.setattr(stableset, "_stability", lambda *args: pytest.fail("a search ran"))
    with pytest.raises(TypeError, match=f"^{re.escape(f'expected an integer, got {message}')}$"):
        call(Graph(5, [(1, 2), (2, 3)]))


def test_petersen_bound_matches_exact_alpha():
    g = petersen()
    bound = alpha_lower_bound(g, 4)
    assert bound.grid_value == Fraction(1, 4)
    assert bound.alpha_lb == 4
    assert bound.evaluations == 715
    assert exact_alpha(g) == 4


def test_exact_alpha_small_cases():
    assert exact_alpha(Graph(1, [])) == 1
    assert exact_alpha(complete_graph(5)) == 1
    assert exact_alpha(Graph(4, [])) == 4
    path = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert exact_alpha(path) == 3
    cycle5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert exact_alpha(cycle5) == 2


def test_exact_alpha_refuses_large_graphs():
    with pytest.raises(ValueError):
        exact_alpha(Graph(30, []), max_vertices=25)


def test_greedy_stable_set_is_stable_and_bounds_grid_value():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        chosen = greedy_stable_set(g)
        assert chosen
        assert all((min(u, v), max(u, v)) not in g.edges for u in chosen for v in chosen if u != v)
        # the uniform point on the stable set is a grid point at r = |S|
        s = len(chosen)
        assert grid_minimize(motzkin_straus_form(g), s).value <= Fraction(1, s)


def test_alpha_lower_bound_never_exceeds_truth():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 10)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.35
        ]
        g = Graph(n, edges)
        truth = exact_alpha(g)
        for r in (1, 2, 3, 4):
            assert alpha_lower_bound(g, r).alpha_lb <= truth


def test_alpha_lower_bound_improves_on_r_multiples():
    g = petersen()
    for r, mult in [(1, 2), (2, 2), (2, 3), (4, 2)]:
        low = alpha_lower_bound(g, r).alpha_lb
        high = alpha_lower_bound(g, r * mult).alpha_lb
        assert high >= low


def test_uniform_point_on_stable_set_certifies_value():
    g = petersen()
    f = motzkin_straus_form(g)
    stable = (1, 3, 9, 10)  # pairwise non-adjacent in this labeling
    x = tuple(Fraction(1, 4) if v in stable else Fraction(0) for v in range(1, 11))
    assert evaluate(f, x) == Fraction(1, 4)


def test_alpha_lower_bound_equals_the_grid_minimum_of_the_form():
    # the closed form B(min(alpha, r), r) / r^2 against a sweep of x^T (I + A) x
    rng = random.Random(16)
    graphs = []
    for seed in range(300):
        n = rng.randint(1, 9)
        graphs.append((random_graph(seed, n, rng.randint(0, n * (n - 1) // 2)), rng.randint(1, 12)))
    graphs += [(petersen(), r) for r in range(1, 13)]
    graphs += [(complete_graph(n), r) for n in (1, 2, 5, 9) for r in (1, 2, 7, 12)]
    graphs += [(Graph(n, []), r) for n in (1, 2, 5, 9) for r in (1, 2, 7, 12)]
    signs = set()
    for g, r in graphs:
        signs.add(exact_alpha(g) < r)
        swept = grid_minimize(motzkin_straus_form(g), r)
        bound = alpha_lower_bound(g, r)
        assert bound.grid_value == swept.value, (g, r)
        assert bound.alpha_lb == math.ceil(1 / swept.value)
        assert bound.evaluations == swept.evaluations
    assert signs == {True, False}


def test_exact_alpha_matches_a_subset_scan():
    rng = random.Random(17)
    for seed in range(200):
        n = rng.randint(1, 10)
        g = random_graph(seed, n, rng.randint(0, n * (n - 1) // 2))
        assert exact_alpha(g) == brute_force_alpha(g)
    assert [exact_alpha(complete_graph(n)) for n in (1, 4, 10)] == [1, 1, 1]
    assert exact_alpha(Graph(10, [])) == 10


def test_isolated_vertices_are_counted_not_walked():
    # edges among a random subset of the vertices, the rest isolated and spread
    # among them; min(alpha, cap) for every cap against the subset scan
    rng = random.Random(18)
    with_isolated = 0
    for seed in range(150):
        n = rng.randint(2, 11)
        touched = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        pairs = [(u, v) for i, u in enumerate(touched) for v in touched[i + 1:]]
        g = Graph(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        with_isolated += len({v for edge in g.edges for v in edge}) < n
        alpha = brute_force_alpha(g)
        assert exact_alpha(g) == alpha, (seed, g)
        for cap in range(1, n + 2):
            assert stableset._stability(g, cap) == min(alpha, cap), (seed, g, cap)
    assert with_isolated > 100
    assert stableset._stability(Graph(5, [(2, 4)]), 9) == 4
    assert stableset._stability(Graph(10**20, []), 7) == 7
