"""Seeded op streams for the three benchmark workloads, and the oracle for each op.

An op is one `sgo` invocation: an argv for `simplex_grid_opt.cli.main` plus the
input files it reads.  Op `i` of a workload uses the slot `SLOTS[i % len(SLOTS)]`,
which fixes the verb, the shape (n, d, term count, r, flags); the seed and `i`
pick the data (coefficients, support, graph edges, the verify `--seed`).  So
each cycle of len(SLOTS) ops costs about the same on every seed, and no two
ops share an input.

Every op gets a structural oracle.  A seeded sample also gets the naive one:
a term-by-term exact scan of `combin.compositions`.  Oracles return a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from simplex_grid_opt import combin, poly

DEFAULT_SEED = 0
NAIVE_SAMPLE_RATE = 0.1  # share of sweep ops checked against the naive scan


@dataclass
class Op:
    index: int
    slot: int
    argv: "list[str]"
    files: "dict[str, str]" = field(default_factory=dict)  # path -> content
    oracle: "Callable[[object], list[str]]" = lambda obj: []  # parsed stdout -> problems
    naive: bool = False  # whether the oracle includes the naive scan


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# --- inputs --------------------------------------------------------------------


def random_terms(rng: random.Random, n: int, d: int, count: int) -> "list[tuple[tuple[int, ...], Fraction]]":
    """`count` distinct monomials of I(n, d) with nonzero small rational coefficients."""
    support = sorted(rng.sample(list(combin.compositions(n, d)), count))
    terms = []
    for alpha in support:
        num = rng.choice([c for c in range(-9, 10) if c])
        terms.append((alpha, Fraction(num, rng.choice((1, 1, 1, 2, 3, 4)))))
    return terms


def poly_json(n: int, d: int, terms) -> str:
    return json.dumps(
        {"n": n, "degree": d, "terms": [{"alpha": list(a), "coef": str(c)} for a, c in terms]}
    )


def random_edges(rng: random.Random, n: int, count: int) -> "list[tuple[int, int]]":
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return sorted(rng.sample(pairs, count))


def motzkin_straus_terms(n: int, edges) -> "list[tuple[tuple[int, ...], Fraction]]":
    """x^T (I + A) x written out by hand, independently of the program."""
    terms = [(tuple(2 * (j == i) for j in range(n)), Fraction(1)) for i in range(n)]
    for u, v in edges:
        terms.append((tuple(int(j + 1 in (u, v)) for j in range(n)), Fraction(2)))
    return terms


# --- the naive evaluator -------------------------------------------------------


def naive_extrema(n: int, r: int, terms):
    """Exact grid minimum and maximum of sum(c * x^alpha) over I(n, r)/r.

    Scans `combin.compositions` in lex order and evaluates every term of every
    point in integers (denominators cleared).  Returns
    ((min value, lex-first minimizers up to 16, ties), (max value, ...)).
    """
    scale = math.lcm(*(c.denominator for _, c in terms))
    int_terms = [(int(c * scale), alpha) for alpha, c in terms]
    best = {+1: None, -1: None}
    hits = {+1: [], -1: []}
    ties = {+1: 0, -1: 0}
    for point in combin.compositions(n, r):
        value = 0
        for c, alpha in int_terms:
            t = c
            for x, a in zip(point, alpha):
                if a:
                    t *= x**a
            value += t
        for sign in (+1, -1):
            v = sign * value
            if best[sign] is None or v < best[sign]:
                best[sign], hits[sign], ties[sign] = v, [point], 1
            elif v == best[sign]:
                ties[sign] += 1
                if len(hits[sign]) < 16:
                    hits[sign].append(point)
    d = sum(terms[0][0])
    return tuple(
        (Fraction(sign * best[sign], scale * r**d), hits[sign], ties[sign]) for sign in (+1, -1)
    )


def _point_str(alpha, r: int) -> str:
    return ",".join(str(Fraction(a, r)) for a in alpha)


def _expect(problems: "list[str]", what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# --- sweep ---------------------------------------------------------------------

# (verb, n, d, terms or edges, r, elevation); n 4-6 dense polynomials with 20-70
# terms, and Motzkin-Straus forms of graphs on 10-12 vertices; 15k-92k points each.
SWEEP_SLOTS = (
    ("grid-min", 4, 4, 30, 50, 0),
    ("stable-set", 12, 2, 30, 7, 0),
    ("grid-max", 5, 3, 30, 30, 0),
    ("enclose", 4, 3, 20, 50, 1),
    ("grid-min", 6, 3, 50, 16, 0),
    ("stable-set", 10, 2, 22, 9, 0),
    ("grid-min", 5, 4, 70, 24, 0),
    ("enclose", 5, 3, 35, 22, 2),
    ("stable-set", 11, 2, 27, 8, 0),
    ("grid-max", 6, 4, 60, 15, 0),
    ("grid-min", 4, 4, 35, 80, 0),
)


def _check_extremum(obj, verb, n, d, r, terms, naive) -> "list[str]":
    problems: "list[str]" = []
    _expect(problems, "evaluations", obj.get("evaluations"), combin.composition_count(n, r))
    f = poly.HomogeneousPolynomial.from_terms(n, terms, d=d)
    value = Fraction(obj["value"])
    points = obj["minimizers"]
    _expect(problems, "minimizer count", len(points), min(obj["tie_count"], 16))
    for text in points:
        x = tuple(Fraction(t) for t in text.split(","))
        if sum(x) != 1 or any(v < 0 or (v * r).denominator != 1 for v in x):
            problems.append(f"minimizer {text} is not on the grid r={r}")
        elif poly.evaluate(f, x) != value:
            problems.append(f"f({text}) = {poly.evaluate(f, x)} differs from value {value}")
    if naive:
        lo, hi = naive_extrema(n, r, terms)
        want_value, want_hits, want_ties = lo if verb == "grid-min" else hi
        _expect(problems, "naive value", value, want_value)
        _expect(problems, "naive minimizers", points, [_point_str(a, r) for a in want_hits])
        _expect(problems, "naive tie_count", obj["tie_count"], want_ties)
    return problems


def _check_enclose(obj, n, r, terms, naive) -> "list[str]":
    problems: "list[str]" = []
    fmin = (Fraction(obj["fmin"]["lo"]), Fraction(obj["fmin"]["hi"]))
    fmax = (Fraction(obj["fmax"]["lo"]), Fraction(obj["fmax"]["hi"]))
    if not (fmin[0] <= fmin[1] <= fmax[0] <= fmax[1]):
        problems.append(f"enclosures out of order: fmin {fmin}, fmax {fmax}")
    if naive:
        lo, hi = naive_extrema(n, r, terms)
        _expect(problems, "naive grid minimum", fmin[1], lo[0])
        _expect(problems, "naive grid maximum", fmax[0], hi[0])
    return problems


def _check_stable_set(obj, n, r, edges, naive) -> "list[str]":
    problems: "list[str]" = []
    _expect(problems, "evaluations", obj.get("evaluations"), combin.composition_count(n, r))
    _expect(problems, "edges", obj.get("edges"), len(edges))
    value = Fraction(obj["grid_value"])
    _expect(problems, "alpha_lb", obj.get("alpha_lb"), math.ceil(1 / value) if value > 0 else None)
    if naive:
        lo, _ = naive_extrema(n, r, motzkin_straus_terms(n, edges))
        _expect(problems, "naive grid value", value, lo[0])
    return problems


def sweep_op(seed: int, index: int, input_dir: str) -> Op:
    slot = index % len(SWEEP_SLOTS)
    verb, n, d, size, r, elevation = SWEEP_SLOTS[slot]
    rng = _rng("sweep", seed, index)
    naive = rng.random() < NAIVE_SAMPLE_RATE
    if verb == "stable-set":
        edges = random_edges(rng, n, size)
        path = f"{input_dir}/op{index}.edges"
        text = f"p edge {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        argv = [verb, "--graph", path, "--r", str(r)]
        oracle = lambda obj: _check_stable_set(obj, n, r, edges, naive)
    else:
        terms = random_terms(rng, n, d, size)
        path = f"{input_dir}/op{index}.json"
        text = poly_json(n, d, terms)
        argv = [verb, "--poly", path, "--r", str(r)]
        if verb == "enclose":
            argv += ["--elevation", str(elevation)]
            oracle = lambda obj: _check_enclose(obj, n, r, terms, naive)
        else:
            oracle = lambda obj: _check_extremum(obj, verb, n, d, r, terms, naive)
    return Op(index, slot, argv, {path: text}, oracle=oracle, naive=naive)


# --- converge ------------------------------------------------------------------

# (n, d, terms, R, grid, elevation) for random polynomials over --r-range 2:R;
# d = None marks the sum-of-squares family, run with assumed denominators.
CONVERGE_SLOTS = (
    (4, 3, 20, 16, 8, 0),
    (3, 3, 10, 30, 10, 1),
    (4, None, None, 32, None, 0),
    (4, 2, 10, 24, 6, 2),
    (4, 3, 20, 20, None, 1),
    (3, None, None, 60, None, 0),
    (4, 2, 10, 28, 12, 0),
    (4, 3, 18, 12, 9, 2),
    (5, None, None, 20, None, 0),
)


def sos_family_terms(n: int, a: Fraction, b: Fraction):
    """a * sum x_i^2 + b * (sum x_i)^2: minimum a/n + b at the barycentre, maximum a + b at vertices."""
    terms = [(tuple(2 * (j == i) for j in range(n)), a + b) for i in range(n)]
    for i in range(n):
        for k in range(i + 1, n):
            terms.append((tuple(int(j in (i, k)) for j in range(n)), 2 * b))
    return [(alpha, c) for alpha, c in terms if c]


def sos_grid_min(n: int, a: Fraction, b: Fraction, r: int) -> Fraction:
    """Closed form: the most balanced composition of r minimizes sum alpha_i^2."""
    q, s = divmod(r, n)
    return a * Fraction((n - s) * q * q + s * (q + 1) ** 2, r * r) + b


def _check_converge_sos(rows, n, a, b, r_values) -> "list[str]":
    problems: "list[str]" = []
    fmin, fmax = a / n + b, a + b
    for row, r in zip(rows, r_values):
        g = sos_grid_min(n, a, b, r)
        rho = (g - fmin) / (fmax - fmin)
        _expect(problems, f"r={r} grid_min", row["grid_min"], str(g))
        _expect(problems, f"r={r} rho", (row["rho_lo"], row["rho_hi"]), (str(rho), str(rho)))
    return problems


def _check_converge_random(rows, n, terms, r_check) -> "list[str]":
    problems: "list[str]" = []
    for row in rows:
        if row["rho_lo"] == "degenerate":
            continue
        lo, hi = Fraction(row["rho_lo"]), Fraction(row["rho_hi"])
        if not 0 <= lo <= hi <= 1:
            problems.append(f"r={row['r']}: rho interval [{lo}, {hi}] is not inside [0, 1]")
    (want, _, _), _ = naive_extrema(n, r_check, terms)
    _expect(problems, f"naive grid_min at r={r_check}", rows[r_check - 2]["grid_min"], str(want))
    return problems


def converge_op(seed: int, index: int, input_dir: str) -> Op:
    slot = index % len(CONVERGE_SLOTS)
    n, d, size, top, grid_r, elevation = CONVERGE_SLOTS[slot]
    rng = _rng("converge", seed, index)
    r_values = list(range(2, top + 1))
    path = f"{input_dir}/op{index}.json"
    argv = ["converge", "--poly", path, "--r-range", f"2:{top}"]
    if d is None:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        text = poly_json(n, 2, sos_family_terms(n, a, b))
        argv += ["--assume-min-denominator", str(n), "--assume-max-denominator", "1"]
        check = lambda rows: _check_converge_sos(rows, n, a, b, r_values)
    else:
        terms = random_terms(rng, n, d, size)
        text = poly_json(n, d, terms)
        r_check = rng.choice(r_values)
        if grid_r is not None:
            argv += ["--grid", str(grid_r)]
        if elevation:
            argv += ["--elevation", str(elevation)]
        check = lambda rows: _check_converge_random(rows, n, terms, r_check)

    def oracle(rows) -> "list[str]":
        if [row.get("r") for row in rows] != r_values:
            return [f"rows cover r={[row.get('r') for row in rows]}, expected {r_values}"]
        return check(rows)

    return Op(index, slot, argv, {path: text}, oracle=oracle, naive=d is not None)


# --- verify --------------------------------------------------------------------

# (max_m, max_d) of each verify op; every other option stays at its default.
# (8, 4) is left out: at 2.4 s it would take a third of each cycle.
VERIFY_SLOTS = ((6, 3), (7, 3), (6, 4), (8, 3))


def _check_verify(obj) -> "list[str]":
    problems: "list[str]" = []
    _expect(problems, "failures", obj.get("failures"), 0)
    _expect(problems, "total", obj.get("total"), len(obj.get("checks", ())))
    failing = [c["name"] for c in obj.get("checks", ()) if c.get("holds") != "true"]
    if failing:
        problems.append(f"{len(failing)} checks do not hold, first {failing[0]}")
    return problems


def verify_op(seed: int, index: int, input_dir: str) -> Op:
    slot = index % len(VERIFY_SLOTS)
    max_m, max_d = VERIFY_SLOTS[slot]
    op_seed = _rng("verify", seed, index).randrange(10**6)
    argv = ["verify", "--seed", str(op_seed), "--max-m", str(max_m), "--max-d", str(max_d)]
    return Op(index, slot, argv, oracle=_check_verify)


@dataclass(frozen=True)
class Workload:
    slots: tuple
    make_op: "Callable[[int, int, str], Op]"
    work: "Callable[[object], int]"  # units of work in one op's parsed stdout
    cycle_ref_s: float  # reference seconds of one untraced cycle when the benchmark was added


WORKLOADS = {
    # grid points from stdout `evaluations` (enclose reports none), rows, checks
    "sweep": Workload(SWEEP_SLOTS, sweep_op, lambda obj: obj.get("evaluations", 0), 3.5),
    "converge": Workload(CONVERGE_SLOTS, converge_op, len, 2.2),
    "verify": Workload(VERIFY_SLOTS, verify_op, lambda obj: obj["total"], 5.7),
}


def sweep_shapes() -> "list[tuple[int, int]]":
    """The (n, r) grid shapes one sweep cycle covers, for the enumeration microbenchmark."""
    return [(n, r) for _, n, _, _, r, _ in SWEEP_SLOTS]
