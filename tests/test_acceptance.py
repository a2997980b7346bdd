"""Acceptance suite: one test per criterion, exact rational assertions.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the summary
lines); each test prints one PASS line once its criterion holds at the
stated tolerance, and the stated runtime budgets are enforced.
"""

import json
import random
import time
from fractions import Fraction

from simplex_grid_opt import (
    ALL_KINDS,
    HypergeomParams,
    bound_coefficient,
    compositions,
    expectation,
    exact_alpha,
    grid_minimize,
    alpha_lower_bound,
    random_polynomial,
    run_default_sweeps,
    Graph,
    is_square_free,
)
from simplex_grid_opt.bounds import SQUARE_FREE_KINDS
from simplex_grid_opt.cli import main as cli_main
from strats import (
    DATA_DIR,
    bernstein_table,
    cubic_moments_closed,
    petersen,
    quadratic_moments_closed,
    scaled_moment,
    scaled_moment_bruteforce,
    strict_gap_poly,
    sum_of_squares,
)


def _report(number: int, description: str, started: float, budget: "float | None") -> None:
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_paper_worked_example():
    t0 = time.monotonic()
    f = strict_gap_poly()
    r16 = grid_minimize(f, 16)
    assert r16.value == Fraction(-17, 32)
    assert r16.minimizers == ((7, 9),)
    r2 = grid_minimize(f, 2)
    assert r2.value == Fraction(-1, 2)
    assert r2.minimizers == ((1, 1),)
    assert expectation(f, HypergeomParams(m=16, counts=(7, 9), r=2)) == Fraction(31, 80)
    _report(1, "strict-gap quadratic: grid minima and urn expectation exact", t0, 1.0)


def test_criterion_2_sum_of_squares_tightness():
    t0 = time.monotonic()
    for n in (3, 4, 5):
        f = sum_of_squares(n)
        for r in range(1, n + 1):
            lhs = grid_minimize(f, r).value - Fraction(1, n)
            rhs = Fraction(n - r, r * (n - 1)) * (1 - Fraction(1, n))
            assert lhs == rhs, (n, r)
    _report(2, "sum-of-squares family attains the refined quadratic bound exactly", t0, 1.0)


def test_criterion_3_moment_oracle_equivalence():
    t0 = time.monotonic()
    cases = 0
    for n in (1, 2, 3):
        betas = [beta for total in range(5) for beta in compositions(n, total)]
        for m in range(1, 9):
            for counts in compositions(n, m):
                for r in range(1, m + 1):
                    p = HypergeomParams(m=m, counts=counts, r=r)
                    for beta in betas:
                        assert scaled_moment(p, beta) == scaled_moment_bruteforce(p, beta)
                        cases += 1
    assert cases > 1000
    _report(3, f"Stirling-formula moments equal pmf summation on {cases} tuples", t0, 60.0)


def test_criterion_4_closed_form_moments():
    t0 = time.monotonic()
    checked = 0
    for n in (2, 3):
        for m in range(n, 13):  # positive counts need m >= n
            for counts in compositions(n, m):
                if 0 in counts:
                    continue
                for r in range(1, m + 1):
                    p = HypergeomParams(m=m, counts=counts, r=r)
                    if m >= 2:
                        for (i, j), value in quadratic_moments_closed(p).items():
                            beta = [0] * n
                            beta[i] += 1
                            beta[j] += 1
                            assert value == scaled_moment(p, tuple(beta))
                            checked += 1
                    if m >= 3 and n == 3:
                        for key, value in cubic_moments_closed(p).items():
                            beta = [0] * n
                            for idx in key:
                                beta[idx] += 1
                            assert value == scaled_moment(p, tuple(beta))
                            checked += 1
    assert checked > 1000
    _report(4, f"closed-form degree-2/3 moments equal the general formula on {checked} indices", t0, None)


def test_criterion_5_identity_sweeps():
    t0 = time.monotonic()
    checks = list(run_default_sweeps(max_n=3, max_d=4, max_m=8, max_k=4, max_r=30, samples=25, seed=0))
    by_name: dict = {}
    failures = []
    for check in checks:
        by_name[check.name] = by_name.get(check.name, 0) + 1
        if not check.holds:
            failures.append(check)
    assert not failures, failures[:5]
    # every family must actually have been swept
    for name in (
        "STIRLING_SUM", "STIRLING_MULTI", "VANDERMONDE_CHU", "MULTINOMIAL",
        "KMR", "SIGMA", "PHI", "A_BETA_NONNEG", "A_BETA_SUM", "MOMENT_DECOMPOSITION",
    ):
        assert by_name.get(name, 0) > 0, name
    _report(5, f"all {len(checks)} identity checks hold exactly", t0, 300.0)


def test_criterion_6_bound_soundness_random_polynomials():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    violations = 0
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        d = rng.randint(1, 3)
        f = random_polynomial(rng, n, d)
        grid_values = {r: grid_minimize(f, r).value for r in range(1, 9)}
        table = bernstein_table(f)
        range_bound = table.max_coeff - table.min_coeff  # certified upper bound on the range
        square_free = is_square_free(f)
        for m in range(1, 9):
            for r in range(1, m + 1):
                lhs = grid_values[r] - grid_values[m]
                for kind in ALL_KINDS:
                    if kind in SQUARE_FREE_KINDS and not square_free:
                        continue
                    report = bound_coefficient(kind, d=d, r=r, m=m)
                    if not report.applicable:
                        continue
                    checked += 1
                    if lhs > report.coefficient * range_bound:
                        violations += 1
    assert checked > 10000
    assert violations == 0
    _report(6, f"{checked} bound witnesses on 100 random polynomials, zero violations", t0, None)


def test_criterion_7_quadratic_rate_for_sum_of_squares():
    t0 = time.monotonic()
    f = sum_of_squares(4)
    m = 4
    fmin = Fraction(1, 4)
    frange = Fraction(3, 4)
    for r in range(5, 41):
        err = grid_minimize(f, r).value - fmin
        assert err * r * r / frange <= m, r
    for r in range(1, m + 1):
        assert bound_coefficient("QUAD_REFINED", d=2, r=r, m=m).coefficient <= Fraction(1, r)
    for r in range(m, 41):
        assert bound_coefficient("QUAD_DENOM", d=2, r=r, m=m).coefficient <= Fraction(1, r)
    _report(7, "normalized error times r^2 stays below the denominator for r = 5..40", t0, None)


def test_criterion_8_motzkin_straus():
    t0 = time.monotonic()
    g = petersen()
    bound = alpha_lower_bound(g, 4)
    assert bound.grid_value == Fraction(1, 4)
    assert bound.alpha_lb == 4
    assert exact_alpha(g) == 4

    empty = Graph(4, [])
    b_empty = alpha_lower_bound(empty, 4)
    assert (b_empty.grid_value, b_empty.alpha_lb) == (Fraction(1, 4), 4)
    assert exact_alpha(empty) == 4

    complete = Graph(5, [(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
    b_complete = alpha_lower_bound(complete, 3)
    assert (b_complete.grid_value, b_complete.alpha_lb) == (Fraction(1), 1)
    assert exact_alpha(complete) == 1
    _report(8, "stability bounds exact on Petersen, empty, and complete graphs", t0, 1.0)


def test_criterion_9_thread_determinism(capsys):
    t0 = time.monotonic()
    poly = str(DATA_DIR / "sum_of_squares_n4.json")  # r=2 has 4 tied minimizers
    outputs = []
    for threads in ("1", "8"):
        code = cli_main(["grid-min", "--poly", poly, "--r", "2", "--threads", threads])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["tie_count"] >= 2
    with capsys.disabled():
        _report(9, "grid-min output is byte-identical across thread counts", t0, None)
