#!/usr/bin/env python3
"""Mutation audit: check that the tests kill a reviewed list of mutants.

Each mutant names a file, an original text that occurs exactly once in it,
the replacement, and the test files expected to kill it.  For each mutant the
tree is copied to a temporary directory, the one replacement is made there,
and only the named test files run, with `pytest -x`.  Each distinct set of
test files first runs once on an unmutated copy.  A mutant is killed when
pytest reports a failed test (exit 1) or runs past the timeout, survives when
every test passes (exit 0), and is invalid otherwise: its original text is
not found once, its test files do not pass on the unmutated copy, or pytest
cannot collect or run them.  Equivalent mutants, which no test can kill, are
listed with the reason and not run.

The checkout itself is never modified.  The script needs only the standard
library and the test dependencies (pytest, hypothesis).

Usage: python scripts/mutation_audit.py
Exits 0 when every mutant run is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
GRID = "src/simplex_grid_opt/grid.py"
CLI = "src/simplex_grid_opt/cli.py"
BOUNDS = "src/simplex_grid_opt/bounds.py"
RATIONAL = "src/simplex_grid_opt/rational.py"
HYPERGEOM = "src/simplex_grid_opt/hypergeom.py"
IDENTITIES = "src/simplex_grid_opt/identities.py"
COMBIN = "src/simplex_grid_opt/combin.py"
TIMEOUT = 900  # seconds for one pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    original: str  # occurs exactly once in path
    replacement: str
    tests: "tuple[str, ...]"  # test files expected to kill it
    equivalent: "str | None" = None  # why no test can kill it; then it is not run


# bounds._witness_rows's gap per (r, m), from the plan's extremes at r and m
_GAP = """(x, _, y), (u, _, v) = plan.extremes(r), plan.extremes(m)
        gap = (x * v - u * y, y * v)
"""

# bounds._converge_rows's guard on the total of its grids, then on its rows
_TOTAL_GUARD = """    if max_points is not None and total > max_points:
        raise GridTooLargeError(
            f"the grids to sweep have {decimal_str(total)} points in all, budget is {max_points}"
        )
"""
_ROWS_GUARD = """    count = _length(r_values)
    if count > _MAX_BOUND_ROWS:
        raise ValueError(
            f"converge would print {decimal_str(count)} rows, more than {_MAX_BOUND_ROWS}"
        )
"""

MUTANTS = (
    # the Bernstein table builder (grid._bernstein_columns)
    Mutant("columns-vertices-not-preseeded", GRID,
           "fields = {d * u: j for j, u in enumerate(unit)}", "fields = {}",
           ("tests/test_grid.py",)),
    Mutant("columns-empty-field-dropped", GRID,
           "        sizes.append(2)\n", "        pass\n",
           ("tests/test_grid.py",)),
    Mutant("columns-size-from-kappa-alone", GRID,
           "                for j, b in sparse:\n                    g[j] = g.get(j, 0) + b\n", "",
           ("tests/test_grid.py",)),
    Mutant("columns-weight-one", GRID,
           "[weight for _, weight, _ in offsets[e]]", "[1 for _ in offsets[e]]",
           ("tests/test_grid.py",)),
    # the sweep engine: extremes, closed-form rows, node tests, thread chunks, guards
    Mutant("take-ignores-kept-points", GRID,
           "islice(points, self.cap - len(self.points))", "islice(points, self.cap)",
           ("tests/test_grid.py",)),
    Mutant("quadratic-drops-the-tie-at-v-plus-1", GRID,
           "hits = (v, v + 1) if v < s and t1 + t2 * v == 0 else (v,)", "hits = (v,)",
           ("tests/test_grid.py",)),
    Mutant("packed-test-not-strict", GRID,
           "self.ones = ones - self.bias", "self.ones = -self.bias",
           ("tests/test_grid.py",)),
    Mutant("tail-pretest-not-strict", GRID,
           "tail <= low.value or high is not None and tail >= high.value",
           "tail < low.value or high is not None and tail > high.value",
           ("tests/test_grid.py",)),
    Mutant("chunks-cut-one-alpha0-early", GRID,
           "bisect_left(cum, total * i) + 1", "bisect_left(cum, total * i)",
           ("tests/test_grid.py",)),
    Mutant("field-width-one-bit-short", GRID,
           "return bound.bit_length() + 1", "return bound.bit_length()",
           ("tests/test_grid.py",)),
    Mutant("row-bound-binary-form-one-list", GRID,
           "lists = min(r, e) + 1", "lists = 1",
           ("tests/test_grid.py",)),
    # verify's one writing loop (cli.cmd_verify)
    Mutant("verify-stops-counting-failures", CLI,
           "failures += not check.holds", "failures += 0",
           ("tests/test_cli.py",)),
    Mutant("verify-csv-holds-inverted", CLI,
           "check.relation, holds))", 'check.relation, "false" if check.holds else "true"))',
           ("tests/test_cli.py",)),
    Mutant("verify-json-lead-never-set", CLI,
           "}}')\n            lead = \",\"\n", "}}')\n",
           ("tests/test_cli.py",)),
    # one plan per polynomial, swept at many r (grid._sweep): what depends on r
    # made once, from the first r a plan is swept at
    Mutant("sweep-starts-from-first-r", GRID,
           "starts = [pick(plan.vertices) * top for pick in picks]",
           "starts = _sweep.__dict__.setdefault((id(plan), picks), "
           "[pick(plan.vertices) * top for pick in picks])",
           ("tests/test_grid.py",)),
    Mutant("sweep-width-from-first-r", GRID,
           "w = _field_width(plan.root, n, d, r)",
           "w = _sweep.__dict__.setdefault(id(plan), _field_width(plan.root, n, d, r))",
           ("tests/test_grid.py",)),
    # converge's rows from integer pairs (bounds._rho, bounds._refute) and its
    # guards (bounds._converge_rows)
    Mutant("rho-interval-uncapped", BOUNDS,
           "*((1, 1) if hi_num >= hi_den else (hi_num, hi_den)))", "hi_num, hi_den)",
           ("tests/test_bounds.py",)),
    Mutant("refute-min-not-strict", BOUNDS,
           "if low * b < a * den:", "if low * b <= a * den:",
           ("tests/test_bounds.py",)),
    Mutant("refute-max-not-strict", BOUNDS,
           "if high * q > p * den:", "if high * q >= p * den:",
           ("tests/test_bounds.py",)),
    # killed by test_converge_guard_counts_every_grid_once_up_to_the_budget and
    # test_converge_guards_the_total_of_its_grids
    Mutant("converge-guard-sums-from-lo-plus-1", BOUNDS,
           "composition_count(n + 1, hi) - composition_count(n + 1, lo - 1)",
           "composition_count(n + 1, hi) - composition_count(n + 1, lo)",
           ("tests/test_cli.py",)),
    # killed by test_converge_refuses_a_huge_range_at_once, which then exits 2, not 3
    Mutant("converge-rows-bound-before-total-guard", BOUNDS,
           _TOTAL_GUARD + _ROWS_GUARD, _ROWS_GUARD + _TOTAL_GUARD,
           ("tests/test_cli.py",)),
    # the one decimal context (rational._DECIMAL, rational._decimal_ratio)
    Mutant("decimal-str-rounds-half-up", RATIONAL,
           "rounding=ROUND_HALF_EVEN", 'rounding="ROUND_HALF_UP"',
           ("tests/test_poly.py",)),
    Mutant("decimal-context-default-exponents", RATIONAL,
           "Emax=MAX_EMAX, Emin=MIN_EMIN,", "",
           ("tests/test_poly.py",)),
    Mutant("decimal-str-reads-thread-context", RATIONAL,
           "return _DECIMAL.to_sci_string(_DECIMAL.divide(Decimal(num), Decimal(den)))",
           "return str(_DECIMAL.divide(Decimal(num), Decimal(den)))",
           ("tests/test_poly.py",)),
    # integer parameters (rational._as_int)
    Mutant("as-int-truncates", RATIONAL,
           "    if isinstance(value, bool) or not hasattr(type(value), \"__index__\"):\n"
           "        raise TypeError(f\"expected an integer, got {_shown(value, repr)}\")\n"
           "    return index(value)\n",
           "    return int(value)\n",
           ("tests/test_poly.py",)),
    # integer parameters of combin: falling-skips-as-int is killed by the falling
    # cases of test_integer_parameters_refuse_floats_strings_and_bools, and
    # stirling2-checks-after-its-cache by test_stirling2_refuses_a_float_before_its_cache,
    # which asks again once (3, 2) is cached
    Mutant("falling-skips-as-int", COMBIN,
           "    d = _as_int(d)\n    if type(x) is not int and not isinstance(x, Fraction):"
           "  # an int skips isinstance's ABC check\n        x = _as_int(x)\n", "",
           ("tests/test_poly.py",)),
    Mutant("stirling2-checks-after-its-cache", COMBIN,
           "def stirling2(a: int, b: int) -> int:",
           "@lru_cache(maxsize=None)\ndef stirling2(a: int, b: int) -> int:",
           ("tests/test_poly.py",)),
    # what one verify run checks (identities._verify_checks): killed by
    # test_verify_refuses_too_many_checks_before_any_work and
    # test_verify_check_count_matches_the_run, and the zero rule by
    # test_verify_empty_sweep_with_a_fault_checks_the_fault_alone
    Mutant("verify-count-drops-the-witnesses", IDENTITIES,
           "count += witness_polys * len(pairs) * len(bounds.ALL_KINDS)", "count += 0",
           ("tests/test_cli.py",)),
    Mutant("verify-zero-rule-ignores-the-fault", IDENTITIES,
           "if not count and not inject_fault:", "if not count:",
           ("tests/test_cli.py",)),
    # integer parameters of stable-set (stableset.alpha_lower_bound): killed by
    # test_an_integer_parameter_of_stable_set_that_is_no_integer_is_refused_before_any_search
    Mutant("stableset-r-skips-as-int", "src/simplex_grid_opt/stableset.py",
           "    r = _as_int(r)\n", "",
           ("tests/test_stableset.py",)),
    # exact values (rational.as_rational): killed by
    # test_exact_value_helpers_refuse_floats_and_bools
    Mutant("enclosure-reads-with-fraction", RATIONAL,
           "lo, hi = as_rational(lo), as_rational(hi)", "lo, hi = Fraction(lo), Fraction(hi)",
           ("tests/test_poly.py",)),
    # closed forms, guards and small helpers
    Mutant("stableset-remainder-parts-swapped", "src/simplex_grid_opt/stableset.py",
           "(k - t) * q * q + t * (q + 1) ** 2", "t * q * q + (k - t) * (q + 1) ** 2",
           ("tests/test_stableset.py",)),
    Mutant("bounds-length-floors", BOUNDS,
           "max(0, -((values.start - values.stop) // values.step))",
           "max(0, (values.stop - values.start) // values.step)",
           ("tests/test_bounds.py",)),
    Mutant("integer-point-drops-multinomial-weight", IDENTITIES,
           "        term = multinomial(d, alpha)\n", "        term = 1\n",
           ("tests/test_identities.py",)),
    Mutant("option-prefix-takes-an-ambiguous-one", CLI,
           "        if len(matches) == 1:\n", "        if matches:\n",
           ("tests/test_cli.py",)),
    Mutant("attach-values-joins-an-option-name", CLI,
           'value.startswith("-") and _option_action(options, value) is None',
           'value.startswith("-")',
           ("tests/test_cli.py",)),
    # main parses with one parser, built once per process (cli._kept_parser):
    # killed by test_a_process_builds_the_parser_once_for_every_call
    Mutant("parser-built-on-every-call", CLI,
           "    parser = _kept_parser()\n", "    parser = build_parser()\n",
           ("tests/test_cli.py",)),
    # the one Stirling evaluation (hypergeom._stirling_terms): its quotients
    # power(total, K) // power(total, k)
    Mutant("stirling-terms-drop-the-power-ratio", HYPERGEOM,
           "[powers[top] // p for p in powers]", "[1 for p in powers]",
           ("tests/test_hypergeom.py",)),
    Mutant("check-degree-counts-one-more-bit", GRID,
           "(r + 1) * (d + 1) * d * r.bit_length()", "(r + 1) * (d + 1) * d * (r.bit_length() + 1)",
           ("tests/test_grid.py",)),
    # the moment identity's left side as weights (hypergeom._scaled_moments):
    # its quotients per (m, d) and its rows per (c, b) in a sweep
    Mutant("moment-quotient-divides-by-next-falling", HYPERGEOM,
           "return [top // falling(m, k) for k in range(d + 1)]",
           "return [top // falling(m, k + 1) for k in range(d + 1)]",
           ("tests/test_hypergeom.py",)),
    Mutant("stirling-row-cache-keyed-by-color", HYPERGEOM,
           "row = rows.get((c, b))\n            if row is None:\n                row = rows[c, b] = ",
           "row = rows.get(c)\n            if row is None:\n                row = rows[c] = ",
           ("tests/test_identities.py",)),
    # STIRLING_MULTI reads S(b, a) from a table built once per (n, d)
    # (identities.sweep_stirling_multi): killed by every check of the sweep
    # holding, in test_stirling_multi_sweep_tables_each_stirling_number_once_per_n_and_d
    Mutant("stirling-multi-table-indexed-a-b", IDENTITIES,
           "term *= table[bi][ai]", "term *= table[ai][bi]",
           ("tests/test_identities.py",)),
    # the one walk of the rule table (bounds._coefficients): both killed by
    # test_inapplicability_reasons, the needs-m check where m is missing and
    # the first failing condition where two fail
    Mutant("coefficients-skip-the-needs-m-check", BOUNDS,
           "if rule.needs_m and m is None else", "if False else",
           ("tests/test_bounds.py",)),
    Mutant("coefficients-report-the-last-failing-condition", BOUNDS,
           "for holds, text in rule.conditions if not holds(d, r, m)",
           "for holds, text in rule.conditions[::-1] if not holds(d, r, m)",
           ("tests/test_bounds.py",)),
    # the one plan builder (bounds._enclosures) admits the enclosures' own
    # grids: killed by test_range_enclosures_refuses_every_grid_before_any_sweep
    Mutant("enclosures-plan-leaves-out-the-swept-denominators", BOUNDS,
           "_Plan(f, list(dict.fromkeys([*grids, *swept])), threads, max_points)",
           "_Plan(f, list(dict.fromkeys(grids)), threads, max_points)",
           ("tests/test_bounds.py",)),
    # the bound witnesses from integer pairs (bounds._witness_rows)
    Mutant("witness-gap-reads-r-for-m", BOUNDS, _GAP,
           _GAP.replace("plan.extremes(m)", "plan.extremes(r)"),
           ("tests/test_bounds.py",)),
    Mutant("witness-holds-strict", BOUNDS,
           "gap[0] * rhs[1] <= rhs[0] * gap[1]", "gap[0] * rhs[1] < rhs[0] * gap[1]",
           ("tests/test_bounds.py",)),
    Mutant("witness-grids-not-checked-first", BOUNDS,
           "grids = [x for entry in table for x in entry[2:4]]", "grids = []",
           ("tests/test_bounds.py",)),
    # a sweep plan admits every grid it will sweep before any table (grid._Plan)
    Mutant("plan-bounds-at-smallest-denominator", GRID,
           "top = max(denominators, default=None)", "top = min(denominators, default=None)",
           ("tests/test_bounds.py",)),
    Mutant("plan-guards-first-grid-only", GRID,
           "        for r in denominators:\n", "        for r in denominators[:1]:\n",
           ("tests/test_bounds.py",)),
    Mutant("plan-thread-check-dropped", GRID,
           "        if self.threads < 1:\n", "        if False:\n",
           ("tests/test_bounds.py",)),
    # a sweep plan keeps the extremes of each r it sweeps (grid._Plan.extremes),
    # and the enclosures' Bernstein endpoints are pairs (grid._bernstein_extrema)
    Mutant("plan-keeps-no-extremes", GRID,
           "            self.grids[r] = (low.value, high.value, denominator)\n",
           "            return low.value, high.value, denominator\n",
           ("tests/test_grid.py",)),
    Mutant("bernstein-extrema-drop-the-scale", GRID,
           "return (low[0], low[1] * scale), (high[0], high[1] * scale)",
           "return (low[0], low[1]), (high[0], high[1])",
           ("tests/test_bounds.py",)),
    # each table entry of a shape is built once (grid._Lazy)
    Mutant("lazy-entry-not-kept", GRID,
           "value = self[key] = self.build(key)", "value = self.build(key)",
           ("tests/test_cli.py",)),
    # the engine's packed node test, row decoding and quadratic bound
    Mutant("packed-test-any-field", GRID,
           "(p - low.value * sizes - ones) & top == top", "(p - low.value * sizes - ones) & top",
           ("tests/test_grid.py",)),
    Mutant("packed-row-drops-the-top-difference", GRID,
           "- half for shift in self.row_shifts]", "- half for shift in self.row_shifts[:-1]] + [0]",
           ("tests/test_grid.py",)),
    Mutant("diagonal-beats-drops-the-cofactor-sum", GRID,
           "total = total * e + product", "total = total * e",
           ("tests/test_grid.py",)),
    Mutant("quadratic-vertex-tie-not-kept", GRID,
           "if lo is not None and v <= lo or hi is not None and v >= hi:",
           "if lo is not None and v < lo or hi is not None and v >= hi:",
           ("tests/test_grid.py",)),
    Mutant("quadratic-min-side-reads-the-greatest-edge", GRID,
           "not _diagonal_beats(lo, min(edges), vertices)",
           "not _diagonal_beats(lo, max(edges), vertices)",
           ("tests/test_grid.py",)),
    # equivalent mutants
    Mutant("sigma-strict", IDENTITIES,
           "num * rr <= m * c_d * den", "num * rr < m * c_d * den", (),
           equivalent="no SIGMA check of the default sweeps sits at equality"),
    Mutant("bernstein-extrema-if", GRID,
           "        elif p * high[1] > high[0] * size:", "        if p * high[1] > high[0] * size:", (),
           equivalent="a new least coefficient cannot also be a new greatest one"),
)

# what the copy leaves out: caches and build outputs, not sources
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
                                 "out", "build")


def problems(mutant: Mutant, root: Path = ROOT) -> "list[str]":
    """What makes a mutant unusable in the tree at root: an original text that
    does not occur exactly once, a missing test file, a replacement equal to
    the original, or no test file for a mutant that is not equivalent."""
    found = []
    source = root / mutant.path
    count = source.read_text().count(mutant.original) if source.is_file() else 0
    if count != 1:
        found.append(f"{mutant.path}: original text occurs {count} times")
    if mutant.replacement == mutant.original:
        found.append("the replacement is the original")
    if mutant.equivalent is None and not mutant.tests:
        found.append("no test file is named")
    found += [f"{test}: no such test file" for test in mutant.tests if not (root / test).is_file()]
    return found


def pytest(tests: "tuple[str, ...]", mutant: "Mutant | None" = None) -> "tuple[int | None, str]":
    """(pytest's exit code, or None on a timeout; its last line) for the test
    files run on a copy of the tree, with the mutant's replacement made if one
    is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        if mutant is not None:
            source = tree / mutant.path
            source.write_text(source.read_text().replace(mutant.original, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT} s"
    return proc.returncode, (proc.stdout.strip().splitlines() or [""])[-1]


def run(mutant: Mutant, clean: "tuple[int | None, str]") -> "tuple[str, str]":
    """(verdict, detail) for one mutant: killed, survived or invalid; clean is
    what pytest(mutant.tests) gave on the unmutated tree."""
    found = problems(mutant)
    if found:
        return "invalid", "; ".join(found)
    if clean[0] != 0:
        return "invalid", f"unmutated tree: pytest exit {clean[0]}: {clean[1]}"
    code, last = pytest(mutant.tests, mutant)
    if code is None:
        return "killed", last
    return {0: "survived", 1: "killed"}.get(code, "invalid"), f"pytest exit {code}: {last}"


def main() -> int:
    live = [mutant for mutant in MUTANTS if mutant.equivalent is None]
    clean = {tests: pytest(tests) for tests in dict.fromkeys(mutant.tests for mutant in live)}
    for tests, (code, last) in clean.items():
        print(f"{'unmutated':10} {' '.join(tests)}: pytest exit {code}: {last}", flush=True)
    tally = {"killed": 0, "survived": 0, "invalid": 0, "equivalent": 0}
    for mutant in MUTANTS:
        if mutant.equivalent is not None:
            verdict, detail = "equivalent", mutant.equivalent
        else:
            start = time.perf_counter()
            verdict, detail = run(mutant, clean[mutant.tests])
            detail += f" ({time.perf_counter() - start:.0f} s)"
        tally[verdict] += 1
        print(f"{verdict:10} {mutant.name}: {detail}", flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 0 if tally["survived"] == tally["invalid"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
