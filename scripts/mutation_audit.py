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
TIMEOUT = 900  # seconds for one pytest run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    original: str  # occurs exactly once in path
    replacement: str
    tests: "tuple[str, ...]"  # test files expected to kill it
    equivalent: "str | None" = None  # why no test can kill it; then it is not run


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
           "}}')\n                lead = \",\"\n", "}}')\n",
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
    # converge's rows from integer pairs (bounds._rho, bounds._refute,
    # rational._decimal_ratio) and its guard (cli._converge_guard)
    Mutant("rho-interval-uncapped", BOUNDS,
           "*((1, 1) if hi_num >= hi_den else (hi_num, hi_den)))", "hi_num, hi_den)",
           ("tests/test_bounds.py",)),
    Mutant("refute-min-not-strict", BOUNDS,
           "if low * b < a * den:", "if low * b <= a * den:",
           ("tests/test_bounds.py",)),
    Mutant("refute-max-not-strict", BOUNDS,
           "if high * q > p * den:", "if high * q >= p * den:",
           ("tests/test_bounds.py",)),
    Mutant("decimal-str-rounds-half-up", "src/simplex_grid_opt/rational.py",
           "if 2 * rest > den or 2 * rest == den and c & 1:", "if 2 * rest >= den:",
           ("tests/test_poly.py",)),
    Mutant("converge-guard-sums-from-lo-plus-1", CLI,
           "composition_count(n + 1, hi) - composition_count(n + 1, lo - 1)",
           "composition_count(n + 1, hi) - composition_count(n + 1, lo)",
           ("tests/test_cli.py",)),
    # equivalent mutants
    Mutant("sigma-strict", "src/simplex_grid_opt/identities.py",
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
