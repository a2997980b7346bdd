"""Smoke tests: each experiment script runs with its defaults and exits 0;
rate_study.py also reads exact rates off an anchored form."""

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from strats import anchored_extremes

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("petersen_bound.py", "rate_study.py", "strict_gap_demo.py")


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_rate_study_shows_the_inverse_square_rate_of_an_anchored_cubic():
    # f_{q,1} = s sum_i (x_i - q_i s)^2 at q = (1/2, 1/4, 1/8, 1/8): fmin = 0
    # at q and fmax = |e_3 - q|^2 = 35/32, so each row's rho(r) is exact; the
    # grid minimum of every row is the closed-form one, it is 0 where 8 | r,
    # and r^2 rho(r) stays within n/(4 fmax) = 32/35
    q = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rate_study.py"), "--q", "1/2,1/4,1/8,1/8", "--k", "1",
         "--r-max", "24", "--csv"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split(",") for line in proc.stdout.splitlines()]
    assert header == ["r", "grid_min", "rho", "rho_r2", "n_over_4fmax", "ok"]
    assert [int(row[0]) for row in rows] == list(range(1, 25))
    fmax, bound = Fraction(35, 32), Fraction(32, 35)
    for r, value, rho, scaled, limit, ok in rows:
        r, value = int(r), Fraction(value)
        assert value == anchored_extremes(q, r, 1)[0][0]
        assert (Fraction(rho), Fraction(scaled), Fraction(limit)) == (value / fmax, value / fmax * r * r, bound)
        assert ok == "True" and Fraction(scaled) <= bound
        assert (value == 0) == (r % 8 == 0)
    assert max(Fraction(row[3]) for row in rows) == Fraction(19, 35)


@pytest.mark.parametrize("n", [25, 26])
def test_petersen_bound_prints_the_exact_stability_number_unless_exact_alpha_refuses(tmp_path, n):
    # a path on n vertices has alpha = ceil(n / 2); past exact_alpha's vertex
    # limit the script prints the grid bounds alone and still exits 0
    graph = tmp_path / "path.edges"
    graph.write_text("".join(f"{v} {v + 1}\n" for v in range(1, n)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "petersen_bound.py"), "--graph", str(graph),
         "--r-max", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"graph: {n} vertices, {n - 1} edges\n")
    exact = [line for line in proc.stdout.splitlines() if line.startswith("exact")]
    assert exact == (["exact stability number: 13"] if n == 25 else [])


def test_every_audited_mutant_applies_once_to_existing_files():
    # the mutation audit's reviewed list stays in step with the sources: each
    # original text occurs exactly once in its file, each named test file
    # exists, and each mutant that is not equivalent names one; no mutant runs
    spec = importlib.util.spec_from_file_location("mutation_audit", ROOT / "scripts" / "mutation_audit.py")
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    names = [mutant.name for mutant in audit.MUTANTS]
    assert len(set(names)) == len(names) >= 8
    assert {mutant.name: audit.problems(mutant) for mutant in audit.MUTANTS} == {name: [] for name in names}
    assert all(bool(mutant.tests) != bool(mutant.equivalent) for mutant in audit.MUTANTS)
    # a stale original is reported, not run
    stale = audit.MUTANTS[0]._replace(original="no such text", tests=("tests/no_such_test.py",))
    assert audit.problems(stale) == [f"{stale.path}: original text occurs 0 times",
                                     "tests/no_such_test.py: no such test file"]
    assert audit.run(stale, (0, ""))[0] == "invalid"


def test_mutation_audit_calls_a_mutant_invalid_when_its_tests_fail_unmutated(monkeypatch, capsys):
    # a failing test file kills nothing: when the named files already fail on
    # the unmutated tree, every mutant naming them is invalid and none is run;
    # pytest itself is replaced by a stub that reports one failed test
    spec = importlib.util.spec_from_file_location("mutation_audit", ROOT / "scripts" / "mutation_audit.py")
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    runs = []

    def failing_pytest(command, **kwargs):
        runs.append(command)
        return subprocess.CompletedProcess(command, 1, stdout="1 failed\n", stderr="")

    monkeypatch.setattr(audit.subprocess, "run", failing_pytest)
    mutant = audit.MUTANTS[0]
    assert audit.run(mutant, (0, "passed")) == ("killed", "pytest exit 1: 1 failed")
    assert audit.run(mutant, (1, "1 failed")) == ("invalid", "unmutated tree: pytest exit 1: 1 failed")
    assert audit.run(mutant, (None, "timed out"))[0] == "invalid"
    assert len(runs) == 1
    runs.clear()
    assert audit.main() == 1
    live = [mutant for mutant in audit.MUTANTS if mutant.equivalent is None]
    assert len(runs) == len({mutant.tests for mutant in live})  # one unmutated run per set of files
    assert capsys.readouterr().out.splitlines()[-1] == f"0 killed, 0 survived, {len(live)} invalid, " \
        f"{len(audit.MUTANTS) - len(live)} equivalent"


_CODE_LINES_FIXTURE = '''"""A module docstring,
on two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """A class docstring."""

    size = (1 +
            2)

    def area(self):
        """A function docstring,

        with a blank line."""
        text = """a string that is no docstring,
        on two lines"""
        return self.size
'''


def test_code_lines_counts_code_outside_docstrings_comments_and_blank_lines(tmp_path):
    # import, class, the two lines of size, def, the two lines of text and
    # return: 8 code lines; a directory is searched for .py files
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "box.py").write_text(_CODE_LINES_FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path / "pkg")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["8", str(tmp_path / "pkg" / "box.py")], ["0", str(tmp_path / "pkg" / "empty.py")], ["8", "total"]]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("Usage:")


def test_rate_study_refuses_a_one_coordinate_anchor():
    # with one coordinate, fmax = |e_1 - q|^2 = 0 and rho has no scale
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "rate_study.py"), "--q", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "2 or more coordinates" in proc.stderr, proc.stderr
