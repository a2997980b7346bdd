"""Self-tests of the benchmark: failure accounting, oracles, seeded inputs and trace counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

cli = run.load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402


def make_runner(workload: str, tmp_path) -> run.Runner:
    return run.Runner(cli, workloads.WORKLOADS[workload], 0, tmp_path)


def test_failed_verify_op_counts_in_error_rate_and_tail(tmp_path):
    op = workloads.Op(0, 0, ["verify", "--inject-fault", "--max-n", "1", "--max-d", "1", "--max-m", "1"],
                      oracle=workloads._check_verify)
    result = make_runner("verify", tmp_path).execute(op)
    assert result.code == 4 and not result.ok
    stats = run.end_to_end([result])
    assert stats["error_rate"] == 1.0
    assert stats["op_tail_s"] == math.inf


def test_grid_guard_op_counts_in_error_rate_and_tail(tmp_path, monkeypatch):
    monkeypatch.setenv("SGO_MAX_GRID", "10")
    path = tmp_path / "f.json"
    op = workloads.Op(0, 0, ["grid-min", "--poly", str(path), "--r", "5"],
                      files={str(path): workloads.poly_json(4, 2, [((2, 0, 0, 0), 1)])})
    result = make_runner("sweep", tmp_path).execute(op)
    assert result.code == 3 and not result.ok
    stats = run.end_to_end([result])
    assert stats["error_rate"] == 1.0
    assert stats["op_tail_s"] == math.inf


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(v) for v in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)
    with_failures = [1.0] * 19 + [math.inf] * 11
    assert run.tail(with_failures)[0] == math.inf
    assert run.tail([1.0] * 20 + [math.inf] * 10)[0] == 1.0


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    for name, workload in workloads.WORKLOADS.items():
        for index in range(len(workload.slots)):
            a = workload.make_op(3, index, str(tmp_path))
            b = workload.make_op(3, index, str(tmp_path))
            c = workload.make_op(4, index, str(tmp_path))
            assert (a.argv, a.files) == (b.argv, b.files), name
            assert (a.argv, a.files) != (c.argv, c.files), name


def first_naive_op(workload: str, slot: int, tmp_path):
    make = workloads.WORKLOADS[workload].make_op
    size = len(workloads.WORKLOADS[workload].slots)
    for index in range(slot, 100 * size, size):
        op = make(0, index, str(tmp_path))
        if op.naive:
            return op
    raise AssertionError("no sampled op")


@pytest.mark.parametrize("slot", [1, 2, 3])  # stable-set, grid-max, enclose
def test_sweep_oracle_accepts_output_and_rejects_tampering(tmp_path, slot):
    op = first_naive_op("sweep", slot, tmp_path)
    for path, text in op.files.items():
        Path(path).write_text(text)
    runner = make_runner("sweep", tmp_path)
    out, code = capture(op.argv)
    assert code == 0
    obj = json.loads(out)
    assert op.oracle(obj) == []
    if op.argv[0] == "enclose":
        obj["fmin"]["hi"] = "-1234567"
    else:
        obj["grid_value" if op.argv[0] == "stable-set" else "value"] = "1/1234567"
    assert op.oracle(obj) != []
    if "tie_count" in obj:
        obj = json.loads(out)
        obj["tie_count"] += 1
        assert op.oracle(obj) != []
    assert runner.execute(op).ok


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def test_converge_oracles_reject_a_wrong_grid_minimum(tmp_path):
    runner = make_runner("converge", tmp_path)
    for slot in (7, 8):  # a random polynomial, then the sum-of-squares family
        op = workloads.converge_op(5, slot, str(tmp_path))
        for path, text in op.files.items():
            Path(path).write_text(text)
        out, code = capture(op.argv)
        rows = json.loads(out)
        assert code == 0 and op.oracle(rows) == []
        for row in rows:
            row["grid_min"] = "-1234567"
        assert op.oracle(rows) != []
        assert runner.execute(op).ok


def test_verify_oracle_rejects_a_failing_check():
    obj = {"checks": [{"name": "X", "holds": "false"}], "total": 1, "failures": 0}
    assert workloads._check_verify(obj) != []


def test_digest_mismatch_fails_the_op(tmp_path):
    runner = make_runner("converge", tmp_path)
    runner.digests = ["0" * 64] * 8
    result = runner.execute(workloads.converge_op(0, 7, str(tmp_path)))
    assert not result.ok and "digest" in result.problems[0]


def test_trace_counts_repeat_and_leave_output_unchanged(tmp_path):
    op = workloads.converge_op(0, 0, str(tmp_path))  # n=4 d=3 --r-range 2:16 --grid 8
    plain = make_runner("converge", tmp_path).execute(op)
    counts = []
    for _ in range(2):
        spans = tracer.Tracer()
        spans.install()
        try:
            traced = make_runner("converge", tmp_path).execute(op, spans)
        finally:
            spans.uninstall()
        assert traced.ok and traced.digest == plain.digest
        metrics, _ = spans.summary(traced.stdout_bytes, {op.index: 1.0})
        counts.append({k: v for k, v in metrics.items() if not k.endswith(("_s", "_per_s", "share"))})
    assert counts[0] == counts[1]
    assert counts[0]["grid.sweeps"] == 88 and counts[0]["grid.distinct_sweeps"] == 30
    assert not hasattr(cli.grid_minimize, "__wrapped__")  # uninstall restored the originals


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
