"""Benchmark for the `sgo` command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Ops run in this process through `simplex_grid_opt.cli.main(argv)`, the entry
point of `sgo`, in a closed loop with one client: the next op starts when the
previous one returns.  Every op keeps the CLI's resource defaults.  Input
generation and output checking happen between ops and are never timed.

A machine that shares its cores can run the same loop up to 1.6 times slower
in some seconds than in others.  So every timed
region is also reported in reference seconds: its measured seconds times
REF_CAL_S over the time of a fixed calibration loop run just before and just
after it.  The end-to-end and per-layer times are reference seconds; the
report also shows the measured ones.

--seconds sets how many whole cycles of ops a run makes: enough to fill that
many reference seconds at the commit that added the benchmark
(workloads.Workload.cycle_ref_s).
So a seed and --seconds fix the ops exactly, on every commit.  --trace 0
measures the end-to-end metrics.  --trace 1 runs half as many cycles with
every layer wrapped in spans, then as many untraced cycles on fresh inputs,
and reports per-layer metrics and the tracing overhead.  Both print a report,
write it to perfbench/out/, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Run from the repository root; the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 11
CAL_ITERATIONS = 300_000
REF_CAL_S = 0.020  # the calibration loop's typical time on a 2-vCPU Xeon VM under Python 3.11
RUN_LIMIT_S = 150.0  # stop starting ops after this much wall time, to end within 180 s
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import simplex_grid_opt.cli as cli; cli.build_parser()"
)


def load_program():
    """Import the package from ./src, refusing any other copy."""
    if not (SRC / "simplex_grid_opt" / "cli.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'simplex_grid_opt'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import simplex_grid_opt.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "simplex_grid_opt":
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli


@dataclass
class OpResult:
    index: int
    slot: int
    seconds: float
    code: int
    stdout_bytes: int
    work: int
    digest: str  # sha256 of stdout
    problems: "list[str]"
    scale: float = 1.0  # reference seconds per measured second around this op

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale

    @property
    def latency(self) -> float:
        """Reference seconds; a failed op counts as slower than any limit."""
        return self.ref_seconds if self.ok else math.inf


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python integer loop."""
    started = time.perf_counter()
    x = 0
    for i in range(CAL_ITERATIONS):
        x += i * i
    return time.perf_counter() - started


def ref_scale(before: float, after: float) -> float:
    """Reference seconds per measured second, from the calibrations around a region."""
    return 2 * REF_CAL_S / (before + after)


class Runner:
    """Runs, times and checks the ops of one workload and seed.

    `digests` are the pinned stdout digests of ops 0, 1, ... for this seed.
    """

    def __init__(self, cli, workload, seed: int, input_dir: Path, digests=(), deadline=math.inf):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.input_dir = input_dir
        self.digests = digests
        self.deadline = deadline
        self.digest_checked = 0
        self.naive_checked = 0

    def execute(self, op, tracer=None) -> OpResult:
        """Run one op; only the call into the CLI is timed."""
        for path, text in op.files.items():
            Path(path).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        crash = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(op.argv)
                else:
                    code = tracer.run_op(op.index, self.cli.main, op.argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes is a failed op; the run goes on
            code, crash = 1, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - started
        for path in op.files:
            Path(path).unlink()
        return self.check(op, code, out.getvalue(), crash or err.getvalue(), seconds)

    def check(self, op, code: int, stdout: str, stderr: str, seconds: float) -> OpResult:
        problems: "list[str]" = []
        work = 0
        if code != 0:
            problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
        else:
            try:
                obj = json.loads(stdout)
            except ValueError as exc:
                obj = None
                problems.append(f"stdout is not JSON: {exc}")
            if obj is not None:
                problems += op.oracle(obj)
                work = self.workload.work(obj)
                self.naive_checked += op.naive
        data = stdout.encode()
        digest = hashlib.sha256(data).hexdigest()
        if op.index < len(self.digests):
            self.digest_checked += 1
            if digest != self.digests[op.index]:
                problems.append("stdout differs from its pinned digest")
        return OpResult(op.index, op.slot, seconds, code, len(data), work, digest, problems)

    def run(self, first: int, cycles: int, tracer=None) -> "list[OpResult]":
        """Run `cycles` whole cycles of ops from op `first`, or fewer past the deadline."""
        results: "list[OpResult]" = []
        before = calibrate()
        for index in range(first, first + cycles * len(self.workload.slots)):
            if time.monotonic() > self.deadline:
                break
            op = self.workload.make_op(self.seed, index, str(self.input_dir))
            result = self.execute(op, tracer)
            after = calibrate()
            result.scale = ref_scale(before, after)
            before = after
            results.append(result)
        return results


# --- statistics --------------------------------------------------------------------


def tail(latencies: "list[float]") -> "tuple[float, float, int]":
    """(value, percentile, ops beyond) at the highest percentile with ten ops beyond it.

    With ten ops or fewer no percentile has ten beyond, so the maximum is used.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, 0
    return ordered[count - 11], 100.0 * (count - 10) / count, 10


def end_to_end(results: "list[OpResult]") -> dict:
    latencies = [r.latency for r in results]
    busy = sum(r.ref_seconds for r in results)
    ok = sum(r.ok for r in results)
    tail_s, tail_pct, beyond = tail(latencies)
    return {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond,
        "ops": len(results),
        "ops_per_s": ok / busy,
        "work_per_s": sum(r.work for r in results) / busy,
        "error_rate": (len(results) - ok) / len(results),
        "measured_op_p50_s": statistics.median(r.seconds for r in results),
        "slot_p50_s": [
            statistics.median(r.latency for r in results if r.slot == slot)
            for slot in sorted({r.slot for r in results})
        ],
    }


def setup_seconds(repeats: int = SETUP_REPEATS) -> "tuple[list[float], list[float]]":
    """Wall time of fresh interpreters that import the CLI and build its parser.

    Returns (measured seconds, reference seconds) per repeat.  No timeout is
    passed: with one, subprocess polls the child every 50 ms, which would
    round the times.
    """
    measured, ref = [], []
    before = calibrate()
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)], check=True)
        seconds = time.perf_counter() - started
        after = calibrate()
        measured.append(seconds)
        ref.append(seconds * ref_scale(before, after))
        before = after
    return measured, ref


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# --- environment -------------------------------------------------------------------


def git_commit() -> "str | None":
    """HEAD of the checkout's git metadata, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "simplex_grid_opt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- the two kinds of run ----------------------------------------------------------

WORK_NAMES = {"sweep": "grid_points_per_s", "converge": "rows_per_s", "verify": "checks_per_s"}


def untraced_run(runner: Runner, args) -> "tuple[dict, dict, list[OpResult]]":
    setup_measured, setup_ref = setup_seconds()
    results = runner.run(0, max(1, math.ceil(args.seconds / runner.workload.cycle_ref_s)))
    stats = end_to_end(results)
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "op_p50_s": stats["op_p50_s"],
        "op_tail_s": stats["op_tail_s"],
        "ops_per_s": stats["ops_per_s"],
        "work_per_s": stats["work_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    report = dict(stats, setup_runs_s=setup_ref, measured_setup_runs_s=setup_measured,
                  **{WORK_NAMES[args.workload]: stats["work_per_s"]})
    return metrics, report, results


def traced_run(runner: Runner, args) -> "tuple[dict, dict, list[OpResult]]":
    from tracer import Tracer, enumeration_rate
    from workloads import sweep_shapes

    workload = runner.workload
    cycles = max(1, round(0.5 * args.seconds / workload.cycle_ref_s))
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run(0, cycles, tracer)
    finally:
        tracer.uninstall()
    plain = runner.run(len(traced), cycles)
    metrics, layer_self = tracer.summary(
        sum(r.stdout_bytes for r in traced), {r.index: r.scale for r in traced}
    )
    before = calibrate()
    enum_rate = enumeration_rate(sweep_shapes(), lambda: ref_scale(before, calibrate()))
    metrics["combin.enum_points_per_s"] = enum_rate
    grid_s = metrics["grid.self_s"]
    metrics["combin.enum_share"] = metrics["grid.points"] / enum_rate / grid_s if grid_s else 0.0
    traced_p50 = end_to_end(traced)["op_p50_s"]
    plain_p50 = end_to_end(plain)["op_p50_s"]
    metrics["tracing_overhead_s"] = traced_p50 - plain_p50
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.dump(str(spans))
    report = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "traced_op_p50_s": traced_p50,
        "untraced_op_p50_s": plain_p50,
        "spans": len(tracer.start),
        "spans_file": str(spans.relative_to(ROOT)),
        "self_s_by_layer": dict(sorted(layer_self.items(), key=lambda kv: -kv[1])),
    }
    return metrics, report, traced + plain


def finite(value: float) -> float:
    """JSON has no infinity; a latency past every limit prints as the largest float."""
    return value if math.isfinite(value) else sys.float_info.max


def print_report(env: dict, metrics: dict, units: dict, report: dict,
                 results: "list[OpResult]", runner) -> None:
    failed = [r for r in results if not r.ok]
    print(f"perfbench {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"python={env['python']} cpus={env['cpu_count']} affinity={env['cpu_affinity']} "
          f"cpu={env['cpu_model']!r} commit={env['git_commit']} src={env['src_sha256'][:12]}")
    print(f"  ops attempted={len(results)} failed={len(failed)} "
          f"digest-checked={runner.digest_checked} naive-checked={runner.naive_checked}")
    for r in failed[:5]:
        print(f"  FAILED op {r.index} (slot {r.slot}): {'; '.join(r.problems)[:400]}")
    if "op_tail_percentile" in report:
        print(f"  op_tail_s is p{report['op_tail_percentile']:.1f} of {report['ops']} ops "
              f"({report['op_tail_beyond']} beyond); error_rate={report['error_rate']:.4f}")
        work = WORK_NAMES[env["workload"]]
        print(f"  {work:<40} {report[work]:>14.6g} 1/s")
        print(f"  {'measured op_p50_s':<40} {report['measured_op_p50_s']:>14.6g} s")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    for layer, seconds in report.get("self_s_by_layer", {}).items():
        print(f"  self time {layer:<30} {seconds:>14.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "converge", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    cli = load_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    digests = []
    if args.seed == workloads.DEFAULT_SEED and DIGESTS.is_file():
        digests = json.loads(DIGESTS.read_text()).get(args.workload, [])
    OUT_DIR.mkdir(exist_ok=True)
    input_dir = OUT_DIR / f"inputs-{os.getpid()}"
    input_dir.mkdir()
    runner = Runner(cli, workloads.WORKLOADS[args.workload], args.seed, input_dir, digests, deadline)
    try:
        if args.trace:
            metrics, report, results = traced_run(runner, args)
        else:
            metrics, report, results = untraced_run(runner, args)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    expected = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")
    env = environment(args)
    print_report(env, metrics, units, report, results, runner)
    failed = sum(not r.ok for r in results)
    record = {
        "environment": env,
        "report": report,
        "metrics": metrics,
        "failures": [{"op": r.index, "problems": r.problems} for r in results if not r.ok],
        "ops": [[r.index, r.slot, r.seconds, r.ref_seconds, r.ok] for r in results],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": finite(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
