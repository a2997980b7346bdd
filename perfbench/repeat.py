"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workloads sweep,converge,verify --seeds 1:10 --trace 0 \
        --out perfbench/out/parent.json [--against perfbench/out/other.json]

Runs the command in BENCHMARK.json once per (workload, seed), one run at a
time, from the repository root.  For every metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.  For
end-to-end metrics it also prints the bound, flags a spread of a third of the
bound or more, and with --against, prints the change of the median against the
medians in another summary, marked REGRESSION when a metric is worse by more
than its bound (the exit code is then 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> "list[int]":
    if ":" in text:
        lo, hi = (int(v) for v in text.split(":"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: "list[float]") -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep,converge,verify")
    parser.add_argument("--seeds", default="1:10", help="'lo:hi' or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--against", help="a summary to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    prior = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    summary = {"trace": args.trace, "run_seconds": spec["run_seconds"], "workloads": {}}
    regressed = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(spec, workload, seed, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([run["metrics"][name]["value"] for run in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary["workloads"][workload] = {
            "seeds": parse_seeds(args.seeds),
            "all_correct": all(run["correct"] for run in runs),
            "metrics": metrics,
        }
        print(f"\n{workload}: {'all correct' if all(r['correct'] for r in runs) else 'FAILURES'}")
        for name, m in metrics.items():
            line = (f"  {name:<44} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                    f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f}")
            if name in bounds:
                bound = bounds[name]["bound"]
                line += f"  bound {bound}" + ("" if m["spread"] < bound / 3 else "  SPREAD>BOUND/3")
            old = prior.get(workload, {}).get("metrics", {}).get(name)
            if old and old["median"]:
                change = m["median"] / old["median"] - 1
                worse = change if better[name] == "lower" else -change
                line += f"  change {change:+.4f}"
                if name in bounds and worse > bounds[name]["bound"]:
                    line += "  REGRESSION"
                    regressed = 1
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return regressed


if __name__ == "__main__":
    sys.exit(main())
