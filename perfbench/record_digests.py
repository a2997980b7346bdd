"""Record the stdout digests of the default seed's first ops, at a trusted commit.

    python3 perfbench/record_digests.py

Runs each workload's op stream for workloads.DEFAULT_SEED, checks every output
with the oracle, and writes perfbench/digests.json.  run.py then requires
byte-identical stdout for those ops.  Re-record only on purpose: the digests
pin the `sgo` output of the commit that recorded them.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# whole cycles to record per workload: three times the ops of a 20-second run
CYCLES = {"sweep": 18, "converge": 30, "verify": 12}


def main() -> int:
    cli = run.load_program()
    import workloads

    digests = {}
    input_dir = run.OUT_DIR / "inputs-record"
    input_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cycles in CYCLES.items():
            runner = run.Runner(cli, workloads.WORKLOADS[name], workloads.DEFAULT_SEED, input_dir)
            results = runner.run(0, cycles)
            failed = [r for r in results if not r.ok]
            if failed:
                print(f"{name}: op {failed[0].index} failed: {failed[0].problems}", file=sys.stderr)
                return 1
            digests[name] = [r.digest for r in results]
            print(f"{name}: {len(results)} ops", flush=True)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
