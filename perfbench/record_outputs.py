"""Record the output digests that ``check.outputs_changed`` compares against.

    python3 perfbench/record_outputs.py --seeds 0-19

Runs each workload once per seed, untraced, checks the outputs, and merges
their digests into perfbench/expected_outputs.json. Rerun it after a change
that alters the outputs on purpose, and say so with the change.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import run
import workloads as wl


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 0-19")
    args = parser.parse_args()
    table = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    for name in wl.WORKLOADS:
        for seed in args.seeds:
            _, cli, workload, _ = run.setup(name, seed, time.perf_counter())
            done = run.run_pass(cli, workload.commands)
            verdict = run.evaluate(workload, [done])
            if verdict.failed:
                print(f"{name} seed {seed}: {verdict.problems[:3]}", file=sys.stderr)
                return 1
            digests = run.labelled_digests(workload, done)
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} files", flush=True)
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
