"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

Runs every workload twice untraced and twice traced, each in its own
process with the same seed, and requires that
  - each run passes its checks and prints exactly the metrics, with the
    units, that BENCHMARK.json declares for its mode;
  - the schedule-quality totals and every count (*.calls, *.per_gate,
    *_ratio, checks.*.failed) are identical across the two processes.
Timings are expected to differ and are not compared. Exit code 0 when all
of this holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMED_RATIOS = {"trace.overhead_ratio"}


def deterministic(name: str) -> bool:
    if name in TIMED_RATIOS:
        return False
    return (
        name.endswith(("_total", ".calls", ".per_gate", "_ratio", ".failed"))
        or name == "check_pass_ratio"
    )


def run(workload: str, seed: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
        return None
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in args.workload:
        for trace in (0, 1):
            print(f"{workload} trace={trace}")
            first, second = run(workload, args.seed, trace), run(workload, args.seed, trace)
            if first is None or second is None:
                ok = False
                continue
            for result in (first, second):
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"] or units != declared[trace]:
                    print(f"  declared metrics or checks do not match: correct={result['correct']}, "
                          f"missing={sorted(set(declared[trace]) - set(units))}, "
                          f"extra={sorted(set(units) - set(declared[trace]))}")
                    ok = False
            compared = [k for k in first["metrics"] if deterministic(k)]
            differ = [k for k in compared if first["metrics"][k]["value"] != second["metrics"].get(k, {}).get("value")]
            for k in differ:
                print(f"  {k}: {first['metrics'][k]['value']} != {second['metrics'][k]['value']}")
            print(f"  {len(compared) - len(differ)} of {len(compared)} deterministic metrics repeat exactly")
            ok = ok and not differ
    print("determinism self-check", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
