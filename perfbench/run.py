"""Benchmark for chainforge: one seeded workload per call.

    python3 perfbench/run.py --workload many_small --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The workload runs in a fresh child
process with one BLAS/OpenMP thread and `src` on PYTHONPATH, so it measures
the package as it stands in the tree. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
traced run. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every check met its known answer.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 907  # for confirming a claimed gain on a seed not tuned against
WORKLOADS = ("many_small", "large_schedule", "cli_text")
TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "chainforge" / "__init__.py").is_file():
        print(f"error: no chainforge source tree under {root / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(root / "src"),
    )
    cmd = [
        sys.executable,
        str(here / "worker.py"),
        "--root", str(root),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        return subprocess.run(cmd, env=env, cwd=root, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
