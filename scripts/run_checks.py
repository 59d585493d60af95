#!/usr/bin/env python3
"""Run the full reduction-soundness battery and print one line per entry.

This is the long-form version of `tfnpkit check all`: same harness, plus
wall-clock timing per entry and a nonzero exit on any failure.
"""

import argparse
import sys
import time

from tfnpkit.reductions import registry
from tfnpkit.solvers import fuzz_soundness


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100, help="random instances per entry")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--entries", type=int, nargs="*",
                    help="registry indices to run (default: all)")
    args = ap.parse_args()

    picked = registry()
    if args.entries:
        wanted = set(args.entries)
        picked = [(i, nm) for i, nm in picked if i in wanted]

    failures = 0
    t_all = time.monotonic()
    for idx, name in picked:
        t0 = time.monotonic()
        rep = fuzz_soundness(idx, trials=args.trials, seed=args.seed)
        dt = time.monotonic() - t0
        status = "OK " if rep["ok"] else "FAIL"
        print(f"{status} entry {idx:2d} {name:32s} cases={rep['cases']:3d} "
              f"sols={rep['solutions_checked']:8d} trunc={rep['truncated_cases']:3d} "
              f"fails={rep['failures']:3d} {dt:7.2f}s")
        if not rep["ok"]:
            failures += rep["failures"]
            print(f"     first failure: {rep['first_failure']}")
    print(f"TOTAL FAILURES: {failures}  wall: {time.monotonic() - t_all:.1f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
