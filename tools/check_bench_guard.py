#!/usr/bin/env python3
"""Extension-vs-native regression guard over BENCH.json.

The fig4 bench pairs each extension leg with the host's native
re-implementation of the same function in the same rounds; the ratio is
extension time / native time per round (1.0 = native parity). The guard
reads the block engine's median ratio for each host x use case
(fig4.<host>.<rr|ov>_block.ratio_median, 4 ratios), prints it with its
round min/max, and fails when any median exceeds --threshold, when
fewer than 4 ratios are present, or when either leg of a ratio (the
block leg and its native leg) lacks a `.correct` of 1: a time for a
wrong routing outcome says nothing.

Usage: check_bench_guard.py [--threshold 1.3] [BENCH.json | -]
"""

import argparse
import json
import re
import sys

RATIO = re.compile(r"^(fig4\.\w+\.\w+_)block\.ratio_median$")
EXPECTED = 4  # 2 hosts (frr, bird) x 2 use cases (rr, ov)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("path", nargs="?", default="BENCH.json")
    ap.add_argument("--threshold", type=float, default=1.3)
    args = ap.parse_args()

    with sys.stdin if args.path == "-" else open(args.path) as f:
        metrics = json.load(f)["metrics"]

    stems = sorted(m.group(1) for m in map(RATIO.match, metrics) if m)
    if len(stems) < EXPECTED:
        print(
            f"guard: expected {EXPECTED} block-engine ext/native ratios in "
            f"{args.path}, found {len(stems)} — did the run include fig4?",
            file=sys.stderr,
        )
        return 1

    bad = 0
    for stem in stems:
        ratio = f"{stem}block.ratio"
        med, lo, hi = (metrics.get(f"{ratio}_{s}", float("nan"))
                       for s in ("median", "min", "max"))
        wrong = [stem + leg for leg in ("block", "native")
                 if metrics.get(f"{stem}{leg}.correct") != 1]
        ok = med <= args.threshold and not wrong
        bad += not ok
        why = f" (not correct: {', '.join(wrong)})" if wrong else ""
        print(f"  {ratio}: {med:.3f} [{lo:.3f}..{hi:.3f}] "
              f"{'ok' if ok else 'FAIL'}{why}")

    if bad:
        print(f"guard: {bad} ext/native ratio(s) exceed the "
              f"{args.threshold:.2f}x budget or time a wrong outcome",
              file=sys.stderr)
        return 1
    print(f"guard: all ext/native medians within {args.threshold:.2f}x, "
          f"every leg correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
