#!/usr/bin/env python3
"""Bench regression guard over the dispatch bench artifact (BENCH_pr9.json).

The extension dispatch path's acceptance figure is the paired
ext/native ratio (1.0 = native parity) per host x grid, measured on the
block engine; the guard fails when any median ratio exceeds
--threshold, i.e. when an extension-attached dispatch chain costs more
than THRESHOLD x the native re-implementation of the same function.

Usage: check_bench_guard.py [--threshold 1.3] [BENCH_pr9.json]
"""

import argparse
import json
import sys

SUFFIX = ".ext_native_ratio.median"
EXPECTED = 4  # 2 hosts (frr, bird) x 2 grids (rr, ov)


def check_dispatch(bench, args):
    ratios = {k: v for k, v in bench.items() if k.endswith(SUFFIX)}
    if len(ratios) < EXPECTED:
        print(
            f"guard: expected >= {EXPECTED} ext/native ratios in "
            f"{args.path}, found {len(ratios)} — was the dispatch bench "
            "run with --json?",
            file=sys.stderr,
        )
        return 1

    bad = []
    for key in sorted(ratios):
        ratio = ratios[key]
        verdict = "ok" if ratio <= args.threshold else "FAIL"
        print(f"  {key[: -len(SUFFIX)]}: {ratio:.3f} [{verdict}]")
        if ratio > args.threshold:
            bad.append((key, ratio))

    if bad:
        for key, ratio in bad:
            print(
                f"guard: {key} = {ratio:.3f} exceeds the "
                f"{args.threshold:.2f}x ext-vs-native budget",
                file=sys.stderr,
            )
        return 1
    print(f"guard: all ext/native medians within {args.threshold:.2f}x")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("path", nargs="?", default="BENCH_pr9.json")
    ap.add_argument("--threshold", type=float, default=1.3)
    args = ap.parse_args()

    with open(args.path) as f:
        bench = json.load(f)

    return check_dispatch(bench, args)


if __name__ == "__main__":
    sys.exit(main())
