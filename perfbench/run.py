#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload fig3-rr --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. It builds perfbench/main.exe
from the checkout with dune (into .bench_build/), runs it, and relays
its standard output, whose last line is the JSON result. --self-test
runs every workload with a corrupted expectation and exits 0 only if
each one reports failed operations.

On a shared host one CPU can run up to 40% slower than the other for
minutes, while its sibling thread is busy elsewhere. The benchmark is
single-threaded, so while it runs it is moved to the next allowed CPU
every MIGRATE_S seconds: each run samples every CPU, and the medians it
reports over its passes do not rest on one CPU's state.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["fig3-rr", "star-ov-fanout", "churn-med"]
RUN_TIMEOUT_S = 170
MIGRATE_S = 1.0


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s; run from a source checkout" % ROOT)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    # no shared dune cache: the build reads and writes the checkout only
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if done.returncode != 0:
        sys.exit("perfbench: build failed with code %d" % done.returncode)


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def allowed_cpus():
    """The CPUs this process may run on, or [] where the platform has no
    affinity calls (then nothing is rotated)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def run(args, capture):
    """Run main.exe to completion, rotating it over the allowed CPUs.
    Returns (exit code, captured stdout or None)."""
    cpus = allowed_cpus()
    nproc = len(cpus) or os.cpu_count() or 0
    cmd = [EXE] + args + ["--commit", revision(), "--nproc", str(nproc)]
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)
    start = time.monotonic()
    turn = 0
    try:
        while True:
            try:
                out, _ = proc.communicate(timeout=MIGRATE_S)
                return proc.returncode, out
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() - start > RUN_TIMEOUT_S:
                sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
            turn += 1
            if len(cpus) > 1:
                try:
                    os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
                except OSError:
                    pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def self_test():
    ok = True
    for w in WORKLOADS:
        code, out = run(["--workload", w, "--seed", "1", "--seconds", "1",
                         "--trace", "0", "--perturb"], capture=True)
        lines = (out or "").strip().splitlines()
        result = json.loads(lines[-1]) if code == 0 and lines else None
        detected = (result is not None and result["failed"] > 0
                    and not result["correct"])
        print("%-16s perturbed expectation -> %s" % (
            w, "failed=%d of %d (detected)" % (result["failed"], result["attempted"])
            if detected else "NOT detected"))
        ok = ok and detected
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        return self_test()
    if a.workload is None:
        ap.error("--workload is required")
    code, _ = run(["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
