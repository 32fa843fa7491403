#!/usr/bin/env python3
"""Builds the release `idr` binary and the benchmark harness, then runs one
workload:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); data dirs, copies and span logs to `.bench_data`. The
harness's result is the last line of stdout; build output goes to stderr.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()


def build(manifest, *extra):
    if not os.path.isfile(manifest):
        sys.exit(f"run.py: no {manifest} here; run from the repository root")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed with {done.returncode}")


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    build("Cargo.toml", "--bin", "idr")
    build(os.path.join("perfbench", "Cargo.toml"))
    exe = os.path.join(target, "release", "perfbench")
    idr = os.path.join(target, "release", "idr")
    done = subprocess.run([exe, "--idr", idr, "--data", os.path.join(ROOT, ".bench_data"), *sys.argv[1:]])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
