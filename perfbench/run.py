#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload study_x1 --seed 1 --seconds 30 --trace 0

Builds `spec-trends` (main workspace) and the `perfbench` binary (its own
package beside it) in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then runs the workload. The last
line of stdout is the JSON result; see perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study_x1", "ingest_x100", "serve_x10")


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for args in (
        ["-p", "spec-trends"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        done = subprocess.run(
            [
                os.path.join(release, "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--bin", os.path.join(release, "spec-trends"),
                "--work", work,
                "--root", ROOT,
            ],
            cwd=ROOT,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another workload's directory is still there
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
