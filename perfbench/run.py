#!/usr/bin/env python3
"""Build the `ayb` binary and the perfbench harness, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_durable --seed 2008 --seconds 20 --trace 0

Every argument is passed to the harness (`perfbench/src/main.rs`). Builds go
to `$CARGO_TARGET_DIR` (default `.bench_build`); their output goes to stderr
so the last stdout line stays the harness's result object.
"""

import os
import subprocess
import sys


def build(args, target_dir):
    """Runs one quiet release build; exits non-zero if it fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(
        ["cargo", "build", "--release", "--quiet", *args],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if done.returncode != 0:
        sys.exit(f"build failed: cargo build {' '.join(args)}")


def main():
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("run from the root of the repository checkout")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(["--bin", "ayb"], target_dir)
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    harness = os.path.join(release, "perfbench")
    argv = [harness, *sys.argv[1:]]
    if "--summarize" not in argv:
        argv += ["--ayb", os.path.join(release, "ayb")]
    sys.stdout.flush()
    os.execv(harness, argv)


if __name__ == "__main__":
    main()
