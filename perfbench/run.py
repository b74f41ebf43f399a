#!/usr/bin/env python3
"""Builds the fleet binaries and the benchmark, then runs the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`), so the benchmark binary finds `dcam_server`
and `dcam_router` next to itself. Build output goes to stderr; the
benchmark's own output, ending in one JSON line, is the only stdout.
The process replaces itself with the benchmark, so no wrapper outlives it.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(["-p", "dcam-server", "-p", "dcam-router", "--bins"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
