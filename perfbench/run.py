#!/usr/bin/env python3
"""Builds the DNS Guard benchmark from source and runs it on one CPU.

    python3 perfbench/run.py --workload <table3|spoof_flood|loopback> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); cargo's own output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The benchmark process and
every thread it starts are pinned to a single CPU: on a small virtual
machine, cross-CPU wake-ups of the loopback guard and ANS threads
otherwise dominate the latency and make it swing from run to run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
