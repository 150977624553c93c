#!/usr/bin/env python3
"""Builds the benchmark with pinned code alignment and runs one workload.

    python3 perfbench/run.py --workload attack-l6 --seed 1 --seconds 55 --trace 0

Run from the repository root. The binary goes to $CARGO_TARGET_DIR
(default .bench_build), traced runs write their spans under it, and the
last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Every function and every block not reached by fall-through is aligned
# to 64 and 32 bytes. Without this, an edit anywhere in the binary can
# shift the hot loops across fetch and cache-line boundaries and move
# the scoring time by ~10% with no code change on the measured path.
ALIGN_FLAGS = [
    "-C", "llvm-args=-align-all-functions=6",
    "-C", "llvm-args=-align-all-nofallthru-blocks=5",
]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target,
               CARGO_ENCODED_RUSTFLAGS="\x1f".join(ALIGN_FLAGS))
    env.pop("RUSTFLAGS", None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print(f"[perfbench] build failed ({build.returncode})", file=sys.stderr)
        sys.exit(1)
    # One CPU for the whole run: the client, the server's event loop and
    # its worker then hand off on one core, so thread placement cannot
    # change between runs and nothing depends on the host's CPU count.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as e:
        print(f"[perfbench] running unpinned: {e}", file=sys.stderr)
    binary = os.path.join(target, "release", "splitmfg-perfbench")
    trace_dir = os.path.join(target, "perfbench-trace")
    sys.exit(subprocess.run([binary, *sys.argv[1:], "--trace-out", trace_dir],
                            check=False).returncode)


if __name__ == "__main__":
    main()
