#!/usr/bin/env python3
"""Build revmatch-server and the benchmark from source, then run the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload match-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Cargo builds into $CARGO_TARGET_DIR (default: target/). Build output goes to
standard error; the benchmark's last line of standard output is its JSON
result. Exits non-zero, printing no result, if either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The server as the repository's own workspace builds it.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "revmatch", "--bin", "revmatch-server"],
        # The benchmark: a package of its own, depending on the crates by path.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = os.path.join(release, "revmatch-perfbench")
    args = sys.argv[1:] + [
        "--server", os.path.join(release, "revmatch-server"),
        "--out", os.path.join(here, "out"),
    ]
    return subprocess.run([bench] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
