#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/perfbench.exe from
source with dune (release profile, build directory .bench_build, no
shared dune cache), then runs it with the same arguments. The
benchmark's own output passes through unchanged: its last line is the
JSON result. The exit code is the benchmark's, or 2 when the checkout
cannot be built.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found at the checkout root; nothing to build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", TARGET,
    ]
    try:
        done = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
