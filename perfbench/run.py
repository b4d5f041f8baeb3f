#!/usr/bin/env python3
"""Build mcmap and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explore-dtlarge|analyze-stream|serve-mixed \
        --seed N --seconds S --trace 0|1

Everything is built with dune into .bench_build (release profile); the
benchmark's result is the last line of standard output (see README.md).
Build output goes to standard error.
"""

import os
import shutil
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/mcbench.exe", "./bin/mcmap_cli.exe"]


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    import subprocess

    build = subprocess.run(
        dune_command()
        + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release"]
        + TARGETS,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    out_dir = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "mcbench.exe")
    mcmap = os.path.join(BUILD_DIR, "default", "bin", "mcmap_cli.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:] + ["--mcmap", mcmap, "--out", out_dir])


if __name__ == "__main__":
    main()
