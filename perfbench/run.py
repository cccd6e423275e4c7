#!/usr/bin/env python3
"""Build perfbench from source in this checkout and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload sssp-fabric --seed 1 --seconds 10 --trace 0

Every build product and scratch file stays under .bench_build/, including
the Go build cache. The build fails, and this script exits non-zero
without printing a result, when the repository's Go sources are not
beside perfbench/. After a build the script replaces itself with the
benchmark process, so no child outlives it.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    os.chdir(root)
    os.execv(binary, [binary] + sys.argv[1:] + ["--work", os.path.join(out, "work")])


if __name__ == "__main__":
    main()
