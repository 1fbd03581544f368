#!/usr/bin/env python3
"""Build the cloudmap benchmark from source and run it.

Usage, from the repository root:

    python3 benchmark/run.py --workload fresh --seed 1 --seconds 10 --trace 0

The Go build cache, module cache, temporary files and toolchain config all
live under .bench_build/ so that building and running touch nothing outside
the checkout. The benchmark binary replaces this process, so the caller
waits on it directly. Without the repository around benchmark/ the build
fails and the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main() -> int:
    root = os.getcwd()
    build = os.path.join(root, BUILD_DIR)
    tmp = os.path.join(build, "tmp")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    binary = os.path.join(build, "bin", "cloudmap-benchmark")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return built.returncode or 1
    os.execve(binary, [binary, *sys.argv[1:]], env)
    return 1  # not reached: execve replaces the process


if __name__ == "__main__":
    sys.exit(main())
