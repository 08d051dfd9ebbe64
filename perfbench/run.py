#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

It builds perfbench (a Go module of its own that uses the file system
through the repository's packages) into .bench_build/, keeping the Go
build cache and everything else the go command writes there too, then
runs it with the same arguments. The last line of output is the result
object.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: run from the repository root (no go.mod here)\n")
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "PPROF_TMPDIR": os.path.join(BUILD, "pprof"),
        # The go command keeps telemetry and config under these.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench.bin")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
