#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload chip_dedup --seed 1 --seconds 20 --trace 0

Builds perfbench (its own Go module next to this file) and cmd/tracecheck
from source into .bench_build/, keeping the Go build cache, temporary files
and Go's config there too, so nothing outside the checkout is written. Then
runs the benchmark with the given flags; its last stdout line is the JSON
result. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local",
               GOPROXY="off", GOSUMDB="off", GOWORK="off", CGO_ENABLED="0")
    return env


def build(env, out, pkg, cwd):
    proc = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: building %s failed" % pkg)


def main():
    env = go_env()
    bindir = os.path.join(BUILD, "perfbench")
    os.makedirs(bindir, exist_ok=True)
    bench = os.path.join(bindir, "perfbench")
    checker = os.path.join(bindir, "tracecheck")
    build(env, bench, ".", HERE)
    build(env, checker, "./cmd/tracecheck", ROOT)
    cmd = [bench, "-out", bindir, "-tracecheck", checker] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
