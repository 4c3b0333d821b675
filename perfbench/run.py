#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload mc-des --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the run records live under
.bench_build/ in the checkout. The benchmark prints its result as the
last line of standard output; this wrapper passes the binary's output
and exit code through, and exits non-zero without a result when the
build fails.
"""
import os
import subprocess
import sys

# Seconds one run may take once the binary is built.
RUN_TIMEOUT = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
