#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources, then run it.

    python3 perfbench/run.py --workload callpath --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The Go build cache, temporary files,
the binary and a traced run's spans go under $CARGO_TARGET_DIR (default .bench_build) in the
checkout, so nothing is written outside it. Arguments are passed to the
benchmark unchanged; its exit code is returned. Build output goes to
standard error, so the last line of standard output stays the result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for key, sub in (("HOME", "home"), ("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp")):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    # Only local sources: no module downloads, no toolchain switch.
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOFLAGS="", GOWORK="off")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    # Spans of a traced run go next to the build; a later --trace-dir wins.
    args = ["--trace-dir", os.path.join(out, "trace")] + sys.argv[1:]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
