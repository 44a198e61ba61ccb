#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload watermark --seed 1 --seconds 30 --trace 0

The Go program in this directory is built from source into .bench_build/
at the checkout root, with the Go build cache and every other Go tool
state kept there too, then run with the given arguments. Its standard
output passes through unchanged: the last line is the result JSON. The
script exits with the program's exit code, or 2 without printing a result
when the checkout holds no Go module to build against.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOMODCACHE": os.path.join(build, "go-path", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env, check=True,
                       stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        args += ["--spans", os.path.join(build, "spans-%s.json" % workload)]
    env["PERFBENCH_COMMIT"] = commit()
    sys.stdout.flush()
    proc = subprocess.run([binary] + args, cwd=ROOT, env=env)
    return proc.returncode


def commit():
    """The checkout's commit, when it is a git work tree."""
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
