#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0

Builds the perfbench Go program from source into .bench_build/ (with the
Go build cache kept there too, so nothing is written outside the checkout)
and runs it from the repository root with the given arguments. Its last
line of output is the result JSON; see perfbench/main.go. A traced run
(--trace 1) also writes its spans to .bench_build/spans-<workload>-<seed>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT = 175  # seconds; a run normally ends within --seconds plus one pass


def arg(name, default):
    argv = sys.argv[1:]
    for i, a in enumerate(argv):
        if a == name and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; nothing to build", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = dict(
        os.environ,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )
    exe = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    except OSError as e:
        print(f"perfbench: cannot run go: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    extra = []
    if arg("--trace", "0") == "1":
        name = f"spans-{arg('--workload', 'none')}-{arg('--seed', '1')}.json"
        extra = ["--spans", os.path.join(BUILD, name)]
    proc = subprocess.Popen([exe] + sys.argv[1:] + extra, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
