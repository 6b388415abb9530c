#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload testbed --seed 1 --seconds 30 --trace 0

Every argument is passed to the program (see main.go); `--workload all`
runs the three workloads one after another. The Go build cache,
the binary, fixtures and span files all live under the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the repository
root. The exit status is the program's; a failed build exits nonzero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("testbed", "fabric", "daemon")
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=840)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return built.returncode
    args = sys.argv[1:] + ["--work-dir", build]
    if "all" not in args:
        return subprocess.run([binary] + args, cwd=ROOT, env=env, timeout=900).returncode
    # --workload all runs each workload in its own process (so each one's
    # peak memory is its own) and fails if any of them does.
    status = 0
    for workload in WORKLOADS:
        run = [binary] + [workload if a == "all" else a for a in args]
        status = max(status, subprocess.run(run, cwd=ROOT, env=env, timeout=900).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
