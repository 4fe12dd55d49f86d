#!/usr/bin/env python3
"""Build the ResEx benchmark from source and run one workload.

    python3 perfbench/run.py --workload pair|consolidation|rack|all \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. The benchmark is compiled (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`; compiler output
goes to stderr. The benchmark binary then measures the workload and prints
one JSON object as the last line of stdout. `all` runs the three workloads
one after another, each in its own process, and prints each one's output.
The exit code is non-zero when the build or a run fails, and no result
line is printed then.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pair", "consolidation", "rack"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    os.chdir(ROOT)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "resex-perfbench")
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run = subprocess.run(
            [exe, "--workload", workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            env=env,
        )
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
