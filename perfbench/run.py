#!/usr/bin/env python3
"""Build and run the PLASMA wall-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload skew-sim --seed 1 --seconds 20 --trace 0

Builds the benchmark package (and the `plasma-server` worker the net
carrier spawns) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs it, and passes its output through. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Exits non-zero, without a result line, if the build or the
run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("skew-sim", "skew-net", "skew-live", "churn-sim")
# A run, build included, must end within this many seconds (the first build
# of a fresh checkout is given longer).
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, env, timeout):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    (the net carrier's worker processes included) and waits for it."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(cmd)} timed out after {timeout:.0f} s")
    return proc.returncode, out.decode()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # The net carrier runs with its default two worker processes.
    env.pop("PLASMA_NET_GROUPS", None)
    env["PLASMA_SERVER_BIN"] = os.path.join(target, "release", "plasma-server")

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "plasma-perfbench", "-p", "plasma-net",
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    cmd = [
        os.path.join(target, "release", "plasma-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    # Only the build may eat into the first run's longer allowance.
    budget = RUN_LIMIT_S - min(time.monotonic() - started, 30)
    code, out = run_group(cmd, env, budget)
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail("benchmark printed no result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
