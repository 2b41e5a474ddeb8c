#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload synth|bmc-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/sepebench.exe with
dune (the first build of a fresh tree compiles the library), runs one
workload, relays its log lines and prints, as the last stdout line, the
result object {"correct", "attempted", "failed", "metrics"}.  Exits
nonzero, printing no result, when the build or the run fails; exits 1
after printing the result when an output check failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("synth", "bmc-sweep")
EXE = os.path.join("_build", "default", "perfbench", "sepebench.exe")
BUILD_TIMEOUT = 700
RUN_TIMEOUT = 175


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def dune():
    """dune from PATH, else through the opam switch environment."""
    if shutil.which("dune"):
        return ["dune"]
    return ["opam", "exec", "--", "dune"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    started = time.monotonic()
    try:
        code, _ = run(
            dune() + ["build", "--root", ".", "./perfbench/sepebench.exe"],
            BUILD_TIMEOUT,
            stdout=sys.stderr,
            # Build inside the tree only: no shared cache in the home dir.
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if code != 0 or not os.path.exists(EXE):
        sys.exit(f"run.py: build failed (exit {code})")
    build_s = time.monotonic() - started
    print(f"# build {build_s:.1f} s", flush=True)

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        code, out = run(cmd, RUN_TIMEOUT, stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: benchmark did not finish: {e}")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.exit(f"run.py: no result line (exit {code})")
    # Re-serialised so every float prints with its shortest exact digits.
    print(json.dumps(result), flush=True)
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
