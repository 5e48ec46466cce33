#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload net_steady --seed 1 --seconds 20 --trace 0

Workloads: net_steady, prefetch_online (see perfbench/README.md).
The script configures and builds perfbench/ (which compiles the libraries
under src/) into .bench_build/ with CMake, runs the perfbench binary with
the same arguments, and relays its standard output, whose last line is the
JSON result. Build output and the binary's diagnostics go to standard error;
per-run reports and span files land in .bench_build/reports/.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

_running = []  # child processes, each the leader of its own process group


def _kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _on_signal(signum, _frame):
    for proc in _running:
        _kill(proc)
    sys.exit(128 + signum)


def run(command, timeout, stdout):
    """Runs `command` in its own process group; on timeout kills the whole
    group (make and compiler children included) and waits for it."""
    proc = subprocess.Popen(command, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    _running.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise
    finally:
        _running.remove(proc)
    return proc.returncode, out


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # stdout=stderr keeps the build's chatter off the result stream.
        code, _ = run(step, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            print(f"run.py: '{' '.join(step)}' failed with code {code}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    try:
        if not build():
            return 2
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", os.path.join(BUILD_DIR, "reports")]
    try:
        code, out = run(command, RUN_TIMEOUT_S, subprocess.PIPE)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"run.py: benchmark run failed: {error}", file=sys.stderr)
        return 3
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"run.py: perfbench exited with code {code}", file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("run.py: perfbench printed no result line", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
