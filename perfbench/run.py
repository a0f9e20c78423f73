#!/usr/bin/env python3
"""Build and run the ctcpsim performance benchmark.

Run from the root of a ctcpsim checkout:

  python3 perfbench/run.py --workload fig6_serial --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --layers [--workload NAME]   # per-layer table
  python3 perfbench/run.py --selftest                   # every check trips

The first call builds the simulator libraries, ctcpd and the runner in
Release mode under .bench_build/perfbench (never the repository's own
build files). The runner's last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; this
script relays it. Every input is one of the repository's deterministic
kernels, so --seed is accepted and ignored.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = os.path.join(".bench_build", "work")
WORKLOADS = ("fig6_serial", "fig6_observed", "daemon_sweep")
# A runner call is stopped after its measured time plus this margin,
# which covers set-up, host gauges, the last round and its checks (and
# the fixed work of the traced run, the self-test and the layer table).
RUNNER_MARGIN_S = 130


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure until it succeeds once, then (re)build; build output
    goes to stderr."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", here, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--parallel", jobs],
        stdout=sys.stderr, check=False).returncode == 0


def runner(args, seconds=0):
    """Run the runner in its own process group; returns (rc, stdout).

    The group lets a timeout stop the runner together with any ctcpd it
    started."""
    cmd = [os.path.join(BUILD_DIR, "ctcp_perfbench")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=1.1 * seconds + RUNNER_MARGIN_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("runner timed out")
        return 1, ""
    return proc.returncode, out


def run_workload(workload, seconds, trace):
    work = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    args = ["--workload", workload, "--seconds", str(seconds),
            "--trace", str(trace),
            "--ctcpd", os.path.join(BUILD_DIR, "ctcpd"),
            "--work-dir", work]
    # Set-up is timed from the runner process's start, taken here on the
    # same monotonic clock the runner reads.
    args += ["--t0", repr(time.monotonic())]
    rc, out = runner(args, seconds)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        log(f"no result from the runner (exit {rc})")
        return None, rc or 1
    return result, rc


def print_layers(workload, result):
    print(f"\nper-layer metrics, workload {workload} "
          f"(attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']})")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:34s} {m['value']:16.4f} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted and ignored: the inputs are fixed")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--layers", action="store_true",
                    help="print the traced run's per-layer table")
    ap.add_argument("--selftest", action="store_true",
                    help="feed every check a doctored input")
    args = ap.parse_args()
    if not (args.layers or args.selftest or args.workload):
        ap.error("--workload is required")

    if not build():
        log("build failed")
        return 1

    if args.selftest:
        rc, out = runner(["--selftest", "--work-dir",
                          os.path.join(WORK_ROOT, f"selftest-{os.getpid()}")])
        print(out, end="")
        return rc

    if args.layers:
        rc_all = 0
        for workload in [args.workload] if args.workload else WORKLOADS:
            result, rc = run_workload(workload, args.seconds, 1)
            if result is None:
                return rc
            print_layers(workload, result)
            rc_all = rc_all or rc
        return rc_all

    result, rc = run_workload(args.workload, args.seconds, args.trace)
    if result is None:
        return rc
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
