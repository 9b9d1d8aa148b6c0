#!/usr/bin/env python3
"""Build wavesyn and wsbench.exe from source, then run one workload.

Run from the root of a wavesyn checkout:

    python3 wsbench/run.py --workload read-cold --seed 1 --seconds 10 --trace 0

Workloads: build, read-cold, read-hot, sharded, and write (run by hand
only). The last line of standard output is the JSON result; everything
before it is the report (see wsbench/README.md). Build output goes to
standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("build", "read-cold", "read-hot", "write", "sharded")
# One run measures --seconds plus set-up and read-back; anything slower
# than this is a hang.
RUN_TIMEOUT_S = 170


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("wsbench: run from the root of a wavesyn checkout", file=sys.stderr)
        return 1

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".",
         "./wsbench/wsbench.exe", "./bin/wavesyn_cli.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("wsbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["WSBENCH_GIT_REV"] = git_rev()
    cmd = ["_build/default/wsbench/wsbench.exe",
           "--cli", "_build/default/bin/wavesyn_cli.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # On two or more cores, pin a single-threaded server to the first
    # core and this script (with wsbench.exe and the clients it forks) to the
    # last. Unpinned, the scheduler's placement of three busy processes
    # on two cores flips between runs, and read-cold throughput with it
    # (about 18k or 30k requests/s on the 2-core reference host). The
    # sharded server runs a front-end and two shard domains that need
    # every core, so that workload runs unpinned.
    cpus = sorted(os.sched_getaffinity(0))
    if (args.workload != "sharded" and len(cpus) >= 2
            and shutil.which("taskset")):
        cmd += ["--server-cpu", str(cpus[0])]
        os.sched_setaffinity(0, {cpus[-1]})
    # Own process group, so a hung run takes its server processes with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("wsbench: run timed out", file=sys.stderr)
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
