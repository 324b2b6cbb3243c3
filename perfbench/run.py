#!/usr/bin/env python3
"""Build the zkVC benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and bin/zkvc_cli.exe with dune, then runs
main.exe with the same arguments; its last line of standard output is the
JSON result. Everything the build and the run write stays inside the
checkout (_build/ and .perfbench_tmp/). Exits non-zero, printing no
result, when the repository sources are missing or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TMP = os.path.join(ROOT, ".perfbench_tmp")
RUN_TIMEOUT_S = 170

child = None


def stop_child(*_):
    """Kill the benchmark and everything it started (its process group)."""
    if child is not None and child.poll() is None:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.exit(1)


def main():
    global child
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project next to perfbench/; nothing to build", file=sys.stderr)
        return 1
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=TMP)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        print("perfbench: neither dune nor opam is on PATH", file=sys.stderr)
        return 1
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/main.exe", "./bin/zkvc_cli.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cli = os.path.join("_build", "default", "bin", "zkvc_cli.exe")
    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    child = subprocess.Popen([exe, "--cli", cli] + sys.argv[1:], cwd=ROOT, env=env,
                             start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        stop_child()
    return code


if __name__ == "__main__":
    sys.exit(main())
