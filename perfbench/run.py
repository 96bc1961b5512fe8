#!/usr/bin/env python3
"""Build the analyser and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_cold --seed 1 --seconds 10 --trace 0

Workloads: analyze_cold, batch_warm, serve_mixed. The last line of standard
output is the result object; build output goes to standard error. Run files
(ledgers, Chrome traces, the daemon's log) are written under .perfbench/.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the root of a checkout of the analyser (dune-project, lib/ and bin/ not found)", 2)
    # No shared dune cache: the build reads and writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["perfbench/main.exe", "bin/vrpd.exe"]
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 1)
    if build.returncode != 0:
        fail("build failed", 1)
    out = ".perfbench"
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join("_build", "default", "perfbench", "main.exe")] + sys.argv[1:] + [
        "--vrpd", os.path.join("_build", "default", "bin", "vrpd.exe"), "--out", out]
    # Own process group, so that a run cut short takes its vrpd child along.
    run = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        fail("run exceeded %ds" % RUN_TIMEOUT_S, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
