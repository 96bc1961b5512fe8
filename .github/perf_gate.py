#!/usr/bin/env python3
"""Paired wall-time gate: a change against its parent, on the same machine.

    python3 .github/perf_gate.py PARENT_DIR HEAD_DIR

Runs `python3 perfbench/run.py` for each gated workload in both checkouts,
PAIRS times, alternating which side goes first (an even count, so each side
goes first equally often and drifting machine load falls on both alike),
and reads the result line each run prints last. Fails when a head run is
not correct, the head fails a larger share of operations than the parent,
or a head median is worse than the parent median by more than the metric's
`bound` in HEAD_DIR/BENCHMARK.json (in the direction of its `better`).
Standard library only.
"""

import json
import statistics
import subprocess
import sys

WORKLOADS = ["analyze_cold", "batch_warm", "serve_mixed"]
PAIRS = 6
ARGS = ["--seed", "1", "--seconds", "3", "--trace", "0"]


def run(checkout, workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload] + ARGS,
                          cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit("perf gate: %s in %s exited %d" % (workload, checkout, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(parent, head, better):
    """Change of head against parent as a share of parent; positive is worse."""
    change = head - parent if better == "lower" else parent - head
    if parent == 0:
        return float("inf") if change > 0 else 0.0
    return change / abs(parent)


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf_gate.py PARENT_DIR HEAD_DIR")
    dirs = {"parent": sys.argv[1], "head": sys.argv[2]}
    with open(dirs["head"] + "/BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    failures = []
    for workload in WORKLOADS:
        runs = {"parent": [], "head": []}
        for i in range(PAIRS):
            for side in (["parent", "head"] if i % 2 == 0 else ["head", "parent"]):
                runs[side].append(run(dirs[side], workload))
        if not all(r["correct"] for r in runs["head"]):
            failures.append("%s: a head run is not correct" % workload)
        share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                 for side, rs in runs.items()}
        if share["head"] > share["parent"]:
            failures.append("%s: head fails %.4f of operations, parent %.4f"
                            % (workload, share["head"], share["parent"]))
        print("%s (%d pairs)" % (workload, PAIRS))
        for m in metrics:
            parent, head = (statistics.median(r["metrics"][m["name"]]["value"] for r in runs[side])
                            for side in ("parent", "head"))
            worse = worse_by(parent, head, m["better"])
            line = "%s %s: parent %.4f, head %.4f, worse by %+.1f%% (bound %.1f%%)" % (
                workload, m["name"], parent, head, 100 * worse, 100 * m["bound"])
            print("  " + line)
            if worse > m["bound"]:
                failures.append(line)
    for f in failures:
        print("perf gate: FAIL " + f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
