#!/usr/bin/env python3
"""Build and run the wfc end-to-end benchmark.

    python3 wfcbench/run.py --workload routed_hot --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first run configures and builds the
benchmark (wfcbench/CMakeLists.txt, Release) into .bench_build/wfcbench;
later runs only rebuild what changed.  Every workload runs in its own
process.  The last line of stdout is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced run (--trace 1).  `--workload all` runs every workload in turn and
prints one table of all their metrics instead.  A wrong, missing or
duplicate answer exits 1 after a result with "correct": false; a failed build
or run exits 2 with a message and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["routed_hot", "direct_hot", "direct_cold"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "wfcbench", "wfcbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("wfcbench: " + message, file=sys.stderr)
    sys.exit(2)


def env():
    # Compiler and run temporaries stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    out = dict(os.environ)
    out["TMPDIR"] = tmp
    return out


def build():
    target = os.path.join(BUILD, "wfcbench")
    steps = []
    if not os.path.exists(os.path.join(target, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", target,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", target, "--target", "wfcbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env(),
                                  capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed: " + " ".join(step))


def run_one(workload, seed, seconds, trace):
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env(), capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": run timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        fail("%s: exited %d without a result" % (workload, done.returncode))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(workload + ": malformed result line")
    return done.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()

    if args.workload != "all":
        code, text, result = run_one(args.workload, args.seed, args.seconds,
                                     args.trace)
        print("\n".join(text))
        print(json.dumps(result))
        sys.exit(code)

    results = {}
    breakdowns = {}
    worst = 0
    for workload in WORKLOADS:
        code, text, result = run_one(workload, args.seed, args.seconds,
                                     args.trace)
        print("\n".join(text))
        worst = max(worst, code)
        results[workload] = result
        for line in text:
            if line.strip().startswith("BREAKDOWN "):
                breakdowns[workload] = dict(
                    kv.split("=") for kv in line.split()[2:])
    names = list(results[WORKLOADS[0]]["metrics"])
    print("\n%-30s %-6s" % ("metric", "unit")
          + "".join("%16s" % w for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print("%-30s %-6s" % (name, unit) + "".join(
            "%16.4f" % results[w]["metrics"][name]["value"]
            for w in WORKLOADS))
    if args.trace == 0:
        # Not a gated metric: any error fails the run, so it is 0 whenever
        # the run is accepted.
        print("%-30s %-6s" % ("error_ratio", "1") + "".join(
            "%16.4f" % (results[w]["failed"] / results[w]["attempted"])
            for w in WORKLOADS))
    print("%-30s %-6s" % ("correct", "") + "".join(
        "%16s" % results[w]["correct"] for w in WORKLOADS))
    if "routed_hot" in breakdowns and "direct_hot" in breakdowns:
        routed, direct = breakdowns["routed_hot"], breakdowns["direct_hot"]
        print("\nwhere routed_hot's extra mean latency over direct_hot goes"
              " (us):")
        rows = [("net (client, sockets, front net::Server)", "net", "net"),
                ("cluster: Router::on_line inline", "router_inline", None),
                ("cluster: hop rest", "router_hop", None),
                ("service: parse", "parse", "parse"),
                ("service: submit_async -> done", "service", "service")]
        for label, r_key, d_key in rows:
            r = float(routed.get(r_key, 0))
            d = float(direct.get(d_key, 0)) if d_key else 0.0
            print("  %-44s %10.2f %10.2f %+10.2f" % (label, r, d, r - d))
        r, d = float(routed["client"]), float(direct["client"])
        print("  %-44s %10.2f %10.2f %+10.2f" % ("client mean latency", r, d,
                                                 r - d))
    sys.exit(worst)


if __name__ == "__main__":
    main()
