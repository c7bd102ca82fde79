#!/usr/bin/env python3
"""Builds and runs the millipage benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ops-forked --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The perfbench binary is built from source (perfbench/CMakeLists.txt compiles
../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
The last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Traced runs also write their spans to <build dir>/traces/<workload>.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("apps-inproc", "ops-forked", "burst-forked")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j4", "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(bdir, "perfbench")


def run_bench(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (info lines, result dict) or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace_out", os.path.join(traces, workload + ".json")]
    if tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout also stops the forked hosts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: %s exited %d" % (workload, proc.returncode), file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line from %s" % workload, file=sys.stderr)
        return None
    return lines[:-1], result


def selftest(binary):
    """Tiny run of every workload, traced and untraced: every metric named in
    BENCHMARK.json is emitted with its unit, and every output check passes."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            got = run_bench(binary, w, 1, 2, trace, tiny=True)
            if got is None:
                print("FAIL %s trace=%d: no result" % (w, trace))
                ok = False
                continue
            _, res = got
            problems = []
            if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append("correct=%s attempted=%s failed=%s" %
                                (res.get("correct"), res.get("attempted"), res.get("failed")))
            metrics = res.get("metrics", {})
            for name, unit in wanted[trace].items():
                if name not in metrics:
                    problems.append("missing " + name)
                elif metrics[name].get("unit") != unit:
                    problems.append("%s unit %s != %s" % (name, metrics[name].get("unit"), unit))
            extra = sorted(set(metrics) - set(wanted[trace]))
            if extra:
                problems.append("undeclared " + ", ".join(extra))
            print("%s %s trace=%d%s" % ("FAIL" if problems else "ok", w, trace,
                                        ": " + "; ".join(problems) if problems else ""))
            ok = ok and not problems
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    got = run_bench(binary, args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    info, result = got
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
