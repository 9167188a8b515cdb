#!/usr/bin/env python3
"""NObLe serving benchmark runner.

Run one workload:

    python3 perfbench/run.py --workload wifi_light --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the library under src/) into .bench_build/ on first
use, runs the benchmark binary with every NOBLE_* variable removed from its
environment, appends the run with its provenance (git sha, CPU model,
dispatched ISA, nproc, seed) to .bench_out/results.jsonl, and prints the
binary's result line last: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

Compare two result sets (e.g. parent and change, each a results.jsonl):

    python3 perfbench/run.py compare base.jsonl change.jsonl

prints, per workload and end-to-end metric, both medians and quartiles and
a verdict against the bounds in BENCHMARK.json.

Spread check over the runs of one result set:

    python3 perfbench/run.py spread results.jsonl
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "noble_perfbench")
WORKLOADS = ("wifi_light", "bulk_batch", "wire_mixed", "spill_overflow")
RUN_TIMEOUT_S = 170
BUILD_COOLDOWN_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; the lock serializes concurrent runs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the NObLe sources (src/) are not in this checkout")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    os.makedirs(BUILD, exist_ok=True)
    built_before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "--target", "noble_perfbench", "-j", jobs])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                 text=True)
            if res.returncode != 0:
                log(res.stdout[-4000:])
                log("perfbench: build step failed: " + " ".join(cmd))
                return False
    if os.path.getmtime(BINARY) != built_before:
        # Flush the build's dirty pages and let the host settle after the
        # all-core compile: on a shared virtual machine the first one or two
        # runs within a minute of a build measured off from the ones after.
        os.sync()
        time.sleep(BUILD_COOLDOWN_S)
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(args):
    if not build():
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("NOBLE_")}
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 3
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if not lines:
        log("perfbench: the benchmark printed nothing")
        return res.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("\n".join(lines[-20:]))
        log("perfbench: no result line")
        return res.returncode or 4
    provenance, report = {}, {}
    for line in lines[:-1]:
        if line.startswith('{"provenance"'):
            provenance = json.loads(line)["provenance"]
        elif line.startswith('{"report"'):
            report = json.loads(line)["report"]
        else:
            print(line)
    provenance.update({"git_sha": git_sha(), "trace": args.trace, "seconds": args.seconds,
                       "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())})
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": provenance, "report": report, "result": result}
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print("provenance: " + json.dumps(provenance))
    print(lines[-1], flush=True)
    return res.returncode


# --- result sets ----------------------------------------------------------------

def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == 0 and r["result"].get("correct")
            and metric in r["result"]["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (float("nan"),) * 3
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(args):
    runs = load(args.results)
    worst = 0.0
    for w in WORKLOADS:
        for m in spec()["end_to_end"]:
            v = values(runs, w, m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            share = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s":
                if share > m["bound"]:
                    flag = "  OVER BOUND"
                elif share > m["bound"] / 3:
                    flag = "  over bound/3"
                worst = max(worst, share / m["bound"])
            print(f"{w:15s} {m['name']:18s} n={len(v):2d} median={med:12.4f} "
                  f"iqr/median={share:7.4f} bound={m['bound']}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def compare(args):
    base, new = load(args.base), load(args.change)
    bad = False
    for w in WORKLOADS:
        for m in spec()["end_to_end"]:
            b, n = values(base, w, m["name"]), values(new, w, m["name"])
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            bmed, nmed = bq[1], nq[1]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (nmed - bmed) / bmed if bmed else 0.0
            spread_b = (bq[2] - bq[0]) / bmed if bmed else float("inf")
            if worse_by > m["bound"]:
                verdict = "REGRESSION"
                bad = True
            elif spread_b > m["bound"]:
                verdict = "unresolved"
            elif -worse_by > spread_b:
                verdict = "better"
            else:
                verdict = "unchanged"
            print(f"{w:15s} {m['name']:18s} base {bmed:12.4f} [{bq[0]:.4f}, {bq[2]:.4f}]  "
                  f"change {nmed:12.4f} [{nq[0]:.4f}, {nq[2]:.4f}]  "
                  f"{-sign * worse_by * 100:+7.2f}%  {verdict}")
    return 1 if bad else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("change")
        return compare(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        p = argparse.ArgumentParser(prog="run.py spread")
        p.add_argument("results")
        return spread(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
