#!/usr/bin/env python3
"""Builds the emisbench driver from source and runs one workload.

Run from the repository root:

    python3 emisbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 emisbench/run.py --report R [--seconds S]

The first form prints the driver's output; its last line is one JSON object
with the keys correct, attempted, failed and metrics. The second form is the
steadiness report: it runs every workload R times, interleaved, with seeds
1..R and prints per metric the median, quartiles, min/max and split-half
median difference against the bound declared in BENCHMARK.json.

The build goes to $CARGO_TARGET_DIR/emisbench-<hash of the source root>
(default .bench_build), so two checkouts sharing a target directory never
build or time each other's sources. EMIS_*
environment variables are removed before the driver starts, so no
environment default can change a workload.
"""
import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(os.path.abspath(target), "emisbench-" + key)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("EMIS_")}


def build():
    """Configures (once) and builds the driver; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("emisbench: library sources (src/) not found next to emisbench/")
        sys.exit(2)
    out = build_dir()
    env = clean_env()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr,
                      env=env).returncode != 0:
        sys.exit(2)
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    return out


def host_facts():
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            thp = f.read().split("[")[1].split("]")[0]
    except (OSError, IndexError):
        thp = "unknown"
    return {"nproc": os.cpu_count(), "thp": thp, "load1": os.getloadavg()[0]}


def run_driver(out, workload, seed, seconds, trace, smoke=False):
    """Runs the driver once; returns (exit code, stdout lines, host facts)."""
    cmd = [os.path.join(out, "emisbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(out, "results")]
    if smoke:
        cmd.append("--smoke")
    facts = host_facts()
    csw0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nivcsw
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("emisbench: driver exceeded %d s" % RUN_LIMIT_S)
        return 3, [], facts
    facts["invol_csw"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nivcsw - csw0
    return proc.returncode, proc.stdout.splitlines(), facts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def report(out, repeats, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in names}
    hosts = []
    for i in range(repeats):
        for w in names:
            code, lines, facts = run_driver(out, w, i + 1, seconds, 0)
            hosts.append(facts)
            result = json.loads(lines[-1]) if lines else {}
            log("run %d %s seed %d exit %d correct %s host %s" % (
                i + 1, w, i + 1, code, result.get("correct"), json.dumps(facts)))
            for name, m in result.get("metrics", {}).items():
                values[w].setdefault(name, []).append(m["value"])
    print("%-22s %-18s %12s %12s %12s %12s %12s %8s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "min", "max", "iqr%",
        "split%", "bound%"))
    for w in names:
        for name, v in values[w].items():
            q1, med, q3 = quartiles(v)
            half = len(v) // 2
            split = (abs(statistics.median(v[half:]) - statistics.median(v[:half]))
                     / med if half and med else 0.0)
            iqr = (q3 - q1) / med if med else 0.0
            print("%-22s %-18s %12.6g %12.6g %12.6g %12.6g %12.6g %8.2f %8.2f %6.1f" % (
                w, name, med, q1, q3, min(v), max(v), 100 * iqr, 100 * split,
                100 * bounds.get(name, 0)))
    print("host: nproc %s, thp %s, load1 %.2f..%.2f, invol_csw per run %d..%d" % (
        hosts[0]["nproc"], hosts[0]["thp"], min(h["load1"] for h in hosts),
        max(h["load1"] for h in hosts), min(h.get("invol_csw", 0) for h in hosts),
        max(h.get("invol_csw", 0) for h in hosts)))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    p.add_argument("--report", type=int, metavar="R",
                   help="steadiness report: every workload R times")
    a = p.parse_args()
    if a.report is None and not a.workload:
        p.error("--workload or --report is required")
    started = time.monotonic()
    out = build()
    if a.report is not None:
        return report(out, a.report, a.seconds)
    log("emisbench: build ready in %.1f s" % (time.monotonic() - started))
    code, lines, facts = run_driver(out, a.workload, a.seed, a.seconds, a.trace,
                                    a.smoke)
    log("host: " + json.dumps(facts))
    if lines:
        print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
