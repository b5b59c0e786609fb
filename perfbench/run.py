#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload swan_grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the repository's libraries, its
compsynth_serve daemon and the driver from source into $CARGO_TARGET_DIR
(default .bench_build), then runs the driver (perfbench/src/main.cpp). With
--trace 0 the result carries every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric; see perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (["cmake", "-S", os.path.relpath(HERE), "-B", build_dir],
                ["cmake", "--build", build_dir, "--target", "perfbench_driver",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def stop_group(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("perfbench: unknown workload", args.workload)
        return 2

    build_root = os.path.relpath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return 1
    work = os.path.join(build_root, "perfbench-work",
                        "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "compsynth", "tools",
                                       "compsynth_serve"),
           "--sketch-dir", os.path.join(os.path.relpath(HERE), "sketches"),
           "--work-dir", work]
    # Earlier runs leave file-system writeback behind (a service run writes a
    # checkpoint per answer); flush it so it does not land inside this run.
    os.sync()
    # The driver and the daemons it starts share a new process group, so a
    # timeout stops all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        stop_group(proc)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: driver failed with code", proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Keep exactly the metrics of the run's kind. An end-to-end metric the
    # driver could not measure (a percentile with too few samples beyond it)
    # fails the run; a per-layer metric a workload does not exercise reads 0.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log("perfbench: metric %s not measured" % m["name"])
                return 1
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log("perfbench: metric %s has unit %s, expected %s"
                % (m["name"], got["unit"], m["unit"]))
            return 1
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
