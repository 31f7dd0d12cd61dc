#!/usr/bin/env python3
"""Builds and runs the wss benchmark.

    python3 wssbench/run.py --workload study|stream_file|serve_mixed \\
        --seed N --seconds S --trace 0|1
    python3 wssbench/run.py --selftest

Run from the root of a source tree. The program and the harness are
built from source into .bench_build/ (Release), the harness runs the
workload, and its last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without
a result, when the tree cannot be built or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "wssbench")
HARNESS_TIMEOUT_S = 170
WORKLOADS = ("study", "stream_file", "serve_mixed")


def fail(msg):
    print("wssbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_fingerprint():
    """sha256 over the files the build reads (a checkout need not be a
    git repository, so this stands in for the commit id)."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "tools", os.path.basename(BENCH_DIR)]
    paths = []
    for top in tops:
        full = os.path.join(ROOT, top)
        if os.path.isfile(full):
            paths.append(top)
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for name in sorted(filenames):
                full_name = os.path.join(dirpath, name)
                paths.append(os.path.relpath(full_name, ROOT))
    for rel in sorted(paths):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(targets):
    """Configures and builds `targets`; build output goes to a log."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no wss source tree beside %s" % BENCH_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(os.cpu_count() or 2), "--target"] + targets)
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def declared_metrics():
    """Metric names BENCHMARK.json declares, by trace mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        build(["wssbench_selftest"])
        selftest = os.path.join(BUILD_DIR, "wssbench_selftest")
        sys.exit(subprocess.call([selftest]))
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build(["wss", "wssbench"])
    work = os.path.join(BUILD_ROOT, "work",
                        "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "wssbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", work, "--wss", os.path.join(BUILD_DIR, "wss", "wss"),
           "--commit", source_fingerprint()]
    # Its own process group, so a timeout also stops the `wss` children
    # the harness starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s"
             % (args.workload, HARNESS_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("%s exited with %d" % (args.workload, proc.returncode))

    lines = out.strip().splitlines()
    if not lines:
        fail("no output")
    result = json.loads(lines[-1])
    declared = declared_metrics()
    if declared is not None:
        want = declared[args.trace]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail("metrics %s do not match BENCHMARK.json %s" % (got, want))
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
