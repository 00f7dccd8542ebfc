#!/usr/bin/env python3
"""End-to-end benchmark of aigml: builds the benchmark from source, runs one
workload with one seed, and relays its result line.

    python3 e2ebench/run.py --workload opt-ml --seed 1 --seconds 45 --trace 0

Run it from the root of a source tree. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under that root; the first run builds, later runs
reuse the build. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; README.md in this directory
defines the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("opt-ml", "opt-gt")
# Width of the library's thread pool. The intended pin is min(4, nproc), but
# at this revision a pool of more than one thread can deadlock under serving
# load (a lost wake-up in ThreadPool::parallel_for, ROADMAP item 1), so the
# pool runs single-threaded until that is fixed. README.md, "Threads".
THREADS = 1
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_id():
    """The git commit when the tree is a checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    configure = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (configure, ["cmake", "--build", cmake_dir, "--target", "e2ebench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(cmake_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no aigml sources next to the benchmark (expected CMakeLists.txt and src/ in "
            + ROOT + ")")
        return 1
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    work_dir = os.path.join(build_dir, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(THREADS), "--work-dir", work_dir, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        trace = os.path.join(work_dir, "trace.json")
        if os.path.exists(trace):
            os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
            shutil.move(trace, os.path.join(build_dir, "traces",
                                            "%s-%d.json" % (args.workload, args.seed)))
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError) as exc:
        log("benchmark printed no result (%s), exit code %d" % (exc, proc.returncode))
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
