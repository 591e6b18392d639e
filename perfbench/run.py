#!/usr/bin/env python3
"""End-to-end benchmark of the artsci in-transit loop.

    python3 perfbench/run.py --workload <insitu_train|insitu_sim>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (which builds the
artsci libraries from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the workload with one OMP thread. Build output goes to stderr; stdout carries the program's lines,
the last of which is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no artsci source tree next to perfbench/")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out_dir, "--target",
                    "artsci_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "artsci_perfbench")


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    # Every workload runs 1 OMP thread; the program checks it.
    env = dict(os.environ, OMP_NUM_THREADS="1")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: {args.workload} exited {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"perfbench: malformed result line: {lines[-1]}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
