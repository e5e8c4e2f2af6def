#!/usr/bin/env python3
"""Build and run the h4d end-to-end benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hmp-ragged --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (a CMake project that
compiles the library from ../src) in .bench_build/perfbench; later calls
only re-check the build. Build output goes to stderr. The benchmark's own
output goes to stdout, ending with one JSON line. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DATA_DIR = os.path.join(".bench_build", "perfbench-data")
BINARY = os.path.join(BUILD_DIR, "h4d_perfbench")
SOURCE_DIRS = ("src", "bench", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "core", "analysis.hpp")):
        fail("no h4d sources under src/ (run from the root of a source checkout)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def sources_digest():
    """A digest of the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def source_id():
    """The git commit, marked dirty with the sources digest when the sources
    differ from it; the digest alone in a checkout without git."""
    if os.path.isdir(".git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--", *SOURCE_DIRS],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            if not status.stdout.strip():
                return head.stdout.strip()
            return head.stdout.strip() + "-dirty+" + sources_digest()
    return sources_digest()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--toy", action="store_true", help="seconds-scale datasets (smoke test)")
    p.add_argument("--chrome-trace", help="write the traced pass's spans here")
    args = p.parse_args()

    os.chdir(ROOT)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", DATA_DIR, "--commit", source_id()]
    if args.toy:
        cmd.append("--toy")
    if args.chrome_trace:
        cmd += ["--chrome-trace", args.chrome_trace]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
