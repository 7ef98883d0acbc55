#!/usr/bin/env python3
"""Build and run the time-to-discovery benchmark (see README.md here).

    python3 ttdbench/run.py --workload paper_discovery --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
ttdbench/ (which pulls in the repository's own CMake build of the
autocat library and runner_daemon) into .bench_build/ttdbench; later
runs rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 when the correctness gate passes, 1 when it fails, 2 for
a usage, build or set-up error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ttdbench")


def fail(message):
    print("ttdbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository checkout around " + HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    binary = os.path.join(BUILD, "ttdbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    if os.path.getmtime(binary) != before:
        # Flush the build's writeback so it does not stall the run's
        # own fsyncs (daemon port files, checkpoints).
        os.sync()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build()
    env = dict(os.environ, TTDBENCH_GIT_COMMIT=git_commit())
    cmd = [os.path.join(BUILD, "ttdbench"), *sys.argv[1:],
           "--out-dir", os.path.join(BUILD, "out")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
