#!/usr/bin/env python3
"""Build and run the D-DEMOS benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark is compiled from the
checkout's src/ and tools/ trees (Release) into the directory named by
$CARGO_TARGET_DIR, default .bench_build; write-ahead logs and other scratch
files go under <build dir>/work and are removed after each run. Extra
arguments (--tiny, --tamper ...) pass through to the benchmark binary.
The last line of standard output is the JSON result.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_sha():
    """Digest of every file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "tools", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "driver.hpp")):
        log("no D-DEMOS sources next to the benchmark")
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        return 2
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
           "--work-dir", work_dir, "--git-sha", git_sha(),
           "--source-sha", source_sha()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
