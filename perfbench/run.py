#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (the
program's libraries from src/ plus the benchmark binary) into
$CARGO_TARGET_DIR, or .bench_build when unset, runs the helper
self-tests, then runs the binary with the given arguments. Build and
self-test output goes to stderr; the binary's last stdout line is the
result JSON. The exit code is the binary's (2 for bad arguments), or
1 when the build or the self-tests fail.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_digest():
    """SHA-1 over the program sources, so a result names its code."""
    h = hashlib.sha1()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def main():
    os.chdir(ROOT)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("perfbench: helper self-tests failed")
        return 1
    env = dict(os.environ,
               PERFBENCH_GIT_COMMIT=git_commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    r = subprocess.run([os.path.join(build_dir, "perfbench")] + sys.argv[1:],
                       env=env)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
