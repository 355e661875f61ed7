#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload train|serve_open|serve_closed \
        --seed N --seconds S --trace 0|1 [--inject ranking|bundle|count]

Run from the repository root. The first run configures and builds the
program's libraries and the benchmark binary (optimised, CMake) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. Exits non-zero when the
build fails or an output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)
    return done.stdout.strip() if done.returncode == 0 else ""


def source_id():
    """The git commit when ROOT is a git work tree, else a source digest."""
    try:
        top = git("rev-parse", "--show-toplevel")
        sha = git("rev-parse", "--short", "HEAD")
        if top and sha and os.path.realpath(top) == os.path.realpath(ROOT):
            return sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found under " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve_open", "serve_closed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", choices=["ranking", "bundle", "count"])
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", source_id()]
    if args.trace:
        command += ["--trace-file", os.path.join(
            build_dir, "perfbench_%s.trace.json" % args.workload)]
    if args.inject:
        command += ["--inject", args.inject]
    sys.stdout.flush()
    os.chdir(ROOT)
    # Replace this process: the benchmark is the only process left running,
    # so stopping it stops the run.
    os.execv(binary, command)


if __name__ == "__main__":
    main()
