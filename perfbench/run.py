#!/usr/bin/env python3
"""Builds `psta` and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-iscas --seed 1 --seconds 20 --trace 0

Both builds go to $CARGO_TARGET_DIR (default: .bench_build at the root).
Build output goes to stderr; the benchmark's own output, ending in one
JSON result line, goes to stdout. The benchmark runs in a process group
of its own, which is killed after it exits (or after a time limit, or
when this script gets SIGTERM/SIGINT), so no `psta` child outlives a
run.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170


def build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env, os.path.join(ROOT, "Cargo.toml"), "-p", "psta-cli")
    build(env, os.path.join(HERE, "Cargo.toml"))
    env["PERFBENCH_PSTA"] = os.path.join(target, "release", "psta")
    bench = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([bench, *sys.argv[1:]], cwd=ROOT, env=env,
                            start_new_session=True)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = 1
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
    except SystemExit as e:
        code = e.code
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Scratch the benchmark removes itself, unless it was killed.
        shutil.rmtree(os.path.join(ROOT, ".perfbench-tmp"), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
