#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all).

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is non-zero when the build fails, an operation fails or an output does not
verify. Build output goes to $CARGO_TARGET_DIR (default: .bench_build);
run output to .bench_work/, which is removed afterwards.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk", "small", "analysis", "proc_bulk"]
RUN_TIMEOUT_S = 170


def build(env):
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build chatter goes to stderr: stdout ends with the result line.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def commit_id(env):
    parent = os.path.dirname(ROOT)
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(env, GIT_CEILING_DIRECTORIES=parent), timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(binary, workload, args, env):
    """Runs one workload; returns (exit code, parsed result or None)."""
    # Start from a flushed disk, so that no run pays for the writeback
    # (and the discards of the deleted output) of the one before it.
    os.sync()
    proc = subprocess.Popen(
        [binary, "--workload", workload] + args, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum, _frame):
        # Killed from outside: take the run's whole session down with us.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The process node's children share the session: stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out = ""
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
    finally:
        work = os.path.join(ROOT, ".bench_work")
        shutil.rmtree(os.path.join(work, f"{workload}-{proc.pid}"), ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    code = proc.returncode if result is not None else (proc.returncode or 1)
    return code, result


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        print(__doc__, file=sys.stderr)
        return 2
    i = argv.index("--workload")
    workload = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    if workload != "all" and workload not in WORKLOADS:
        print(f"perfbench: unknown workload {workload}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit_id(env)
    if workload != "all":
        code, result = run_one(binary, workload, rest, env)
        return code if result is not None else (code or 1)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, result = run_one(binary, name, rest, env)
        worst = worst or code or (1 if result is None else 0)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
