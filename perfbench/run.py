#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-1354 --seed 1 --seconds 15 --trace 0

The script builds `perfbench/` (a package of its own, release profile,
offline) into `$CARGO_TARGET_DIR` (default `.bench_build` in the
checkout), runs the workload in a child process of its own, checks the
deterministic-counter ledger against earlier runs of the same binary,
workload and seed, and prints a provenance line followed by the result as
the last line of standard output:

    {"correct": true, "attempted": 57, "failed": 0, "metrics": {...}}

It exits non-zero without printing a result when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run's own deadline: a run must end within 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.abspath(configured)
    return os.path.join(ROOT, ".bench_build")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"build failed (exit {proc.returncode})")
        return None
    return os.path.join(target, "release", "sta-perfbench")


def command_output(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def commit():
    """The checked-out commit, or "unknown" outside a git work tree (the
    toplevel must be this checkout, not some repository around it)."""
    toplevel = command_output(["git", "rev-parse", "--show-toplevel"])
    if toplevel == "unknown" or os.path.realpath(toplevel) != os.path.realpath(ROOT):
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_ledger(target, binary, workload, seed, ledger):
    """Compares this run's deterministic counters with the first run of the
    same binary, workload and seed; returns the keys that moved."""
    ledger_dir = os.path.join(target, "perfbench-ledger")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, f"{file_digest(binary)}-{workload}-{seed}.json")
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(ledger, f, sort_keys=True, indent=1)
        return []
    with open(path) as f:
        first = json.load(f)
    return sorted(k for k in set(first) & set(ledger) if first[k] != ledger[k])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = target_dir()
    binary = build(target)
    if binary is None:
        return 1
    cmd = [
        binary, args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} failed (exit {proc.returncode})")
        return 1
    result = json.loads(lines[-1])

    moved = check_ledger(target, binary, args.workload, args.seed, result["ledger"])
    failed = result["failed"] + len(moved)
    for key in moved:
        log(f"deterministic counter {key} differs from an earlier run of this binary and seed")
    for note in result["notes"]:
        log(f"failed: {note}")

    provenance = {
        "workload": result["workload"],
        "why": result["why"],
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit(),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release (cargo defaults: opt-level 3, no LTO, 16 codegen units)",
        "verify_p90_samples": result["verify_p90_samples"],
        "ledger": result["ledger"],
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"] and not moved,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
