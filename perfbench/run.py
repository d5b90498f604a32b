"""qfca benchmark: one workload, one seed, one fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20
    python3 perfbench/run.py --self-test

Workloads are ``lattice``, ``verify`` and ``cli`` (see ``perfbench/README.md``).
The workload runs in a child interpreter with a fixed environment:
``PYTHONHASHSEED=0``, no ``QFCA_BUDGET``, and ``PYTHONPATH`` set to this
checkout's ``src``.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics, with ``--trace 1`` the per-layer ones; the line before it
holds run details (tail percentile, rounds, failures' ratio) and the
environment (Python version, CPU count, commit, source digest).  The full
record is also written to ``.bench_out/``.  ``--all`` runs every workload
untraced and prints a table of the end-to-end metrics with the failure
ratio.  ``--self-test`` runs every workload at smoke size, untraced and
traced, and fails unless all outputs are correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("lattice", "verify", "cli")
TIMEOUT_S = 170


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QFCA_BUDGET", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "qfca"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(workload, seed, seconds, trace, size="full"):
    """The worker's result dict, or None if it failed or printed no result."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--size", size]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=hermetic_env(), stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def self_test() -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_worker(workload, 0, 1, trace, size="smoke")
            ok = result is not None and result["correct"] and result["failed"] == 0
            bad += not ok
            print(f"{workload:8s} trace={trace} "
                  + (f"ok, {result['attempted']} ops" if ok else "FAILED"))
    return 1 if bad else 0


def summary(seed, seconds) -> int:
    """Every workload's end-to-end metrics and failure ratio, one row each."""
    bad = 0
    for workload in WORKLOADS:
        result = run_worker(workload, seed, seconds, 0)
        if result is None:
            bad += 1
            continue
        cells = [f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
        cells.append(f"fail_ratio {result['detail']['fail_ratio']:.4g}")
        bad += not result["correct"]
        print(f"{workload:8s} " + "  ".join(cells))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qfca benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="every workload, as a table")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qfca", "__init__.py")):
        print(f"error: no qfca sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.seed is None or args.seconds is None:
        ap.error("--seed and --seconds are required")
    if args.all:
        return summary(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required (or --all)")
    result = run_worker(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "detail": result.pop("detail"),
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "git_commit": git_commit(), "source_sha256": source_digest()},
    }
    record.update(result)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shown = {k: v for k, v in record["detail"].items() if k not in ("op_ms", "series")}
    print(json.dumps({"workload": args.workload, "detail": shown, "env": record["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
