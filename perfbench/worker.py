"""One workload in one fresh process: set up, run the ops, check them, report.

Run by ``run.py``, which fixes the environment; prints one JSON line.

Untraced (``--trace 0``): set-up runs at least ``SETUP_REPEATS`` times and
until the set-ups have taken ``SETUP_MIN_S``, each time re-importing
``qfca`` and rebuilding every input, and ``setup_s`` is the median.  Then
whole rounds of ops run in a closed loop (one caller, each op starts when
the previous one has finished) until less than half a round of
``--seconds`` is left, and at least the workload's minimum number of rounds.
Each op's output is checked between ops; checks are not part of an op's
latency.  Every reported time is scaled to a nominal machine speed from a
reference timed around it (``pace.py``); measured times are in the details.

Traced (``--trace 1``): the round runs once untraced and once with the
tracing wrappers installed; the per-layer metrics come from the traced pass
and ``trace.overhead_ratio`` compares the two.  Spans are written to
``.bench_out/trace-<workload>-seed<seed>.tsv``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import pace
import tracing
import workloads

SETUP_REPEATS = 3
SETUP_MIN_S = 1.5  # so that a cheap set-up is timed often enough for a steady median
SETUP_SAMPLES = 4  # reference samples before and after each set-up


def fresh_qfca():
    for name in [m for m in sys.modules if m == "qfca" or m.startswith("qfca.")]:
        del sys.modules[name]
    return importlib.import_module("qfca")


def set_up(workload, seed, size, golden, repeats, min_s):
    """The last set-up, and each one's measured and speed-scaled time.

    Each set-up is scaled by the median of reference samples taken right
    before and right after it.
    """
    speed = pace.Pace("kernel", pace.kernel)
    speed.probe()  # warm-up, not kept
    times, scaled = [], []
    while len(times) < repeats or sum(times) < min_s:
        first = len(speed.samples)
        speed.sample(SETUP_SAMPLES)
        start = time.perf_counter()
        setup = workloads.build(fresh_qfca(), workload, seed, size, golden)
        times.append(time.perf_counter() - start)
        speed.sample(SETUP_SAMPLES)
        scaled.append(times[-1] * speed.ref_s / statistics.median(speed.samples[first:]))
    return setup, times, scaled


class Runner:
    """Runs ops one at a time, keeping latencies and failures."""

    def __init__(self, golden):
        self.golden = golden
        self.latencies: list[float] = []
        self.midpoints: list[float] = []
        self.by_op: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.output_bytes = 0
        self.child_peak_kb = 0

    def _took(self, op, start):
        dt = time.perf_counter() - start
        self.latencies.append(dt)
        self.midpoints.append(start + dt / 2)
        self.by_op.setdefault(op.name, []).append(dt)

    def run(self, op, call=None):
        start = time.perf_counter()
        try:
            out = (call or op.run)()
        except Exception as e:  # a failed op is counted, never fatal
            self._took(op, start)
            self.failures.append(f"{op.name}: {type(e).__name__}: {e}")
            return
        self._took(op, start)
        if isinstance(op, workloads.CliOp):  # (exit code, stdout, peak kB)
            self.output_bytes += len(out[1])
            self.child_peak_kb = max(self.child_peak_kb, out[2] or 0)
        try:
            ok = workloads.check(op, out, self.golden)
        except Exception as e:
            ok = False
            self.failures.append(f"{op.name}: check raised {type(e).__name__}: {e}")
        else:
            if not ok:
                self.failures.append(f"{op.name}: output differs from the expected one")


def tail_percentile(n):
    """The highest of p99.9/p99/p95/p90/p75/p50 with >= 10 of n samples beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


def pace_for(workload):
    """The reference that tracks this workload's speed (see ``pace.py``)."""
    if workload == "cli":
        env = dict(os.environ)
        return pace.Pace("interpreter", lambda: pace.interpreter(env, workloads.ROOT))
    return pace.Pace("kernel", pace.kernel)


def latency_metrics(lat, p):
    """ops_per_s, op_ms.p50 and op_ms.tail (at percentile ``p``) of latencies
    in seconds, and the number of samples beyond the tail."""
    lat = sorted(lat)
    rank = math.ceil(p / 100 * len(lat))
    return {"ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(lat) * 1000, "unit": "ms"},
            "op_ms.tail": {"value": lat[rank - 1] * 1000, "unit": "ms"}}, len(lat) - rank


def timed(setup, seconds, golden, workload):
    """Closed loop over whole rounds, at least ``setup.min_rounds`` of them.

    The tail percentile is fixed by the shortest run the loop allows, so it
    is the same in every run of a workload whatever the machine's speed.
    Reference samples are taken between ops (see ``pace.Pace``), and a
    window of them before the first op and after the last.
    """
    runner = Runner(golden)
    speed = pace_for(workload)
    speed.probe()  # warm-up, not kept
    speed.sample(pace.WINDOW)
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in setup.ops:
            speed.maybe_sample()
            runner.run(op)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= setup.min_rounds and elapsed + elapsed / rounds / 2 >= seconds:
            break
    speed.sample(pace.WINDOW)
    p = tail_percentile(len(setup.ops) * setup.min_rounds)
    scaled = [dt * speed.scale(t) for dt, t in zip(runner.latencies, runner.midpoints)]
    metrics, beyond = latency_metrics(scaled, p)
    measured, _ = latency_metrics(runner.latencies, p)
    if workload == "cli":  # the largest command's own peak (see cli_probe.py)
        peak_kb = runner.child_peak_kb or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    detail = {"rounds": rounds, "wall_s": elapsed, "tail_percentile": p,
              "tail_samples_beyond": beyond, "samples": len(scaled),
              "measured": {k: m["value"] for k, m in measured.items()},
              "reference": {"name": speed.name, "samples": len(speed.samples),
                            "median_s": speed.median_s(), "nominal_s": speed.ref_s},
              "op_ms": {name: statistics.median(ts) * 1000 for name, ts in runner.by_op.items()},
              "series": {"op_s": runner.latencies,
                         "op_at_s": [t - start for t in runner.midpoints],
                         "reference_s": speed.samples,
                         "reference_at_s": [t - start for t in speed.times]}}
    return runner, metrics, detail


def _median_wall(argv, repeats=5):
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=workloads.ROOT, check=True, capture_output=True, timeout=60)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def traced(setup, golden, workload, seed):
    ops = setup.ops
    plain = Runner(golden)
    for op in ops:
        plain.run(op)
    trace = tracing.Trace()
    runner = Runner(golden)
    if workload == "cli":
        path = os.path.join(workloads.OUT_DIR, f"probe-seed{seed}.json")
        for k, op in enumerate(ops):
            runner.run(op, lambda: workloads.run_cli(op.args, path))
            with open(path, encoding="utf-8") as fh:
                trace.add(json.load(fh), op=k)
        os.remove(path)
        interp = _median_wall([sys.executable, "-c", "pass"])
        extra = {"cli.interp_s": interp,
                 "cli.import_s": _median_wall([sys.executable, "-c", "import qfca"]) - interp,
                 "cli.output_bytes": plain.output_bytes}
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for k, op in enumerate(ops):
                tracer.op = k
                runner.run(op)
        finally:
            tracer.uninstall()
        trace.add(tracer.dump())
        extra = {}
    extra["trace.overhead_ratio"] = sum(runner.latencies) / sum(plain.latencies)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    trace.write(os.path.join(workloads.OUT_DIR, f"trace-{workload}-seed{seed}.tsv"))
    plain.failures += runner.failures
    plain.latencies += runner.latencies
    metrics = tracing.per_layer(trace, extra)
    unused = [name for name, m in metrics.items() if m["value"] == 0]
    return plain, metrics, {"ops": len(ops), "spans": len(trace.spans),
                            "not_applicable": unused}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["lattice", "verify", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    args = ap.parse_args(argv)
    golden = workloads.load_expected()
    repeats, min_s = (1, 0) if args.trace else (SETUP_REPEATS, SETUP_MIN_S)
    setup, setup_times, setup_scaled = set_up(args.workload, args.seed, args.size, golden,
                                              repeats, min_s)
    try:
        if args.trace:
            runner, metrics, detail = traced(setup, golden, args.workload, args.seed)
        else:
            runner, metrics, detail = timed(setup, args.seconds, golden, args.workload)
            metrics["setup_s"] = {"value": statistics.median(setup_scaled), "unit": "s"}
            detail["setup_s_each"] = setup_scaled
            detail["measured"]["setup_s"] = statistics.median(setup_times)
    finally:
        for path in setup.files:
            os.remove(path)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted = len(runner.latencies)
    detail["fail_ratio"] = len(runner.failures) / attempted
    print(json.dumps({"correct": not runner.failures, "attempted": attempted,
                      "failed": len(runner.failures), "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
