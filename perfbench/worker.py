"""Runs one workload in a fresh process and prints its measurements.

Started by ``run.py``; not meant to be called by hand.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

A run repeats the workload's fixed op list (one *round*) until its time
budget is spent, clearing every lexdom cache at the start of each round,
and prints one JSON line.  ``--setup-only`` imports lexdom, builds the op
list, prints ``ready`` and exits; ``run.py`` times it from process start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from pace import Pace, for_workload
from tracer import Tracer, layer_metrics, write_spans

#: Pairs of the verify-sweep op list whose per-claim cost is probed.
CLAIM_PROBE_PAIRS = 50
#: Subprocess starts per cli probe (interpreter floor, import cost).
CLI_PROBES = 7
TRACE_DIR = ".perfbench"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values: list[float], q: float) -> int:
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


class Round:
    def __init__(self):
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.emitted = 0
        self.hits = 0
        self.misses = 0
        self.checks = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_round(wl: W.Workload, pace: Pace, tracer: Tracer | None = None) -> Round:
    """One pass over the op list; only the lexdom calls are timed.  The
    host-speed reference is timed between ops."""
    unrecorded = tracer.paused if tracer is not None else contextlib.nullcontext
    W.clear_caches()
    gc.collect()
    rnd = Round()
    results = []  # dropped with the round, so peak RSS does not grow with the round count
    for index, op in enumerate(wl.ops):
        if wl.per_op_reset:
            W.clear_caches()
        if tracer is not None:
            tracer.op = index
        before = W.FACTOR_VALUE.cache_info()
        error = result = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an unexpected raise is a failed op, not a crash
            error = exc
        elapsed = time.perf_counter() - start
        after = W.FACTOR_VALUE.cache_info()
        rnd.hits += after.hits - before.hits
        rnd.misses += after.misses - before.misses
        rnd.latencies.append(elapsed)
        rnd.starts.append(start)
        results.append(result)
        with unrecorded():
            reason = (f"raised {type(error).__name__}: {error}" if error is not None
                      else W.check_op(op, result, wl.pins))
        if reason:
            rnd.failures.append((op.key, reason))
        if wl.name == "cli" and result is not None:
            rnd.emitted += W.emitted_bytes(result[1])
        pace.tick()
    with unrecorded():
        for check in wl.round_checks:
            rnd.checks += 1
            reason = check(wl.ops, results)
            if reason:
                rnd.failures.append(("<round>", reason))
    return rnd


def run_rounds(wl: W.Workload, seconds: float, pace: Pace, traced: Tracer | None = None,
               setup_spans=()) -> tuple[list[Round], list[Round], list[dict], list]:
    """Rounds until the budget is spent, at least one of each kind.

    With a tracer, untraced and traced rounds alternate (the tracer is
    installed only for the traced ones).  Returns (untraced rounds,
    traced rounds, per-layer metrics of each traced round, spans of the
    last traced round).
    """
    plain, traced_rounds, layers, last_spans = [], [], [], []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        plain.append(run_round(wl, pace))
        if traced is not None:
            traced.install()
            try:
                rnd = run_round(wl, pace, traced)
            finally:
                traced.uninstall()
            spans = traced.take()
            traced_rounds.append(rnd)
            layers.append(round_layers(wl, rnd, list(setup_spans) + _shift(spans, len(setup_spans))))
            last_spans = spans
        took = time.perf_counter() - start
        if time.perf_counter() - began + took > seconds:
            return plain, traced_rounds, layers, last_spans


def _shift(spans, offset):
    return [s._replace(parent=s.parent + offset) if s.parent >= 0 else s for s in spans]


def round_layers(wl: W.Workload, rnd: Round, spans) -> dict:
    m = layer_metrics(spans)
    m["structure.factor_value.hits"] = rnd.hits
    m["structure.factor_value.misses"] = rnd.misses
    looked_up = rnd.hits + rnd.misses
    m["structure.factor_value.hit_ratio"] = rnd.hits / looked_up if looked_up else 0.0
    if wl.name == "cli":
        m["cli.emit_bytes"] = rnd.emitted
    return m


def claim_costs(wl: W.Workload) -> dict[str, float]:
    """Standalone cost of verify_pair(g, h, claims=[id]) for every claim,
    summed over the first pairs of the op list, with warm factor caches."""
    pairs = [op.inputs for op in wl.ops[:CLAIM_PROBE_PAIRS]]
    costs = {}
    for claim in W.lx.TheoremId:
        start = time.perf_counter()
        for g, h in pairs:
            W.lx.verify_pair(g, h, claims=[claim], max_product_order=W.SWEEP_CAP)
        costs[f"verify.claim.{claim.value}_s"] = time.perf_counter() - start
    return costs


def _start_ms(argv: list[str]) -> float:
    # no timeout, which would make wait() poll and round the time up
    # (run.py ends the worker if a start hangs)
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True)
    return (time.perf_counter() - start) * 1000


def cli_probes() -> dict[str, float]:
    """Bare interpreter start and ``import lexdom.cli``, alternated so that
    a change in machine speed affects both alike."""
    bare, imported = [], []
    for _ in range(CLI_PROBES):
        bare.append(_start_ms(["-c", "pass"]))
        imported.append(_start_ms(["-c", "import lexdom.cli"]))
    interpreter = statistics.median(bare)
    return {"cli.interpreter_ms": interpreter,
            "cli.import_ms": statistics.median(imported) - interpreter}


def peak_rss_mb(name: str) -> float:
    """ru_maxrss (KiB on Linux) of this process, or of the largest lexdom
    child process for the cli workload."""
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def paced_latencies(rounds: list[Round], pace: Pace) -> list[float]:
    """Each op's latency at the reference host speed, median over the
    rounds of a run (see pace.py)."""
    return [statistics.median(lat * pace.scale(t) for t, lat in runs)
            for runs in zip(*(zip(r.starts, r.latencies) for r in rounds))]


def summarize(rounds: list[Round]) -> tuple[int, int, list]:
    attempted = sum(len(r.latencies) + r.checks for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    return attempted, len(failures), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl = W.build(args.workload, args.seed, in_process_cli=bool(args.trace))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setup_spans = tracer.take() if tracer is not None else []

    pace = for_workload(args.workload)
    pace.tick()
    plain, traced, layers, spans = run_rounds(wl, args.seconds, pace, tracer, setup_spans)
    attempted, failed, failures = summarize(plain + traced)
    walls = [r.wall for r in plain]
    out = {"attempted": attempted, "failed": failed, "failures": failures[:10],
           "ops_per_round": len(wl.ops), "rounds": len(plain),
           "round_walls_s": [round(w, 4) for w in walls],
           "reference_median_ms": statistics.median(pace.costs) * 1000}
    if tracer is None:
        paced = paced_latencies(plain, pace)
        out["samples"] = len(paced)
        out["metrics"] = {
            "wall_s": sum(paced),
            "op_p50_ms": statistics.median(paced) * 1000,
            "op_p90_ms": percentile(paced, 90) * 1000,
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
    else:
        metrics = {k: statistics.median_low(m.get(k, 0) for m in layers)
                   for k in {k for m in layers for k in m}}
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall for r in traced) / statistics.median(walls) - 1)
        if args.workload == "verify-sweep":
            metrics.update(claim_costs(wl))
        if args.workload == "cli":
            metrics.update(cli_probes())
        out["metrics"] = metrics
        out["traced_rounds"] = len(traced)
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_file = Path(TRACE_DIR) / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(list(setup_spans) + _shift(spans, len(setup_spans)), trace_file)
        out["trace_file"] = str(trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
