"""lexdom benchmark: one workload per call, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: factor-solve, product-solve, verify-sweep, cli (see
perfbench/README.md).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` a separate traced run gives
the per-layer metrics.  Every op's output is checked against the pinned
answers in perfbench/pins/.

The workload runs in a fresh ``worker.py`` process whose environment
drops LEXDOM_MAX_N and puts the checkout's ``src`` first on PYTHONPATH;
``setup_s`` is the median over several fresh processes of the time from
process start to the first op.  Every end-to-end time is paced to a
reference host speed (see pace.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from pace import START_REFERENCE_S, Pace, bare_start

BENCH = Path(__file__).resolve().parent
#: Fresh processes timed for setup_s, half before and half after the
#: measured run, so that one phase of host speed does not set the median.
SETUP_PROBES = 8
#: Limits that keep a run under three minutes even if lexdom hangs.
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150



class BenchError(Exception):
    pass


def clean_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("LEXDOM_MAX_N", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # same set iteration order and hashing cost in every run
    return env


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without starting git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = root / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_probe(workload: str, seed: int, env: dict, pace: Pace) -> float:
    """Seconds from process start to 'ready' (lexdom imported, inputs built),
    paced by bare interpreter starts just before and after it."""
    pace.tick()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            took = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed with exit code {code}")
    pace.tick()
    return took * pace.scale(start)


def run_worker(args, env: dict) -> dict:
    """The measured run.  The worker gets its own process group, so a
    timeout also ends the CLI processes it started."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lexdom benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lexdom" / "__init__.py").is_file():
        print("perfbench: src/lexdom/ not found; run from the root of a lexdom checkout",
              file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json not found in the working directory", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; expected one of {names}")
    env = clean_env(root)
    load_before = os.getloadavg()
    probes = 0 if args.trace else SETUP_PROBES // 2
    pace = Pace(bare_start, START_REFERENCE_S, interval_s=0, window_s=0.5)
    try:
        setup = [setup_probe(args.workload, args.seed, env, pace) for _ in range(probes)]
        out = run_worker(args, env)
        setup += [setup_probe(args.workload, args.seed, env, pace) for _ in range(probes)]
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(json.dumps({
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "PYTHONHASHSEED": env["PYTHONHASHSEED"],
        "commit": git_commit(root), "seed": args.seed,
        "ops_per_round": out["ops_per_round"], "rounds": out["rounds"],
        "round_walls_s": out["round_walls_s"], "reference_median_ms": out["reference_median_ms"],
        **({"trace_file": out["trace_file"]} if args.trace else {}),
    }, sort_keys=True))
    for key, reason in out["failures"]:
        print(f"FAILED {key}: {reason}")

    if args.trace:
        values = out["metrics"]
        wanted = spec["per_layer"]
    else:
        values = dict(out["metrics"], setup_s=statistics.median(setup))
        wanted = spec["end_to_end"]
    # a layer the workload never calls reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'op samples':<44} {out['samples']:>14d}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
