"""Benchmark a change against its parent in alternating pairs.

    python3 scripts/bench_pairs.py --label NAME [--parent REF] [--change REF]

Both commits are exported with ``git archive`` into a temporary
directory (the committed files only, as a fresh checkout would have
them), and ``perfbench/run.py`` runs from each export; the directory is
removed when the run ends, interrupted or not.  Every workload of the
change's BENCHMARK.json runs in PAIRS alternating pairs of its
``run_seconds`` each: pair i runs both sides with seed
``SEED + 100 * (workload index + 1) + i``, and the side that goes first
alternates from pair to pair, so a drift of the host's speed falls on
both sides alike.  One ``--trace 1`` run per side at the first seed adds
the per-layer metrics, node counts included, which do not depend on the
host.

The result goes to ``BENCH_<label>.json`` at the repository root: for
every end-to-end metric, the per-run values of both sides, their medians
and interquartile ranges, the relative change of the medians, and the
number of pairs in which the change did better, and
``worse_than_bound``: whether the change's median is worse than the
parent's by more than the metric's ``bound``, a fraction of the
parent's median.  Per workload it also totals ``failed`` and
``attempted`` per side, and ``failed_share_higher`` tells whether the
change failed a larger share of its operations than the parent, and
``counts_differ`` lists the traced count metrics (nodes explored, calls,
factor-cache hits and misses, product vertices) whose two sides differ:
a change that keeps every search tree and op leaves it empty.  The
workload/metric pairs that break their bound, the workloads whose
failed share rose and the counts that differ are printed to stderr at
the end.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Pairs per workload: a claimed gain must hold in nine of ten.
PAIRS = 10
SEED = 11001
#: Name endings of the traced metrics that count, not time: equal on both
#: sides unless a search tree, the op list or the caching changed.
COUNT_SUFFIXES = ("_explored", "_calls", ".factor_value.hits", ".factor_value.misses",
                  "product.vertices")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(ref: str, target: Path) -> tuple[str, Path]:
    """Extract the committed tree of ``ref`` into ``target``; (commit,
    ``target``)."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        # extraction filters exist from Python 3.10.12 and 3.11.4 on
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)
    return sha, target


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one perfbench run: correct, attempted,
    failed and metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(spec: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per end-to-end metric of ``spec``: both sides' runs, medians,
    quartile spreads, the relative change, the pairs the change won and
    whether it is worse than the metric's bound."""
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        mp, mc = statistics.median(parent), statistics.median(change)
        worse = mc - mp if lower else mp - mc
        out[name] = {
            "unit": metric["unit"],
            "parent_median": mp,
            "change_median": mc,
            "delta_frac": (mc - mp) / mp if mp else None,
            "parent_iqr": quartile_spread(parent),
            "change_iqr": quartile_spread(change),
            "change_better_pairs": sum(1 for p, c in zip(parent, change)
                                       if (c < p if lower else c > p)),
            "worse_than_bound": worse > metric["bound"] * abs(mp),
            "parent": parent,
            "change": change,
        }
    return out


def failures(runs: dict[str, list[dict]]) -> dict:
    """Per side the failed and attempted operations over all runs and
    their ratio, and whether the change's ratio is the higher."""
    out = {key: {side: sum(r[key] for r in rs) for side, rs in runs.items()}
           for key in ("failed", "attempted")}
    out["failed_share"] = {side: out["failed"][side] / out["attempted"][side]
                           if out["attempted"][side] else 0.0 for side in runs}
    out["failed_share_higher"] = out["failed_share"]["change"] > out["failed_share"]["parent"]
    return out


def counts_differ(parent: dict, change: dict) -> list[str]:
    """The count metrics of two traced runs whose values differ, sorted;
    a count missing on one side differs."""
    names = {name for name in (*parent, *change) if name.endswith(COUNT_SUFFIXES)}
    return sorted(name for name in names if parent.get(name) != change.get(name))


def bench(label: str, sides: dict[str, tuple[str, Path]]) -> Path:
    """Run every workload in pairs on the two exported ``sides`` and
    write ``BENCH_<label>.json``; its path."""
    spec = json.loads((sides["change"][1] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    path = ROOT / f"BENCH_{label}.json"
    report = {
        "label": label,
        "parent": sides["parent"][0],
        "change": sides["change"][0],
        "pairs": PAIRS,
        "seconds": seconds,
        "python": sys.version.split()[0],
        "workloads": {},
    }
    for index, workload in enumerate(spec["workloads"]):
        w = workload["name"]
        first_seed = SEED + 100 * (index + 1)
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(sides[side][1], w, first_seed + i, seconds, 0)
                runs[side].append(result)
                print(f"{w} pair {i} {side}: wall_s {result['metrics']['wall_s']:.4g}, "
                      f"failed {result['failed']}", file=sys.stderr)
        traced = {side: run(tree, w, first_seed, seconds, 1)["metrics"]
                  for side, (_, tree) in sides.items()}
        report["workloads"][w] = {
            "seeds": [first_seed, first_seed + PAIRS - 1],
            **failures(runs),
            "counts_differ": counts_differ(traced["parent"], traced["change"]),
            "end_to_end": summarize(spec["end_to_end"], runs),
            "per_layer_traced": traced,
        }
        # written after every workload, so an interrupted run keeps the finished ones
        path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for w, result in report["workloads"].items():
        if result["failed_share_higher"]:
            share = result["failed_share"]
            print(f"{w}: failed share {share['parent']:.4g} -> {share['change']:.4g} "
                  f"is higher", file=sys.stderr)
        if result["counts_differ"]:
            print(f"{w}: traced counts differ: {', '.join(result['counts_differ'])}",
                  file=sys.stderr)
        for name, m in result["end_to_end"].items():
            if m["worse_than_bound"]:
                print(f"{w} {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                      f"is worse than its bound", file=sys.stderr)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: export(ref, Path(tmp) / side)
                 for side, ref in (("parent", args.parent), ("change", args.change))}
        path = bench(args.label, sides)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
