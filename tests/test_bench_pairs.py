"""scripts/bench_pairs.py: the per-metric summary of a parent/change
run set, bound breaches included, the failed share per side and the
traced counts that differ."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _runs(**series):
    """Per side, one run per position of each metric's list."""
    sides = {}
    for side in ("parent", "change"):
        count = len(next(iter(series.values()))[side])
        sides[side] = [{"metrics": {name: values[side][i] for name, values in series.items()}}
                       for i in range(count)]
    return sides


def test_summarize():
    runs = _runs(
        # the change is faster in four of five pairs
        wall_s={"parent": [2.0, 2.1, 2.0, 1.9, 2.2], "change": [1.7, 1.8, 2.3, 1.6, 1.7]},
        # +6% against a 5% bound
        peak_rss_mb={"parent": [24.0, 24.2, 24.4, 24.6, 24.8],
                     "change": [25.7, 25.8, 25.9, 26.0, 26.1]},
        # 5% lower where higher is better, against a 10% bound
        rate={"parent": [10.0, 10.0, 10.0, 10.0, 10.0], "change": [9.5, 9.5, 9.5, 9.5, 9.5]},
    )
    out = bench_pairs.summarize(SPEC, runs)
    wall = out["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (2.0, 1.7)
    assert wall["delta_frac"] == pytest.approx(-0.15)
    assert wall["change_better_pairs"] == 4
    assert wall["parent_iqr"] == pytest.approx(0.1)
    assert wall["worse_than_bound"] is False
    rss = out["peak_rss_mb"]
    assert rss["delta_frac"] == pytest.approx(1.5 / 24.4)
    assert rss["change_better_pairs"] == 0
    assert rss["worse_than_bound"] is True
    rate = out["rate"]
    assert rate["change_better_pairs"] == 0
    assert rate["worse_than_bound"] is False
    assert rate["unit"] == "1/s"


def test_worse_than_bound_higher_is_better():
    runs = _runs(rate={"parent": [10.0, 10.0, 10.0], "change": [8.9, 8.9, 8.9]})
    assert bench_pairs.summarize(SPEC[2:], runs)["rate"]["worse_than_bound"] is True
    runs = _runs(rate={"parent": [10.0, 10.0, 10.0], "change": [30.0, 30.0, 30.0]})
    assert bench_pairs.summarize(SPEC[2:], runs)["rate"]["worse_than_bound"] is False


def test_failures():
    runs = {"parent": [{"failed": 0, "attempted": 100}, {"failed": 1, "attempted": 100}],
            "change": [{"failed": 1, "attempted": 150}, {"failed": 1, "attempted": 150}]}
    out = bench_pairs.failures(runs)
    assert out["failed"] == {"parent": 1, "change": 2}
    assert out["attempted"] == {"parent": 200, "change": 300}
    assert out["failed_share"] == {"parent": 0.005, "change": pytest.approx(2 / 300)}
    assert out["failed_share_higher"] is True
    # more failures over more operations is a lower share
    runs["change"][1]["attempted"] = 400
    assert bench_pairs.failures(runs)["failed_share_higher"] is False
    # none attempted reads as a share of 0
    none = {"parent": [{"failed": 0, "attempted": 0}], "change": [{"failed": 0, "attempted": 0}]}
    assert bench_pairs.failures(none)["failed_share"] == {"parent": 0.0, "change": 0.0}


def test_counts_differ():
    parent = {"solvers.solve.roman_explored": 100, "solvers.solve.roman_s": 0.5,
              "solvers.solve_calls": 7, "structure.factor_value.hits": 3,
              "structure.factor_value.misses": 2, "product.vertices": 45,
              "structure.factor_value.hit_ratio": 0.6}
    # a change that keeps every tree differs only in times
    same = dict(parent, **{"solvers.solve.roman_s": 0.2})
    assert bench_pairs.counts_differ(parent, same) == []
    moved = dict(same, **{"solvers.solve.roman_explored": 90, "structure.factor_value.hits": 4,
                          "product.vertices": 44, "structure.factor_value.hit_ratio": 0.7})
    del moved["solvers.solve_calls"]
    assert bench_pairs.counts_differ(parent, moved) == [
        "product.vertices", "solvers.solve.roman_explored", "solvers.solve_calls",
        "structure.factor_value.hits"]


def test_main_removes_exports_when_interrupted(monkeypatch):
    trees = []

    def export(ref, target):
        (target / "src").mkdir(parents=True)
        trees.append(target)
        return ref, target

    def bench(label, sides):
        assert [tree for _, tree in sides.values()] == trees
        assert all(tree.is_dir() for tree in trees)
        raise KeyboardInterrupt

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "bench", bench)
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main(["--label", "x", "--parent", "p", "--change", "c"])
    assert len(trees) == 2
    assert not trees[0].parent.exists()
