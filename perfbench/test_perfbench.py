"""Tests of the benchmark's own logic.  From the checkout root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lexdom
import workloads as W
from tracer import Span, Tracer, layer_metrics, self_times
from pace import SEARCH_REFERENCE_S, Pace, for_workload, reference_search
from worker import Round, paced_latencies, percentile, run_round, samples_beyond

ROOT = Path(__file__).resolve().parent.parent
OTHER_SEED = 987654


@pytest.fixture(autouse=True)
def _at_checkout_root(monkeypatch):
    # CLI ops name their input files relative to the checkout root
    monkeypatch.chdir(ROOT)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert samples_beyond(values, 90) == 10
    assert percentile([7.5], 90) == 7.5
    assert percentile([3, 1, 2], 90) == 3


def test_paced_latency_scales_by_nearby_reference_timings():
    ref = SEARCH_REFERENCE_S
    pace = Pace(reference_search, ref, interval_s=0.02, window_s=0.5)
    # the host runs at reference speed until t=10, then at half speed
    pace.starts = [0.0, 0.3, 9.8, 10.2, 10.6, 20.0]
    pace.costs = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert pace.scale(0.1) == 1.0
    assert pace.scale(10.5) == 0.5
    assert pace.scale(15.0) == 0.5  # no timing within the window: nearest ones
    assert pace.scale(99.0) == 0.5
    rounds = []
    for starts, latencies in (([0.1, 0.2], [3.0, 1.0]), ([10.5, 10.6], [8.0, 2.0]),
                              ([20.0, 20.1], [4.0, 4.0])):
        rnd = Round()
        rnd.starts, rnd.latencies = starts, latencies
        rounds.append(rnd)
    # per op: paced latencies (3, 4, 2) and (1, 1, 2); median over rounds
    assert paced_latencies(rounds, pace) == [3.0, 1.0]


def test_reference_search_is_fixed_work():
    assert reference_search() == 4


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_every_op_list_leaves_ten_samples_beyond_p90(name):
    ops = W.build(name, 1, in_process_cli=True).ops
    assert len(ops) >= 100
    assert samples_beyond(list(range(len(ops))), 90) >= 10


def test_self_time_subtracts_direct_children_only():
    spans = [Span("a", 0.0, 10.0, -1, 0), Span("b", 1.0, 4.0, 0, 0),
             Span("c", 2.0, 3.0, 1, 0), Span("d", 5.0, 9.0, 0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_from_spans():
    spans = [
        Span("verify.verify_pair", 0.0, 10.0, -1, 0, {"fail": 0}),
        Span("solvers.solve", 1.0, 4.0, 0, 0, {"kind": "gamma_R", "explored": 30}),
        Span("graph.construct", 2.0, 3.0, 1, 0),
        Span("structure.factor_value", 5.0, 9.0, 0, 0),
        Span("solvers.solve", 6.0, 8.0, 3, 0, {"kind": "gamma", "explored": 5}),
        Span("solvers.solve", 9.0, 9.5, 0, 0, {"kind": "gamma_t", "error": "DomainError"}),
    ]
    m = layer_metrics(spans)
    assert m["verify.verify_pair_self_s"] == 2.5
    assert m["solvers.solve.roman_s"] == 2.0
    assert m["solvers.solve.set_s"] == 2.5
    assert m["graph.construct_calls"] == 1
    assert m["structure.factor_value_incl_s"] == 4.0
    assert m["solvers.solve_calls"] == 3
    assert m["solvers.rejected"] == 1
    assert m["solvers.explored_per_s"] == 35 / 4.5


def test_tracer_patches_every_binding_and_restores_them():
    original = lexdom.solvers.solve
    tracer = Tracer()
    tracer.install()
    try:
        for module in (lexdom, lexdom.solvers, lexdom.verify, lexdom.formula,
                       lexdom.structure, lexdom.cli):
            assert module.solve is not original
        lexdom.solve(lexdom.generate(lexdom.parse_family("path:4")), "gamma")
    finally:
        tracer.uninstall()
    assert lexdom.verify.solve is original and lexdom.solve is original
    names = [s.name for s in tracer.take()]
    assert names.count("solvers.solve") == 1 and "graphio.generate" in names


def test_corrupted_pin_is_one_failed_op():
    wl = W.build("factor-solve", 1)
    wl.ops = wl.ops[:30]
    target = wl.ops[0].key
    wl.pins = dict(wl.pins, **{target: [-1, 0]})
    rnd = run_round(wl, for_workload(wl.name))
    assert [key for key, _ in rnd.failures] == [target]
    assert len(rnd.latencies) == 30


def test_witness_recheck_rejects_a_wrong_witness():
    g = lexdom.generate(lexdom.parse_family("path:4"))
    fake = lexdom.SolveResult(1, 0b0001, 0)
    assert W.validate_solve(g, "gamma", fake) is not None
    assert W.validate_solve(g, "gamma", lexdom.solve(g, "gamma")) is None


def test_criterion_2_optima_are_pinned_as_measured():
    pins = W.load_pins("product-solve")
    got = {h: pins[f"fig2 o {h}|gamma_Rp"][0]
           for h in ("complete:2", "empty:2", "path:3", "complete:3", "empty:3")}
    assert got == {"complete:2": 15, "empty:2": 14, "path:3": 18, "complete:3": 20, "empty:3": 19}


def test_sweep_totals_pin_has_no_failures():
    totals = W.load_pins("verify-sweep")["_totals"]
    assert [t["pairs"] for t in totals.values()] == [510, 360]
    assert all(t["failed"] == 0 for t in totals.values())


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_other_seed_is_covered_by_pins_and_reorders(name):
    first = [op.key for op in W.build(name, 1, in_process_cli=True).ops]
    other = W.build(name, OTHER_SEED, in_process_cli=True)
    assert all(op.key in other.pins for op in other.ops)
    assert [op.key for op in other.ops] != first
    assert [op.key for op in W.build(name, OTHER_SEED, in_process_cli=True).ops] == \
        [op.key for op in other.ops]


@pytest.mark.parametrize("name", ["factor-solve", "cli"])
def test_other_seed_round_passes_validation(name):
    rnd = run_round(W.build(name, OTHER_SEED, in_process_cli=True), for_workload(name))
    assert rnd.failures == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
