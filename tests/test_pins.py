"""Every pinned benchmark answer, checked in process.

Each of the four workload pools of ``perfbench/workloads.py`` is run
whole and compared with ``perfbench/pins/`` through ``check_op``, the
check the benchmark applies to every op, the way ``make_pins.py`` made
the pins: caches cleared before each pool, and before each CLI argv,
with the default caps.  A wrong answer fails here rather than first
showing up as a benchmark op failure.  Takes about 8 s.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as W  # noqa: E402


@pytest.fixture(autouse=True)
def _as_pinned(monkeypatch):
    # CLI ops name their input files relative to the checkout root
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("LEXDOM_MAX_N", raising=False)


def _check_pool(name, ops, reset_each=False):
    pins = W.load_pins(name)
    assert {op.key for op in ops} == set(pins) - {"_totals"}
    W.clear_caches()
    results, failures = [], []
    for op in ops:
        if reset_each:
            W.clear_caches()
        results.append(op.run())
        reason = W.check_op(op, results[-1], pins)
        if reason:
            failures.append(f"{op.key}: {reason}")
    assert not failures, failures[:5]
    return pins, results


def test_factor_solve():
    _check_pool("factor-solve", W.factor_ops(None))


def test_product_solve():
    _check_pool("product-solve", W.product_ops(None))


def test_verify_sweep():
    ops = W.verify_ops(None)
    pins, results = _check_pool("verify-sweep", ops)
    assert set(pins["_totals"]) == {label for label, *_ in W.SWEEPS}
    assert W.check_sweep_totals(pins)(ops, results) is None


def test_cli():
    argvs = [argv for stratum in W.cli_pool().values() for argv in stratum]
    _check_pool("cli", W.cli_ops(argvs, in_process=True), reset_each=True)
