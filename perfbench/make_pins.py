"""Regenerate the pinned answers in ``perfbench/pins/`` from the current code.

    PYTHONPATH=src python3 perfbench/make_pins.py

Run it only on a commit whose answers are trusted (the pins in the repo
were made at the commit that added the benchmark); every later run of
the benchmark compares against them.  Each workload's whole pool is
pinned, so any seed's sample is covered.  CLI answers are taken in
process through ``cli.main``; the benchmark itself checks them against
real ``python -m lexdom.cli`` processes.
"""

from __future__ import annotations

import json
import os
import sys

import lexdom as lx
import workloads as W


def pin_ops(ops, reset_each: bool = False) -> dict:
    pins = {}
    W.clear_caches()
    for op in ops:
        if reset_each:
            W.clear_caches()
        result = op.run()
        reason = op.validate(result)
        if reason:
            raise SystemExit(f"{op.key}: {reason}")
        pins[op.key] = W.jsonable(op.answer(result))
    return pins


def sweep_pins() -> dict:
    pins = pin_ops(W.verify_ops(None))
    pins["_totals"] = {}
    for label, gfile, hfile, keep in W.SWEEPS:
        gs = lx.load_corpus(W.DATA / gfile)
        hs = [h for h in lx.load_corpus(W.DATA / hfile) if keep(h)]
        report = lx.verify_corpus(gs, hs, max_product_order=W.SWEEP_CAP)
        pins["_totals"][label] = {
            "pairs": report.pairs,
            "failed": report.failed,
            "totals": {claim: dict(counts) for claim, counts in report.totals},
        }
    return pins


def main() -> int:
    if os.environ.get("LEXDOM_MAX_N"):
        raise SystemExit("unset LEXDOM_MAX_N before pinning answers")
    os.makedirs(W.PINS, exist_ok=True)
    argvs = [argv for stratum in W.cli_pool().values() for argv in stratum]
    made = {
        "factor-solve": pin_ops(W.factor_ops(None)),
        "product-solve": pin_ops(W.product_ops(None)),
        "verify-sweep": sweep_pins(),
        "cli": pin_ops(W.cli_ops(argvs, in_process=True), reset_each=True),
    }
    for name, pins in made.items():
        lines = (f"{json.dumps(key)}: {json.dumps(pins[key], sort_keys=True)}"
                 for key in sorted(pins))
        with open(W.PINS / f"{name}.json", "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{name}: {len(pins)} pinned answers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
