"""Golden snapshot of the formula engine and the verification harness.

Pins, as a sha256 digest plus a row count, every ``predict`` answer
(interval and provenance, or the refusal's exception type), every
``verify_pair`` claim record and the corpus totals.  The other tests
only check that predictions contain the measured value; this one also
fixes provenance order, skip reasons and record details byte for byte.
"""

import hashlib

from lexdom import LexdomError, predict, verify_pair, write_graph6
from lexdom.formula import PREDICT_KINDS


def _digest(rows) -> tuple[str, int]:
    text = "\n".join(repr(row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest(), len(rows)


def _g6(g) -> str:
    return write_graph6(g).decode()


def _predict_rows(gs, hs):
    rows = []
    for g in gs:
        for h in hs:
            for kind in PREDICT_KINDS:
                try:
                    p = predict(g, h, kind)
                    answer = (p.lo, p.hi, p.provenance)
                except LexdomError as exc:
                    answer = type(exc).__name__
                rows.append((_g6(g), _g6(h), kind.value, answer))
    return rows


def test_predict_snapshot_connected(connected_g, all_h):
    assert _digest(_predict_rows(connected_g, all_h)) == (
        "c07cdabe9ad65483567d8e7287c97e665a167a0a360ee2503e5f76315556f9e7", 2040)


def test_predict_snapshot_oracle(oracle_corpus, all_h):
    # every seventh graph: the whole corpus takes about six seconds
    assert _digest(_predict_rows(oracle_corpus[::7], all_h)) == (
        "522b23928f1aa9b2ed82ee96c72ffbc3dc408aa4600735e6b23cb90da7552f26", 12172)


def test_verify_records_snapshot(connected_g, all_h):
    rows = []
    for g in connected_g:
        for h in all_h:
            for r in verify_pair(g, h).records:
                rows.append((_g6(g), _g6(h), r.claim, r.outcome, repr(r.predicted),
                             repr(r.measured), r.detail))
    assert _digest(rows) == (
        "ce0267c8d2836dc68815e2721f681698ecc53d1804e1eaf3e5e7e71075faeea9", 12750)


def test_corpus_totals_snapshot(corpus_report):
    assert _digest(corpus_report.totals) == (
        "68ac49ea44390e012ee392687bdfb737743e3cf4be8201d5c875acbe45636be8", 25)
