"""Golden snapshot of the formula engine and the verification harness.

Pins, as a sha256 digest plus a row count, every ``predict`` answer
(interval and provenance, or the refusal's exception type), every
``verify_pair`` claim record, the corpus totals, every ``solve`` answer
on the frozen corpora (with the nodes each search explored in a digest
of their own) and every ``construct_witness`` output.  The other tests
only check that predictions contain the measured value and that
witnesses are valid; these also fix provenance order, skip reasons,
record details and canonical witnesses byte for byte.
"""

import hashlib

import pytest

from lexdom import (LexdomError, ParameterKind, RomanAssignment, construct_witness,
                    enumerate_optimal_v2, generate, lex_product, parse_family, predict, solve,
                    verify_pair, write_graph6)
from lexdom.formula import PREDICT_KINDS, STATEMENTS


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


def test_witness_snapshot(connected_g, all_h):
    # every statement with a builder, on every corpus pair: the mask, the
    # weights, or the refusal's exception type
    rows = []
    for g in connected_g:
        for h in all_h:
            for st in STATEMENTS.values():
                if st.witness is None:
                    continue
                try:
                    w = construct_witness(st.id, g, h)
                    answer = w.weights if isinstance(w, RomanAssignment) else w
                except LexdomError as exc:
                    answer = type(exc).__name__
                rows.append((_g6(g), _g6(h), st.claim, answer))
    assert _digest(rows) == (
        "f6ec6b7cd5ccc028f691ffd6bccca928a474dff476cc0ac6630304925eaf94e0", 10200)


#: products with uneven degrees and a twin-free H, where many vertices
#: outside V2 see no member and the child loop of ``_roman_scan`` can
#: stop early on a covering bound
STOP_PRODUCTS = (("path:5", "path:4"), ("cycle:6", "path:4"), ("path:6", "cycle:5"),
                 ("star:5", "path:4"), ("path:5", "cycle:5"), ("cycle:7", "path:3"),
                 ("path:8", "path:3"))

ROMAN_PAIR = (ParameterKind.gamma_R, ParameterKind.gamma_Rp)


def _solved(g, kind, **options):
    """(answer, explored) of one solve: the answer is the value and the
    witness, or the refusal's exception type, whose explored is None."""
    try:
        result = solve(g, kind, **options)
    except LexdomError as exc:
        return type(exc).__name__, None
    return (result.value, result.witness), result.explored


def _solve_rows(g):
    return ([(_g6(g), kind.value, *_solved(g, kind)) for kind in ParameterKind]
            + _roman_rows(g))


def _roman_rows(g):
    return [(_g6(g), kind.value, *_solved(g, kind, max_n=g.n, witness=False),
             enumerate_optimal_v2(g, kind, max_n=g.n)) for kind in ROMAN_PAIR]


@pytest.fixture(scope="module")
def solve_rows(oracle_corpus, trees, sample_8, all_h, connected_g, fig1, fig2):
    """(graph6, kind, answer, explored[, optimal V2 list]) rows: every kind
    with its witness on every corpus graph, the value-only Roman results
    and the optimal V2 lists, and the Roman kinds of products where the
    covering bound stops the child loop."""
    rows = []
    for g in (*oracle_corpus, *trees, *sample_8, *all_h, *connected_g, fig1, fig2):
        rows += _solve_rows(g)
    for gname, hname in STOP_PRODUCTS:
        p = lex_product(generate(parse_family(gname)), generate(parse_family(hname)))[0]
        rows += [(_g6(p), kind.value, *_solved(p, kind, max_n=p.n)) for kind in ROMAN_PAIR]
        rows += _roman_rows(p)
    return rows


def test_solve_snapshot(solve_rows):
    # the answers alone: a change of search tree leaves this digest as it is
    assert _digest([row[:3] + row[4:] for row in solve_rows]) == (
        "df6f8f11f56600f9e39f4009b7de849c0f198efe4a79b2b923b374befadadb31", 14568)


def test_solve_explored_snapshot(solve_rows):
    # the nodes explored, which a change of search tree re-pins on its own
    assert _digest([row[:2] + row[3:4] for row in solve_rows]) == (
        "46c4f7bad02d8fa6571efdb3377c49f4b0a824624d787df931cecdb1e1681e3c", 14568)
