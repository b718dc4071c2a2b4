"""Verification harness: pair reports, skip/indeterminate outcomes,
corpus aggregation determinism, and the structural lemma suite."""

import pytest
from hypothesis import given, settings

from lexdom import (
    CapExceededError,
    ParameterKind,
    TheoremId,
    build_graph,
    check_structural_lemmas,
    construct_witness,
    generate,
    is_feasible,
    is_prdf,
    is_rdf,
    lex_product,
    parse_family,
    verify_corpus,
    verify_pair,
    write_graph6,
)
from lexdom.formula import STATEMENTS, PairFacts
from lexdom.solvers import capped_memo
from lexdom.verify import ALL_CLAIMS, FAIL, INDETERMINATE, PASS, SKIP, _g6

from test_graph import random_graph_strategy

P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
C5 = generate(parse_family("cycle:5"))
K2 = generate(parse_family("complete:2"))
N2 = generate(parse_family("empty:2"))


class TestVerifyPair:
    def test_all_claims_covered(self):
        assert set(ALL_CLAIMS) == set(TheoremId)
        report = verify_pair(P4, K2)
        assert {r.claim for r in report.records} == {t.value for t in TheoremId}

    def test_no_failures_on_known_pair(self):
        report = verify_pair(P4, K2)
        assert not report.failures
        outcomes = {r.claim: r.outcome for r in report.records}
        assert outcomes["GAMMA_LEX"] == PASS
        assert outcomes["ROMAN_LEX"] == PASS

    def test_skip_on_oversized_product(self):
        p10 = generate(parse_family("path:10"))
        report = verify_pair(p10, p10, max_product_order=24)
        assert all(r.outcome == SKIP for r in report.records)
        assert "exceeds budget" in report.records[0].detail

    def test_skips_are_not_failures(self):
        # K2 factor: maxdeg(H) = n(H)-1, so the zeta-bounds stratum skips
        report = verify_pair(P4, K2, claims=[TheoremId.ZETA_BOUNDS])
        (record,) = report.records
        assert record.outcome == SKIP
        assert not record.applicable

    def test_factor_fact_over_its_cap_skips(self):
        # ZETA_BOUNDS reads gamma_tR(G), whose cap is below the product budget
        report = verify_pair(generate(parse_family("cycle:15")), N2, max_product_order=30)
        assert not report.failures
        (record,) = [r for r in report.records if r.claim == "ZETA_BOUNDS"]
        assert record == (record.claim, SKIP, None, None, "order 15 exceeds the gamma_tR cap 14")

    def test_claim_subset(self):
        report = verify_pair(P4, N2, claims=[TheoremId.GAMMA_LEX, TheoremId.PR_COR_P2P3])
        assert [r.claim for r in report.records] == ["GAMMA_LEX", "PR_COR_P2P3"]
        assert all(r.outcome == PASS for r in report.records)

    def test_iff_detail_has_directions(self):
        report = verify_pair(P4, N2, claims=[TheoremId.PR_EQ_FACTOR])
        (record,) = report.records
        assert record.outcome == PASS
        assert "forward" in record.detail and "backward" in record.detail

    def test_indeterminate_stratum_exists(self, connected_g, all_h):
        # the characterization leaves one stratum open; the harness must
        # report it as indeterminate, never as pass or fail
        outcomes = set()
        for g in connected_g:
            for h in all_h:
                report = verify_pair(g, h, claims=[TheoremId.PR_PERFECTROMAN_CHAR])
                outcomes.add(report.records[0].outcome)
        assert INDETERMINATE in outcomes
        assert FAIL not in outcomes

    def test_replayable(self):
        first = verify_pair(C5, N2)
        second = verify_pair(C5, N2)
        assert first == second


class TestFactorSetUp:
    """What a pair reads of its factors alone, computed once per graph."""

    def test_g6_text(self, connected_g, all_h):
        # once cold, once from the memo
        for _ in range(2):
            for g, h in zip(connected_g, all_h):
                report = verify_pair(g, h, claims=[TheoremId.GAMMA_LEX])
                assert report.g6_g == write_graph6(g).decode()
                assert report.g6_h == write_graph6(h).decode()

    def test_g6_memo_is_bounded_and_cleared(self):
        bound = _g6.cache_parameters()["maxsize"]
        gs = [generate(parse_family(f"{family}:{n}")) for family in ("path", "cycle")
              for n in range(3, 4 + bound // 2)]
        assert len(set(gs)) > bound
        report = verify_corpus(gs, [K2], max_product_order=1)
        assert report.pairs == len(gs)
        assert _g6.cache_info().currsize == bound
        capped_memo.cache_clear()
        assert _g6.cache_info().currsize == 0

    def test_g_connected(self, oracle_corpus, connected_g, all_h, sample_8):
        for g in (*oracle_corpus, *connected_g, *all_h, *sample_8):
            assert PairFacts(g, K2).g_connected == g.is_connected()


class TestRandomPairs:
    """Past the frozen corpora: G on 1-7 vertices, H on 1-4, products up
    to 28 vertices, the same 200 pairs on every run."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(random_graph_strategy(max_n=7), random_graph_strategy(max_n=4))
    def test_no_failure_and_every_witness_valid(self, g, h):
        # an internal fault raises InconsistencyError, which fails the test
        report = verify_pair(g, h, max_product_order=28)
        assert not report.failures
        product = lex_product(g, h)[0]
        facts = PairFacts(g, h)
        for st in STATEMENTS.values():
            if st.witness is None or st.refusal(facts) is not None:
                continue
            built = construct_witness(st.id, g, h)
            if st.kind in (ParameterKind.gamma, ParameterKind.gamma_p):
                assert is_feasible(product, built, st.kind), st.id
            else:
                valid = is_rdf if st.kind is ParameterKind.gamma_R else is_prdf
                assert valid(product, built), st.id


class TestVerifyCorpus:
    def test_aggregation_and_order_invariance(self, connected_g, all_h):
        gs, hs = connected_g[:6], all_h[:5]
        forward = verify_corpus(gs, hs)
        reversed_report = verify_corpus(list(reversed(gs)), list(reversed(hs)))
        assert forward.totals == reversed_report.totals
        assert forward.failures == reversed_report.failures
        assert forward.pairs == len(gs) * len(hs)
        # a one-shot iterable of claims serves every pair, as a list does
        wanted = [TheoremId.GAMMA_LEX, TheoremId.ROMAN_LEX]
        listed = verify_corpus(gs[:5], hs[:4], wanted)
        assert verify_corpus(gs[:5], hs[:4], iter(wanted)) == listed
        assert [sum(n for _, n in counts) for _, counts in listed.totals] == [20, 20]

    def test_full_sweep_zero_failures(self, corpus_report):
        assert corpus_report.failed == 0
        assert corpus_report.pairs == 510


class TestStructuralLemmas:
    def test_small_pair(self):
        report = check_structural_lemmas(P4, K2)
        assert report.layer_dichotomy_ok and report.max_v2_ok
        assert report.layer_dichotomy_checked > 0
        assert report.max_v2_checked > 0

    def test_cap(self):
        p10 = generate(parse_family("path:10"))
        with pytest.raises(CapExceededError):
            check_structural_lemmas(p10, K2)
