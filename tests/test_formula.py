"""Theorem-indexed formula engine: worked examples, prediction
soundness, witness construction, and hypothesis refusals."""

import pytest
from hypothesis import given, settings, strategies as st

from lexdom import (
    CapExceededError,
    DomainError,
    HypothesisError,
    InconsistencyError,
    ParameterKind,
    Prediction,
    TheoremId,
    build_graph,
    construct_witness,
    generate,
    is_feasible,
    is_prdf,
    is_rdf,
    lex_product,
    parse_family,
    predict,
    solve,
)
from lexdom import formula
from lexdom.formula import PREDICT_KINDS, STATEMENTS, Exact, Lower, PairFacts, open_packings
from lexdom.graph import RomanAssignment, bits, mask_from
from lexdom.solvers import _feasible_sets, _isolated_in, _roman_v1, enumerate_optimal_v2
from lexdom.verify import verify_pair

from test_graph import random_graph_strategy

P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
C4 = generate(parse_family("cycle:4"))
C5 = generate(parse_family("cycle:5"))
K2 = generate(parse_family("complete:2"))
K3 = generate(parse_family("complete:3"))
P3 = generate(parse_family("path:3"))
N2 = generate(parse_family("empty:2"))
N3 = generate(parse_family("empty:3"))
N4 = generate(parse_family("empty:4"))
K2K1 = generate(parse_family("union(complete:2,empty:1)"))


class TestPredictionType:
    def test_exact_and_interval(self):
        exact = Prediction(3, 3, ("X",))
        assert exact.exact and exact.value == 3 and exact.contains(3)
        interval = Prediction(2, 5, ("X:lo", "Y:hi"))
        assert not interval.exact
        assert interval.contains(2) and interval.contains(5) and not interval.contains(6)
        with pytest.raises(DomainError):
            _ = interval.value

    def test_empty_interval_rejected(self):
        for lo, hi in ((4, 3), (2, 1)):
            with pytest.raises(InconsistencyError):
                Prediction(lo, hi, ("X",))
        with pytest.raises(InconsistencyError):
            Prediction(1, 1, ())


class TestWorkedExamples:
    def test_gamma(self):
        p = predict(P4, K2, ParameterKind.gamma)
        assert p.value == 2 and "GAMMA_LEX" in p.provenance[0]
        assert predict(P4, N2, ParameterKind.gamma).value == 2  # gamma_t branch

    def test_gamma_p(self):
        assert predict(P4, K2, ParameterKind.gamma_p).value == 2        # P2
        assert predict(P4, N2, ParameterKind.gamma_p).value == 2        # P1
        assert predict(C4, K2, ParameterKind.gamma_p).value == 8        # otherwise: n*n

    def test_gamma_R(self):
        assert predict(P4, K2, ParameterKind.gamma_R).value == 4        # universal vertex
        assert predict(P4, K2K1, ParameterKind.gamma_R).value == 4      # zeta branch
        assert predict(P4, N3, ParameterKind.gamma_R).value == 4        # 2*gamma_t

    def test_gamma_Rp_exact_cases(self):
        assert predict(K3, P3, ParameterKind.gamma_Rp).value == 2       # gamma(G)=1, mindeg>=2
        assert predict(P4, N3, ParameterKind.gamma_Rp).value == 4       # isolated layers
        assert predict(P4, K3, ParameterKind.gamma_Rp).value == 4       # exact ECD

    def test_gamma_Rp_interval(self):
        p = predict(C5, P3, ParameterKind.gamma_Rp)
        assert not p.exact
        assert any(tag.endswith(":lo") for tag in p.provenance)
        assert any(tag.endswith(":hi") for tag in p.provenance)

    def test_unsupported_kind(self):
        with pytest.raises(DomainError):
            predict(P4, K2, ParameterKind.rho)


class TestSoundness:
    def test_measured_value_in_prediction(self, connected_g, all_h):
        # predictions never raise inconsistencies and always bracket the
        # measured value (subsampled; the full sweep runs in acceptance)
        for g in connected_g[::3]:
            for h in all_h[::2]:
                product, _ = lex_product(g, h)
                for kind in PREDICT_KINDS:
                    if kind is ParameterKind.gamma_p and not g.is_connected():
                        continue
                    p = predict(g, h, kind)
                    measured = solve(product, kind).value
                    assert p.contains(measured), (g, h, kind, p, measured)

    def test_exact_cases_consistent_on_boundary(self):
        # ECD and EOD exact cases can fire together when
        # n(H) = maxdeg(H) + mindeg(H) + 1; they must then agree
        # H = P4: n(H) = 4 = maxdeg + mindeg + 1
        p = predict(P4, P4, ParameterKind.gamma_Rp)
        assert p.exact and p.value == 6
        assert any("PR_EXACT_ECD" in t for t in p.provenance)
        assert any("PR_EXACT_EOD" in t for t in p.provenance)


class TestCrossChecks:
    """Each runtime cross-check raises InconsistencyError once one
    registry statement is made wrong."""

    def test_exact_statements_disagree(self, monkeypatch):
        # on P4 o P4 both PR_EXACT_ECD and PR_EXACT_EOD fire for gamma_Rp
        monkeypatch.setattr(STATEMENTS[TheoremId.PR_EXACT_EOD], "conclusion",
                            Exact(lambda f: (None, 7)))
        with pytest.raises(InconsistencyError, match="exact statements disagree"):
            predict(P4, P4, ParameterKind.gamma_Rp)

    def test_exact_value_outside_bounds(self, monkeypatch):
        # PR_EXACT_ECD gives 4 on P4 o K3; a lower bound of 5 excludes it
        monkeypatch.setattr(STATEMENTS[TheoremId.PR_TRIVIAL_LB], "conclusion",
                            Lower(lambda f: 5))
        with pytest.raises(InconsistencyError, match="exact value 4 outside aggregated bounds"):
            predict(P4, K3, ParameterKind.gamma_Rp)

    def test_invalid_set_construction(self, monkeypatch):
        monkeypatch.setattr(STATEMENTS[TheoremId.GAMMA_LEX], "witness", lambda f, branch: 1)
        with pytest.raises(InconsistencyError, match="GAMMA_LEX construction invalid: size 1"):
            construct_witness(TheoremId.GAMMA_LEX, P4, K2)

    def test_invalid_assignment_construction(self, monkeypatch):
        monkeypatch.setattr(STATEMENTS[TheoremId.ROMAN_LEX], "witness", lambda f, branch: (0, 1))
        with pytest.raises(InconsistencyError, match="ROMAN_LEX construction invalid: weight 1"):
            construct_witness(TheoremId.ROMAN_LEX, P4, K2K1)


class TestOpenPackings:
    def test_includes_empty_set(self):
        assert 0 in set(open_packings(P4))

    def test_all_are_open_packings(self):
        for s in open_packings(C5):
            members = [v for v in range(5) if s >> v & 1]
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert C5.adj[u] & C5.adj[v] == 0


def facts_by_definition(g, h):
    """The G-only facts of PairFacts, recomputed for the one pair (g, h)
    from their definitions: minima over every open packing, over every
    gamma_p(G)-set and over the optimal PRDFs, as (name, value) pairs."""
    gamma = solve(g, ParameterKind.gamma).value
    gamma_p = solve(g, ParameterKind.gamma_p).value
    dmin, dmax = h.degree_extremes()
    prdfs = [(v2, _roman_v1(g, ParameterKind.gamma_Rp, v2))
             for v2 in enumerate_optimal_v2(g, ParameterKind.gamma_Rp)]
    splits = []
    for s in _feasible_sets(g, ParameterKind.gamma_p, gamma_p):
        s_prime = mask_from(v for v in bits(s) if not g.epn(v, s))
        splits.append((s_prime.bit_count() + 2 * (s & ~s_prime).bit_count(), s, s_prime))
    _, s, s_prime = min(splits)
    packings = []
    for p in open_packings(g):
        s0 = _isolated_in(g, p).bit_count()
        packings.append((s0 * (h.n - dmax + 1) + (p.bit_count() - s0) * (2 + dmin)
                         + h.n * (g.n - g.closed_cover(p).bit_count()), p))
    return [
        ("prdf", (
            min(prdfs, key=lambda f: ((f[0] | f[1]).bit_count(), f[0])),
            next(((v2, v1) for v2, v1 in prdfs if v2.bit_count() == gamma
                  and is_feasible(g, v2, ParameterKind.gamma)), None),
            next(((v2, v1) for v2, v1 in prdfs if (v1 | v2).bit_count() == gamma_p
                  and is_feasible(g, v1 | v2, ParameterKind.gamma_p)), None))),
        ("epn_split", (s_prime, s & ~s_prime)),
        ("packing", min(packings)),
    ]


#: (PairFacts fact, its memo per G, the cap that refuses it first)
FACT_MEMOS = [
    ("prdf", "_prdf_picks", "gamma_Rp"),
    ("epn_split", "_epn_split", "gamma_p"),
    ("packing", "_packing_profiles", "open-packing"),
]


class TestPairFacts:
    def test_prdf_picks_one_enumeration(self, monkeypatch):
        # the three picks come from one enumeration of the optimal PRDFs
        # per G, made only when a statement reads one of them
        calls = []
        enumerate_v2 = formula.enumerate_optimal_v2
        monkeypatch.setattr(formula, "enumerate_optimal_v2",
                            lambda g, kind: calls.append(g) or enumerate_v2(g, kind))
        formula._prdf_picks.cache_clear()
        # G has an isolated vertex, so functions I, II and IV skip
        assert verify_pair(K2K1, K3).failures == ()
        info = formula._prdf_picks.cache_info()
        assert (calls, info.hits, info.misses) == ([], 0, 0)
        g = generate(parse_family("path:10"))
        picks = [(f.prdf.fewest_positive, f.prdf.v2_gamma_set, f.prdf.support_gamma_p_set)
                 for f in (PairFacts(g, K2), PairFacts(g, K3))]
        assert calls == [g] and picks[0] == picks[1]

    @pytest.mark.parametrize("fact, memo, cap", FACT_MEMOS)
    def test_cap_after_cache(self, monkeypatch, fact, memo, cap):
        # the memo per G must not outlive a lower LEXDOM_MAX_N: it refuses
        # with the message of the first cap that the fact's computation meets
        g = generate(parse_family("path:10"))
        monkeypatch.setenv("LEXDOM_MAX_N", "10")
        answer = getattr(PairFacts(g, K2), fact)
        hits = getattr(formula, memo).cache_info().hits
        assert getattr(PairFacts(g, K2), fact) == answer
        assert getattr(formula, memo).cache_info().hits == hits + 1
        monkeypatch.setenv("LEXDOM_MAX_N", "9")
        with pytest.raises(CapExceededError, match=f"^order 10 exceeds the {cap} cap 9$"):
            getattr(PairFacts(g, K2), fact)

    # derandomized: the same pairs on every run; each G meets three H,
    # so the later ones read the memos warm
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(random_graph_strategy(max_n=7),
           st.lists(random_graph_strategy(max_n=4), min_size=3, max_size=3))
    def test_memos_match_per_pair_definitions(self, g, hs):
        for h in hs:
            facts = PairFacts(g, h)
            for name, expected in facts_by_definition(g, h):
                assert getattr(facts, name) == expected, name


class TestWitnessConstruction:
    def test_set_witnesses(self):
        product, _ = lex_product(P4, K2)
        smask = construct_witness(TheoremId.GAMMA_LEX, P4, K2)
        assert is_feasible(product, smask, ParameterKind.gamma)
        assert smask.bit_count() == predict(P4, K2, ParameterKind.gamma).value
        pmask = construct_witness(TheoremId.GAMMAP_LEX, P4, K2)
        assert is_feasible(product, pmask, ParameterKind.gamma_p)

    def test_roman_witness_matches_formula(self):
        product, _ = lex_product(P4, K2K1)
        f = construct_witness(TheoremId.ROMAN_LEX, P4, K2K1)
        assert isinstance(f, RomanAssignment)
        assert is_rdf(product, f)
        assert f.weight == predict(P4, K2K1, ParameterKind.gamma_R).value == 4

    def test_upper_bound_witnesses_are_prdfs(self):
        cases = [
            (TheoremId.PR_UB_CORONA, P4, K2),
            (TheoremId.PR_UB_FUNCTION_I, P4, P3),
            (TheoremId.PR_UB_FUNCTION_III, C5, P3),
            (TheoremId.PR_UB_PACKING, C5, N3),
            (TheoremId.PR_COR_EOD, P4, N3),
            (TheoremId.PR_COR_ECD, P4, K3),
        ]
        for theorem, g, h in cases:
            product, _ = lex_product(g, h)
            f = construct_witness(theorem, g, h)
            assert is_prdf(product, f), theorem
            assert f.weight >= solve(product, ParameterKind.gamma_Rp).value

    def test_packing_witness_attains_bound(self):
        product, _ = lex_product(P4, N3)
        f = construct_witness(TheoremId.PR_UB_PACKING, P4, N3)
        assert is_prdf(product, f)
        # here the packing bound is the exact optimum
        assert f.weight == solve(product, ParameterKind.gamma_Rp).value == 4

    def test_exact_witness_attains_value(self):
        for theorem, g, h in [
            (TheoremId.PR_EXACT_ECD, P4, K3),
            (TheoremId.PR_EXACT_EOD, P4, N2),
            (TheoremId.PR_ISOLATED_LAYERS, P4, N3),
            (TheoremId.PR_GAMMA1_I, K3, P3),
            (TheoremId.PR_GAMMA1_II, K2, N4),   # both vertices of K2 are universal leaves
        ]:
            product, _ = lex_product(g, h)
            f = construct_witness(theorem, g, h)
            assert is_prdf(product, f), theorem
            assert f.weight == solve(product, ParameterKind.gamma_Rp).value, theorem

    def test_hypothesis_refusals(self):
        with pytest.raises(HypothesisError):
            construct_witness(TheoremId.PR_GAMMA1_I, P4, K2)     # gamma(P4) != 1
        with pytest.raises(HypothesisError):
            construct_witness(TheoremId.PR_COR_EOD, C5, K2)      # C5 not EOD
        with pytest.raises(HypothesisError):
            construct_witness(TheoremId.PR_COR_ECD, C4, K2)      # C4 not ECD
        with pytest.raises(HypothesisError):
            construct_witness(TheoremId.GAMMA_LEX, build_graph(3, [(0, 1)]), K2)

    def test_refusal_messages_name_facts(self):
        with pytest.raises(HypothesisError) as exc:
            construct_witness(TheoremId.PR_GAMMA1_I, P4, K2)
        assert "gamma" in str(exc.value)

    def test_witness_exactly_when_statement_applies(self, connected_g, all_h):
        # every builder, on every corpus pair: a valid object attaining the
        # statement's value or bound when the registry says the statement
        # applies (for an iff: its right-hand side holds), a refusal otherwise
        built = set()
        for g in connected_g:
            for h in all_h:
                product, _ = lex_product(g, h)
                f = PairFacts(g, h)
                for st in STATEMENTS.values():
                    if st.witness is None:
                        continue
                    if st.refusal(f) is not None:
                        with pytest.raises(HypothesisError):
                            construct_witness(st.id, g, h)
                        continue
                    w = construct_witness(st.id, g, h)
                    c = st.conclusion
                    expected = c.cases(f)[1] if isinstance(c, Exact) else c.value(f)
                    if isinstance(w, RomanAssignment):
                        valid = is_rdf if st.kind is ParameterKind.gamma_R else is_prdf
                        assert valid(product, w) and w.weight == expected, (st.id, g, h)
                    else:
                        assert is_feasible(product, w, st.kind), (st.id, g, h)
                        assert w.bit_count() == expected, (st.id, g, h)
                    built.add(st.id)
        assert built == {t for t, st in STATEMENTS.items() if st.witness is not None}
