"""Theorem-indexed formula engine: worked examples, prediction
soundness, witness construction, and hypothesis refusals."""

import pytest

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
from lexdom.formula import PREDICT_KINDS, STATEMENTS, Exact, PairFacts, open_packings
from lexdom.graph import RomanAssignment

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


class TestOpenPackings:
    def test_includes_empty_set(self):
        assert 0 in set(open_packings(P4))

    def test_all_are_open_packings(self):
        for s in open_packings(C5):
            members = [v for v in range(5) if s >> v & 1]
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert C5.adj[u] & C5.adj[v] == 0


class TestPairFacts:
    def test_optimal_prdfs_cap_after_cache(self, monkeypatch):
        # the memo per G must not outlive a lower LEXDOM_MAX_N
        g = generate(parse_family("path:10"))
        monkeypatch.setenv("LEXDOM_MAX_N", "10")
        answer = PairFacts(g, K2).optimal_prdfs
        assert answer and PairFacts(g, K3).optimal_prdfs == answer
        monkeypatch.setenv("LEXDOM_MAX_N", "9")
        with pytest.raises(CapExceededError, match="^order 10 exceeds the gamma_Rp cap 9$"):
            PairFacts(g, K2).optimal_prdfs


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
