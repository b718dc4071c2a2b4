"""Structural predicates: efficient open/closed domination, the pair
properties, and the Roman graph classes."""

import pytest

from lexdom import (
    CapExceededError,
    DomainError,
    HypothesisError,
    HypothesisKind,
    InconsistencyError,
    ParameterKind,
    bits,
    build_graph,
    check_hypothesis,
    generate,
    graph_class,
    is_dominating_couple,
    is_efficient_closed_domination,
    is_efficient_open_domination,
    mask_from,
    parse_family,
    solve,
    structure,
)

P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
C4 = generate(parse_family("cycle:4"))
C5 = generate(parse_family("cycle:5"))
K2 = generate(parse_family("complete:2"))
K3 = generate(parse_family("complete:3"))
N2 = generate(parse_family("empty:2"))


class TestFactorValue:
    def test_cap_after_cache(self, monkeypatch):
        # a memoized value must not outlive a lower cap; the refusal is
        # solve's, message included
        g = generate(parse_family("path:10"))
        factor_value = structure.factor_value
        factor_value.cache_clear()
        assert factor_value(g, ParameterKind.gamma) == 4
        monkeypatch.setenv("LEXDOM_MAX_N", "9")
        with pytest.raises(CapExceededError, match="^order 10 exceeds the gamma cap 9$"):
            solve(g, ParameterKind.gamma)
        with pytest.raises(CapExceededError, match="^order 10 exceeds the gamma cap 9$"):
            factor_value(g, ParameterKind.gamma)
        monkeypatch.setenv("LEXDOM_MAX_N", "10")
        assert factor_value(g, ParameterKind.gamma) == 4
        info = factor_value.cache_info()  # the memo's counters
        assert (info.hits, info.misses) == (1, 1)


class TestEfficientOpenDomination:
    def test_known_witnesses(self):
        assert is_efficient_open_domination(P4) == mask_from([1, 2])
        assert is_efficient_open_domination(K2) == mask_from([0, 1])
        assert is_efficient_open_domination(C4) is not None
        assert is_efficient_open_domination(C5) is None
        assert is_efficient_open_domination(K3) is None

    def test_cap_without_witness(self, monkeypatch):
        # C10 has no efficient open dominating set, so no size check
        # reaches the gamma_t solve; the cap refuses it all the same
        monkeypatch.setenv("LEXDOM_MAX_N", "9")
        with pytest.raises(CapExceededError, match="^order 10 exceeds the gamma_t cap 9$"):
            is_efficient_open_domination(generate(parse_family("cycle:10")))
        # an isolated vertex answers None at any order, without a walk
        assert is_efficient_open_domination(build_graph(10, [(0, 1)])) is None

    def test_witness_identities(self, oracle_corpus):
        # whenever a witness exists: |S| = gamma_t = rho_o, every vertex
        # has exactly one S-neighbor, and gamma_p <= gamma_t
        hits = 0
        for g in oracle_corpus[:400]:
            if g.has_isolated_vertex():
                continue
            smask = is_efficient_open_domination(g)
            if smask is None:
                continue
            hits += 1
            for v in range(g.n):
                assert sum(1 for u in bits(g.adj[v]) if smask >> u & 1) == 1
            gamma_t = solve(g, ParameterKind.gamma_t).value
            assert smask.bit_count() == gamma_t
            assert smask.bit_count() == solve(g, ParameterKind.rho_o).value
            assert solve(g, ParameterKind.gamma_p).value <= gamma_t
        assert hits > 5


class TestEfficientClosedDomination:
    def test_known_witnesses(self):
        assert is_efficient_closed_domination(P4) == mask_from([0, 3])
        assert is_efficient_closed_domination(K3) == mask_from([0])
        assert is_efficient_closed_domination(C4) is None

    def test_witness_identities(self, oracle_corpus):
        hits = 0
        for g in oracle_corpus[:400]:
            smask = is_efficient_closed_domination(g)
            if smask is None:
                continue
            hits += 1
            members = list(bits(smask))
            assert g.closed_cover(smask) == g.full_mask
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert g.closed_neighborhood(u) & g.closed_neighborhood(v) == 0
            assert smask.bit_count() == solve(g, ParameterKind.gamma).value
            assert smask.bit_count() == solve(g, ParameterKind.rho).value
        assert hits > 5

    def test_trees_gamma_equals_rho_but_ecd_may_fail(self, trees):
        # gamma(T) = rho(T) on every tree, yet no tree-wide guarantee
        # that one set attains both
        ecd_failures = 0
        for t in trees:
            assert solve(t, ParameterKind.gamma).value == solve(t, ParameterKind.rho).value
            if is_efficient_closed_domination(t) is None:
                ecd_failures += 1
        assert ecd_failures > 0


@pytest.mark.parametrize("predicate, wrong_kind", [
    (is_efficient_open_domination, ParameterKind.gamma_t),
    (is_efficient_open_domination, ParameterKind.rho_o),
    (is_efficient_closed_domination, ParameterKind.gamma),
    (is_efficient_closed_domination, ParameterKind.rho),
])
def test_size_cross_check_raises(monkeypatch, predicate, wrong_kind):
    # the witness-size identities are checked at run time, also under -O
    true_value = structure.factor_value

    def factor_value(g, kind):
        return true_value(g, kind) + (kind is wrong_kind)

    monkeypatch.setattr(structure, "factor_value", factor_value)
    with pytest.raises(InconsistencyError):
        predicate.__wrapped__(P4)  # bypass the cache


class TestHypotheses:
    def test_p1(self):
        assert check_hypothesis(P4, N2, HypothesisKind.P1)
        assert not check_hypothesis(P4, K2, HypothesisKind.P1)  # mindeg(H) != 0
        assert not check_hypothesis(C5, N2, HypothesisKind.P1)  # no EOD witness

    def test_p2(self):
        assert check_hypothesis(P4, K2, HypothesisKind.P2)
        assert not check_hypothesis(P4, N2, HypothesisKind.P2)  # gamma(H) != 1
        assert not check_hypothesis(C4, K2, HypothesisKind.P2)  # no ECD witness

    def test_p3(self):
        assert check_hypothesis(P4, N2, HypothesisKind.P3)
        star = generate(parse_family("star:4"))
        # star is EOD but gamma_p = 1 < 2 = gamma_t
        assert check_hypothesis(star, N2, HypothesisKind.P1)
        assert not check_hypothesis(star, N2, HypothesisKind.P3)

    def test_p3_implies_p1(self, connected_g, all_h):
        for g in connected_g:
            for h in all_h[:6]:
                if check_hypothesis(g, h, HypothesisKind.P3):
                    assert check_hypothesis(g, h, HypothesisKind.P1)

    def test_facts_exposed(self):
        check = check_hypothesis(P4, K2, HypothesisKind.P2)
        assert check.fact("gamma_h") == 1
        assert check.fact("ecd_witness") == mask_from([0, 3])

    def test_trivial_factors_rejected(self):
        one = build_graph(1, [])
        for a, b in ((one, K2), (K2, one)):
            with pytest.raises(HypothesisError):
                check_hypothesis(a, b, HypothesisKind.P1)


class TestGraphClasses:
    def test_roman_class(self, fig2):
        result = graph_class(fig2, "roman")
        assert result and result.lhs == 6 and result.rhs == 6

    def test_perfect_roman_class(self, fig2):
        result = graph_class(fig2, "perfect_roman")
        assert not result and result.lhs == 9 and result.rhs == 12

    def test_star_is_perfect_roman(self):
        assert graph_class(generate(parse_family("star:4")), "perfect_roman")

    def test_cycles_and_path(self):
        # (gamma_R, 2 gamma) and (gamma_Rp, 2 gamma_p)
        for spec, roman, perfect in (("cycle:6", (4, 4), (4, 4)),
                                     ("cycle:5", (4, 4), (4, 6)),
                                     ("path:4", (3, 4), (3, 4))):
            g = generate(parse_family(spec))
            for which, (lhs, rhs) in (("roman", roman), ("perfect_roman", perfect)):
                result = graph_class(g, which)
                assert (result.lhs, result.rhs) == (lhs, rhs), (spec, which)
                assert bool(result) is (lhs == rhs) and result.which == which

    def test_unknown_class(self):
        with pytest.raises(DomainError):
            graph_class(P4, "total_roman")


class TestDominatingCouple:
    def test_examples(self):
        assert is_dominating_couple(P4, mask_from([1, 2]), 0)
        assert is_dominating_couple(P4, 0, mask_from([0, 1, 2, 3]))
        assert not is_dominating_couple(P4, mask_from([0]), 0)

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            is_dominating_couple(P4, 0b01, 0b01)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            is_dominating_couple(P4, 1 << 6, 0)
