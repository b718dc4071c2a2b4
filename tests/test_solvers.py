"""Exact solvers: hand-checked values, witness validity, canonical
tie-breaking, caps and domain errors, and the couple parameters."""

import random

import pytest
from hypothesis import given, settings

from lexdom import (
    CapExceededError,
    DomainError,
    InconsistencyError,
    ParameterKind,
    bits,
    build_graph,
    enumerate_optimal_v2,
    generate,
    is_feasible,
    is_prdf,
    is_rdf,
    is_trdf,
    mask_from,
    parse_family,
    solve,
    zeta,
    zeta_couples,
    zeta_prime,
)
from lexdom.graph import RomanAssignment
from lexdom import solvers
from lexdom.solvers import dominating_open_packings

from test_graph import random_graph_strategy

from brute import (
    canonical_set_oracle,
    canonical_trdf_v1_oracle,
    roman_oracle,
    set_oracle,
    zeta_oracle,
    zeta_prime_oracle,
)

P4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
C5 = generate(parse_family("cycle:5"))
K4 = generate(parse_family("complete:4"))
STAR4 = generate(parse_family("star:4"))

SET_KINDS = (ParameterKind.gamma, ParameterKind.gamma_t, ParameterKind.gamma_p,
             ParameterKind.rho, ParameterKind.rho_o)
ROMAN_KINDS = (ParameterKind.gamma_R, ParameterKind.gamma_Rp, ParameterKind.gamma_tR)


def random_graphs(count, max_n=7, seed=20418, min_n=2):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(min_n, max_n)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < rng.choice((0.25, 0.5, 0.75))]
        out.append(build_graph(n, edges))
    return out


class TestHandValues:
    def test_path4(self):
        expected = {"gamma": 2, "gamma_t": 2, "gamma_p": 2, "rho": 2, "rho_o": 2,
                    "gamma_R": 3, "gamma_Rp": 3, "gamma_tR": 4}
        for kind, value in expected.items():
            assert solve(P4, ParameterKind(kind)).value == value, kind

    def test_complete(self):
        assert solve(K4, ParameterKind.gamma).value == 1
        assert solve(K4, ParameterKind.gamma_R).value == 2
        assert solve(K4, ParameterKind.gamma_t).value == 2
        assert solve(K4, ParameterKind.rho).value == 1
        # any two vertices of K4 share open neighbors
        assert solve(K4, ParameterKind.rho_o).value == 1

    def test_star(self):
        assert solve(STAR4, ParameterKind.gamma).value == 1
        assert solve(STAR4, ParameterKind.gamma_Rp).value == 2
        assert solve(STAR4, ParameterKind.gamma_tR).value == 3

    def test_figure_fixtures(self, fig1, fig2):
        assert solve(fig1, ParameterKind.gamma_R).value == 4
        assert solve(fig1, ParameterKind.gamma_Rp).value == 4
        assert solve(fig2, ParameterKind.gamma).value == 3
        assert solve(fig2, ParameterKind.gamma_R).value == 6
        assert solve(fig2, ParameterKind.gamma_p).value == 6
        assert solve(fig2, ParameterKind.gamma_Rp).value == 9


class TestOracleAgreement:
    def test_set_kinds(self):
        for g in random_graphs(40):
            for kind in SET_KINDS:
                if kind is ParameterKind.gamma_t and g.has_isolated_vertex():
                    continue
                assert solve(g, kind).value == set_oracle(g, kind.value), (kind, g)

    def test_roman_kinds(self):
        for g in random_graphs(40, seed=977):
            for kind in ROMAN_KINDS:
                if kind is ParameterKind.gamma_tR and g.has_isolated_vertex():
                    continue
                assert solve(g, kind).value == roman_oracle(g, kind.value), (kind, g)


class TestWitnesses:
    def test_set_witness_feasible(self):
        for g in random_graphs(25, seed=5):
            for kind in SET_KINDS:
                if kind is ParameterKind.gamma_t and g.has_isolated_vertex():
                    continue
                result = solve(g, kind)
                assert is_feasible(g, result.witness, kind)
                assert result.witness.bit_count() == result.value

    def test_roman_witness_valid(self):
        checks = {ParameterKind.gamma_R: is_rdf, ParameterKind.gamma_Rp: is_prdf,
                  ParameterKind.gamma_tR: is_trdf}
        for g in random_graphs(25, seed=6):
            for kind, check in checks.items():
                if kind is ParameterKind.gamma_tR and g.has_isolated_vertex():
                    continue
                result = solve(g, kind)
                assert isinstance(result.witness, RomanAssignment)
                assert check(g, result.witness)
                assert result.witness.weight == result.value

    def test_roman_witness_canonical_min_v2_mask(self):
        # the returned witness carries the numerically smallest optimal
        # V2 mask, independently recomputed by full enumeration
        for g in random_graphs(15, max_n=6, seed=7):
            for kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
                result = solve(g, kind)
                optima = enumerate_optimal_v2(g, kind)
                assert result.witness.v2 == min(optima)

    def test_set_witness_canonical_on_oracle_corpus(self, oracle_corpus):
        # the numerically smallest optimal set, recomputed from the
        # definitions by a Gosper scan over the optimal size
        for g in oracle_corpus:
            for kind in SET_KINDS:
                if kind is ParameterKind.gamma_t and g.has_isolated_vertex():
                    continue
                assert solve(g, kind).witness == canonical_set_oracle(g, kind.value), (kind, g)

    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=9))
    def test_set_witness_canonical_random(self, g):
        for kind in SET_KINDS:
            if kind is ParameterKind.gamma_t and g.has_isolated_vertex():
                continue
            assert solve(g, kind).witness == canonical_set_oracle(g, kind.value), kind

    def test_gamma_tR_v1_forced_plus_lex_min_extra(self, oracle_corpus):
        for g in oracle_corpus:
            if g.has_isolated_vertex():
                continue
            result = solve(g, ParameterKind.gamma_tR)
            v2 = result.witness.v2
            assert result.witness.v1 == canonical_trdf_v1_oracle(g, v2, result.value), g

    def test_missing_witness_raises(self, monkeypatch):
        # a value search that reports a size with no feasible set of that
        # size is an internal fault, reported also under python -O
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        monkeypatch.setattr(solvers, "_gamma_value", lambda g: (1, 0))
        with pytest.raises(InconsistencyError):
            solve(path, ParameterKind.gamma)

    def test_deterministic(self):
        for g in random_graphs(8, seed=8):
            for kind in SET_KINDS + ROMAN_KINDS:
                if kind in (ParameterKind.gamma_t, ParameterKind.gamma_tR) \
                        and g.has_isolated_vertex():
                    continue
                first = solve(g, kind)
                second = solve(g, kind)
                assert (first.value, first.witness) == (second.value, second.witness)


class TestEnumerateOptimalV2:
    def test_matches_brute_force(self):
        for g in random_graphs(12, max_n=6, seed=9):
            for kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
                optimum = roman_oracle(g, kind.value)
                brute = set()
                for v2 in range(1 << g.n):
                    best = None
                    for v1 in _submasks(g.full_mask & ~v2):
                        f = _assignment(g.n, v1, v2)
                        valid = is_prdf(g, f) if kind is ParameterKind.gamma_Rp else is_rdf(g, f)
                        if valid and (best is None or f.weight < best):
                            best = f.weight
                    if best == optimum:
                        brute.add(v2)
                assert set(enumerate_optimal_v2(g, kind)) == brute, (kind, g)


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _assignment(n, v1, v2):
    weights = [0] * n
    for v in bits(v1):
        weights[v] = 1
    for v in bits(v2):
        weights[v] = 2
    return RomanAssignment(tuple(weights))


class TestDomainAndCaps:
    def test_total_kinds_reject_isolated(self):
        g = build_graph(3, [(0, 1)])
        for kind in (ParameterKind.gamma_t, ParameterKind.gamma_tR):
            with pytest.raises(DomainError):
                solve(g, kind)
        # open packings tolerate isolated vertices: they conflict with nothing
        assert solve(g, ParameterKind.rho_o).value == 3

    def test_gamma_handles_isolated(self):
        g = build_graph(3, [(0, 1)])
        assert solve(g, ParameterKind.gamma).value == 2
        assert solve(g, ParameterKind.gamma_R).value == 3

    def test_edgeless(self):
        g = build_graph(3, [])
        assert solve(g, ParameterKind.gamma).value == 3
        assert solve(g, ParameterKind.rho).value == 3
        assert solve(g, ParameterKind.gamma_Rp).value == 3

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert solve(g, ParameterKind.gamma).value == 1
        assert solve(g, ParameterKind.gamma_R).value == 1

    def test_cap_exceeded(self):
        g = generate(parse_family("path:20"))
        with pytest.raises(CapExceededError):
            solve(g, ParameterKind.gamma, max_n=10)

    def test_cap_env_override(self, monkeypatch):
        g = generate(parse_family("path:28"))
        monkeypatch.setenv("LEXDOM_MAX_N", "27")
        with pytest.raises(CapExceededError):
            solve(g, ParameterKind.gamma)
        monkeypatch.setenv("LEXDOM_MAX_N", "30")
        assert solve(g, ParameterKind.gamma).value == 10


class TestFeasibilityPredicates:
    def test_is_feasible_definitions(self):
        g = P4
        assert is_feasible(g, mask_from([1, 2]), ParameterKind.gamma)
        assert not is_feasible(g, mask_from([0]), ParameterKind.gamma)
        assert is_feasible(g, mask_from([1, 2]), ParameterKind.gamma_t)
        assert is_feasible(g, mask_from([0, 3]), ParameterKind.rho)
        assert not is_feasible(g, mask_from([0, 2]), ParameterKind.rho)
        assert is_feasible(g, mask_from([0, 1]), ParameterKind.rho_o)

    def test_roman_predicates(self):
        g = P4
        assert is_rdf(g, _assignment(4, 0, mask_from([1, 2])))
        assert not is_rdf(g, _assignment(4, 0, mask_from([1])))
        assert is_prdf(g, _assignment(4, mask_from([3]), mask_from([1])))
        # vertex 1 sees two 2s: not perfect
        assert not is_prdf(g, _assignment(4, 0, mask_from([0, 2])))
        assert is_trdf(g, _assignment(4, 0, mask_from([1, 2])))
        assert not is_trdf(g, _assignment(4, mask_from([3]), mask_from([1])))


class TestCoupleParameters:
    def test_zeta_oracle_agreement(self):
        for g in random_graphs(25, max_n=6, seed=11):
            if g.has_isolated_vertex():
                continue
            value, (a, b) = zeta(g)
            assert value == zeta_oracle(g)
            assert a & b == 0
            assert value == 2 * a.bit_count() + 3 * b.bit_count()
            zp = zeta_prime(g)
            assert (zp[0] if zp is not None else None) == zeta_prime_oracle(g)

    def test_zeta_triangle(self):
        k3 = generate(parse_family("complete:3"))
        assert zeta(k3)[0] == 3

    def test_zeta_couples_all_optimal(self):
        value, _ = zeta(P4)
        couples = zeta_couples(P4)
        assert couples
        for a, b in couples:
            assert 2 * a.bit_count() + 3 * b.bit_count() == value

    def test_zeta_prime_absent(self):
        # C5 has no dominating open packing
        assert zeta_prime_oracle(C5) is None
        assert zeta_prime(C5) is None

    def test_zeta_prime_weight_not_cardinality(self):
        # on K2 the singleton (weight 4) beats the full edge (weight 4)?
        # no: {0,1} has S0 empty -> weight 4; {0} dominates with S0={0}
        # -> weight 4 as well; canonical minimum-weight witness is {0}
        k2 = build_graph(2, [(0, 1)])
        value, smask = zeta_prime(k2)
        assert value == 4
        assert smask == mask_from([0])

    def test_dominating_open_packings(self):
        packings = list(dominating_open_packings(P4))
        assert mask_from([1, 2]) in packings
        for s in packings:
            members = list(bits(s))
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert P4.adj[u] & P4.adj[v] == 0
            assert P4.open_cover(s) | s == P4.full_mask


class TestInvariantChains:
    def test_chains_random_sample(self):
        for g in random_graphs(30, seed=12):
            gam = solve(g, ParameterKind.gamma).value
            gp = solve(g, ParameterKind.gamma_p).value
            rho = solve(g, ParameterKind.rho).value
            gr = solve(g, ParameterKind.gamma_R).value
            grp = solve(g, ParameterKind.gamma_Rp).value
            assert rho <= gam <= gp
            assert gr <= grp <= 2 * gp
            assert gr <= 2 * gam
            if not g.has_isolated_vertex():
                gt = solve(g, ParameterKind.gamma_t).value
                ro = solve(g, ParameterKind.rho_o).value
                gtr = solve(g, ParameterKind.gamma_tR).value
                assert gam <= gt <= 2 * gam
                assert rho <= ro <= gt
                assert gr <= gtr
