"""Exact solvers: hand-checked values, witness validity, canonical
tie-breaking, caps and domain errors, and the couple parameters."""

import ast
import importlib
import os
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lexdom
from lexdom import (
    CapExceededError,
    lex_product,
    parse_graph6,
    DomainError,
    InconsistencyError,
    ParameterKind,
    bits,
    build_graph,
    check_structural_lemmas,
    enumerate_optimal_v2,
    generate,
    is_feasible,
    is_prdf,
    is_rdf,
    is_trdf,
    mask_from,
    parse_family,
    solve,
    verify_corpus,
    verify_pair,
    zeta,
    zeta_couples,
    zeta_prime,
)
from lexdom.graph import RomanAssignment
from lexdom import solvers
from lexdom.solvers import dominating_open_packings, open_packings
from lexdom.structure import is_efficient_closed_domination, is_efficient_open_domination

from test_graph import random_graph_strategy

from brute import (
    canonical_roman_oracle,
    canonical_set_oracle,
    canonical_trdf_v1_oracle,
    dominating_open_packings_oracle,
    ecd_oracle,
    eod_oracle,
    gamma_tR_loop_reference,
    open_packings_oracle,
    roman_oracle,
    roman_tree_reference,
    set_oracle,
    zeta_couples_oracle,
    zeta_oracle,
    zeta_prime_oracle,
    zeta_prime_set_oracle,
)
from fresh import run_fresh

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
    def test_oracles_import_only_the_graph_type(self):
        # an oracle that reuses production code cannot catch its bugs
        tree = ast.parse(Path(__file__).with_name("brute.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert {m for m in imported if m.split(".")[0] == "lexdom"} <= {"lexdom.graph"}

    def test_only_solvers_reaches_the_roman_searches(self):
        # the other layers read optimal V2 sets from enumerate_optimal_v2
        # and values from solve, never from the searches themselves
        private = {"_roman_scan", "_solve_gamma_tR"}
        for path in Path(solvers.__file__).parent.glob("*.py"):
            if path.name == "solvers.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                assert not names & private, (path.name, node.lineno)

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

    def test_roman_witness_canonical_on_oracle_corpus(self, oracle_corpus):
        # value and smallest optimal V2 mask straight from the definitions
        for g in oracle_corpus:
            if g.n > 6:
                continue
            for kind in ("gamma_R", "gamma_Rp"):
                result = solve(g, ParameterKind(kind))
                assert (result.value, result.witness.v2) == canonical_roman_oracle(g, kind), \
                    (kind, g)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_roman_witness_canonical_random(self, g):
        for kind in ("gamma_R", "gamma_Rp"):
            result = solve(g, ParameterKind(kind))
            assert (result.value, result.witness.v2) == canonical_roman_oracle(g, kind), kind

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


def _lex(g, h):
    return lex_product(g, generate(parse_family(h)))[0]


class TestRomanSearchTree:
    """The gamma_R / gamma_Rp branch-and-bound, node for node.

    Each row holds, for gamma_R then gamma_Rp, what one ``_roman_scan``
    returns: the value, the canonical V2 mask (the witness of ``solve``),
    ``explored`` and the number of optimal V2 sets (what
    enumerate_optimal_v2 returns).  ``explored`` is part of every
    ``lexdom solve`` body, so the perfbench cli pins hash it too: a
    change that moves a count here has to re-pin both.
    """

    PINS = {
        "fig2 o complete:3": [(6, 73, 3994, 27), (20, 19136584, 476403, 729)],
        "fig2 o empty:3": [(6, 73, 3100, 27), (19, 9, 362271, 27)],
        "fig2 o path:3": [(6, 73, 3981, 27), (18, 38273096, 346102, 12)],
        "fig2 o complete:2": [(6, 21, 1267, 8), (15, 21, 23407, 8)],
        "cycle:12 o path:3": [(8, 268960770, 29152, 3),
                              (8, 268960770, 10175, 3)],
        "fig1": [(4, 1, 18, 3), (4, 1, 18, 2)],
        "fig2": [(6, 7, 193, 1), (9, 1, 444, 7)],
        "D`{": [(2, 16, 5, 1), (2, 16, 5, 1)],
        "FxSQ?": [(4, 2, 25, 3), (4, 2, 25, 2)],
        "F}bBg": [(3, 1, 7, 2), (3, 1, 7, 2)],
        "F~~~w": [(2, 1, 7, 7), (2, 1, 7, 7)],
        "GACQR?": [(6, 2, 69, 6), (6, 2, 57, 5)],
        "empty:5": [(5, 0, 12, 1), (5, 0, 12, 1)],
    }

    @pytest.fixture(scope="class")
    def graphs(self, fig1, fig2):
        named = {"fig1": fig1, "fig2": fig2,
                 "fig2 o complete:3": _lex(fig2, "complete:3"),
                 "fig2 o empty:3": _lex(fig2, "empty:3"),
                 "fig2 o path:3": _lex(fig2, "path:3"),
                 "fig2 o complete:2": _lex(fig2, "complete:2"),
                 "cycle:12 o path:3": _lex(generate(parse_family("cycle:12")), "path:3"),
                 "empty:5": generate(parse_family("empty:5"))}
        return {name: named.get(name) or parse_graph6(name) for name in self.PINS}

    @pytest.mark.parametrize("name", list(PINS))
    def test_pinned(self, graphs, name):
        g = graphs[name]
        row = []
        for kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
            value, masks, explored = solvers._roman_scan(g, kind)
            row.append((value, masks[0], explored, len(masks)))
        assert row == self.PINS[name]

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=14))
    def test_same_tree_as_reference(self, g):
        assert_same_roman_tree(g)

    # derandomized: the same 60 products on every run, so the time of the
    # uncut reference on the largest of them does not vary from run to run
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_graph_strategy(max_n=6), random_graph_strategy(max_n=4))
    def test_same_tree_as_reference_on_products(self, g, h):
        # on products the set of vertices seeing two members grows large,
        # which is where the stronger stop of the child loop fires
        assert_same_roman_tree(lex_product(g, h)[0])


def assert_same_roman_tree(g):
    """The child loop of ``_roman_scan`` skips only children that could
    not count, so every output, ``explored`` and the optimal V2 sets
    included, is the uncut loop's, for both kinds."""
    for kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
        assert solvers._roman_scan(g, kind) == roman_tree_reference(g, kind.value), kind


#: second factors rich in twins: every layer of G o H is a module, so the
#: twins of H are twins in every layer (path:2 is complete:2)
TWIN_HEAVY_H = ("empty:2", "empty:3", "complete:2", "complete:3", "path:3")


def twin_heavy_products(max_order):
    """G o H with H in TWIN_HEAVY_H and G on at most max_order // n(H)
    vertices."""
    return st.sampled_from(TWIN_HEAVY_H).flatmap(
        lambda h: random_graph_strategy(max_n=max_order // generate(parse_family(h)).n)
        .map(lambda g: _lex(g, h)))


class TestValueOnly:
    """``solve(..., witness=False)``: the optimum alone, with no witness.

    The gamma_R / gamma_Rp scan runs with strict gates, so its tree is
    part of the tie-keeping one; every other kind searches the same tree.
    """

    #: (value, explored) of the value-only gamma_R and gamma_Rp scans of
    #: graphs whose tie-keeping counts TestRomanSearchTree.PINS holds
    PINS = {
        "fig2": [(6, 75), (9, 296)],
        "fig2 o complete:3": [(6, 203), (20, 3962)],
        "fig2 o path:3": [(6, 425), (18, 67003)],
        "cycle:12 o path:3": [(8, 3277), (8, 2977)],
    }

    @pytest.fixture(scope="class")
    def graphs(self, fig2):
        return {"fig2": fig2,
                "fig2 o complete:3": _lex(fig2, "complete:3"),
                "fig2 o path:3": _lex(fig2, "path:3"),
                "cycle:12 o path:3": _lex(generate(parse_family("cycle:12")), "path:3")}

    @pytest.mark.parametrize("name", list(PINS))
    def test_pinned(self, graphs, name):
        g = graphs[name]
        row = []
        for kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
            result = solve(g, kind, max_n=g.n, witness=False)
            assert result.witness is None
            row.append((result.value, result.explored))
        assert row == self.PINS[name]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(random_graph_strategy(max_n=9))
    def test_same_value_as_solve_and_oracle(self, g):
        for kind in SET_KINDS + ROMAN_KINDS:
            if kind in solvers.TOTAL_KINDS and g.has_isolated_vertex():
                continue
            full = solve(g, kind)
            bare = solve(g, kind, witness=False)
            oracle = (set_oracle if kind in SET_KINDS else roman_oracle)(g, kind.value)
            assert bare.value == full.value == oracle, kind
            assert bare.witness is None, kind
            if kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
                assert bare.explored <= full.explored, kind
            else:
                assert bare.explored == full.explored, kind

    def test_same_value_on_oracle_corpus(self, oracle_corpus):
        # every graph on 2-7 vertices, dense ones included, where a gate
        # one too strict loses the optimum
        for g in oracle_corpus:
            for kind in SET_KINDS + ROMAN_KINDS:
                if kind in solvers.TOTAL_KINDS and g.has_isolated_vertex():
                    continue
                assert solve(g, kind, witness=False).value == solve(g, kind).value, (kind, g)

    def test_witness_built_once_and_only_by_default(self, monkeypatch, fig1, fig2,
                                                     oracle_corpus):
        calls = []
        for name in ("_first_feasible_set", "assignment_from_masks"):
            def spy(*args, _name=name, _real=getattr(solvers, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(solvers, name, spy)
        graphs = [fig1, fig2, generate(parse_family("star:13")),
                  generate(parse_family("path:14")), *oracle_corpus[::50]]
        for g in graphs:
            for kind in SET_KINDS + ROMAN_KINDS:
                if kind in solvers.TOTAL_KINDS and g.has_isolated_vertex():
                    continue
                calls.clear()
                solve(g, kind, max_n=g.n, witness=False)
                assert calls == [], (kind, g)
                solve(g, kind, max_n=g.n)
                # the canonical set, or one Roman function (gamma_tR
                # completes its V1 with the smallest extra set)
                built = (["_first_feasible_set"] if kind in SET_KINDS
                         else ["_first_feasible_set", "assignment_from_masks"]
                         if kind is ParameterKind.gamma_tR else ["assignment_from_masks"])
                assert calls == built, (kind, g)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(twin_heavy_products(9))
    def test_twin_heavy_products_against_oracle(self, product):
        # the twin rule searches one V2 of each orbit under twin swaps
        for kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
            assert (solve(product, kind, witness=False).value
                    == roman_oracle(product, kind.value)), kind

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(twin_heavy_products(24))
    def test_twin_heavy_products_against_solve(self, product):
        for kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
            assert solve(product, kind, witness=False).value == solve(product, kind).value, kind

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_graph_strategy(max_n=6), random_graph_strategy(max_n=4))
    def test_same_tree_as_reference_on_products(self, g, h):
        # node for node the uncut loop that recurses only below the best
        product = lex_product(g, h)[0]
        for kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
            assert (solvers._roman_scan(product, kind, ties=False)
                    == roman_tree_reference(product, kind.value, ties=False)), kind


class TestRomanPlan:
    """``_roman_plan``: the per-graph set-up that the gamma_R and gamma_Rp
    searches of one graph share changes no search."""

    GRAPHS = random_graphs(25, max_n=9, seed=5107) + [
        _lex(generate(parse_family("cycle:6")), "empty:3"),
        _lex(generate(parse_family("path:5")), "complete:2"),
    ]

    @staticmethod
    def value_only(g, kind):
        result = solve(g, kind, max_n=g.n, witness=False)
        return result.value, result.explored

    @pytest.mark.parametrize("g", GRAPHS)
    def test_same_search_cold_and_shared(self, g):
        plan = solvers._roman_plan
        pair = (ParameterKind.gamma_R, ParameterKind.gamma_Rp)
        for kind, other in (pair, pair[::-1]):
            plan.cache_clear()
            cold = self.value_only(g, kind)
            full = solve(g, kind, max_n=g.n)
            plan.cache_clear()
            self.value_only(g, other)
            hits = plan.cache_info().hits
            assert self.value_only(g, kind) == cold, kind
            assert plan.cache_info().hits == hits + 1, kind
            # after a tie-keeping solve, whose set-up has no twin flags
            plan.cache_clear()
            solve(g, other, max_n=g.n)
            assert self.value_only(g, kind) == cold, kind
            assert solve(g, kind, max_n=g.n) == full, kind

    def test_bounded_after_verify_corpus(self):
        solvers._roman_plan.cache_clear()
        gs = random_graphs(4, max_n=5, seed=7)
        hs = [generate(parse_family(h)) for h in ("complete:2", "empty:3", "path:3")]
        verify_corpus(gs, hs)
        info = solvers._roman_plan.cache_info()
        # more graphs than it holds passed through it
        assert info.misses > 4
        assert info.currsize <= 4

    def test_cleared_with_every_memo(self):
        solve(C5, ParameterKind.gamma_R, witness=False)
        solve(C5, ParameterKind.gamma_R)
        assert solvers._roman_plan.cache_info().currsize > 0
        solvers.capped_memo.cache_clear()
        assert solvers._roman_plan.cache_info().currsize == 0


class TestGammaTRSearchTree:
    """The gamma_tR search, node for node.

    Each row holds the value, the V1 and V2 masks of the witness and
    ``explored`` of ``solve(g, gamma_tR)`` on one of the 14-vertex graphs
    of the factor-solve benchmark.  ``explored`` is part of every
    ``lexdom solve`` body, so the perfbench cli pins hash it too: a
    change that moves a count here has to re-pin both.
    """

    PINS = {
        "path:14": (14, 16383, 0, 43615),
        "cycle:14": (14, 16383, 0, 49201),
        "star:13": (3, 2, 1, 16397),
        "corona(path:7,1)": (14, 16383, 0, 35781),
        "corona(cycle:7,1)": (14, 16383, 0, 37893),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_pinned(self, name):
        value, witness, explored = solve(generate(parse_family(name)), ParameterKind.gamma_tR)
        assert (value, witness.v1, witness.v2, explored) == self.PINS[name]

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=11))
    def test_same_as_loop_reference(self, g):
        # the block skip changes no output of the scan over every V2
        # mask, ``explored`` included; graphs with an isolated vertex,
        # which ``solve`` refuses, have no V1 to complete
        value, v2, explored = solvers._solve_gamma_tR(g)
        ref_value, ref_v1, ref_v2, ref_explored = gamma_tR_loop_reference(g)
        assert (value, v2, explored) == (ref_value, ref_v2, ref_explored)
        if not g.has_isolated_vertex():
            assert solvers._roman_v1(g, ParameterKind.gamma_tR, v2) == ref_v1


class TestSetSearchTree:
    """The gamma_p and packing value searches, node for node.

    Each row holds (value, explored) of ``_gamma_p_value``, of
    ``_packing_value`` for rho and of ``_packing_value`` for rho_o, then
    the ``_search_order`` both searches decide vertices in.  ``explored``
    is part of every ``lexdom solve`` body, so the perfbench cli pins
    hash it too: a change that moves a count here has to re-pin both.
    """

    PINS = {
        "fig1": ([(2, 22), (2, 26), (3, 28)], [3, 2, 1, 0, 4, 5]),
        "fig2": ([(6, 53), (3, 229), (3, 272)],
                 [6, 0, 1, 2, 3, 4, 7, 8, 5, 9, 10, 11, 12, 13, 14]),
        "GACQR?": ([(4, 36), (4, 43), (4, 69)], [0, 2, 7, 1, 3, 6, 4, 5]),
        "F}bBg": ([(2, 20), (2, 28), (2, 32)], [4, 0, 1, 2, 3, 5, 6]),
        "fig2 o complete:3": (
            [(45, 155), (3, 7207), (3, 7207)],
            [18, 0, 1, 2, 19, 20, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 21, 22, 23, 24,
             25, 26, 15, 16, 17, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
             41, 42, 43, 44]),
        "fig2 o path:3": (
            [(45, 134), (3, 7207), (3, 7207)],
            [18, 0, 1, 2, 19, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 20, 21, 22, 23, 24,
             25, 26, 15, 16, 17, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
             41, 42, 43, 44]),
        "cycle:12 o path:3": (
            [(4, 291), (4, 11249), (4, 11249)],
            [0, 1, 3, 4, 5, 33, 34, 35, 2, 6, 7, 8, 30, 31, 32, 9, 10, 11, 27, 28, 29, 12,
             13, 14, 24, 25, 26, 15, 16, 17, 21, 22, 23, 18, 19, 20]),
        "cycle:14 o empty:3": (
            [(42, 37612), (4, 42209), (6, 574681)],
            [0, 3, 4, 5, 39, 40, 41, 1, 2, 6, 7, 8, 36, 37, 38, 9, 10, 11, 33, 34, 35, 12,
             13, 14, 30, 31, 32, 15, 16, 17, 27, 28, 29, 18, 19, 20, 24, 25, 26, 21, 22,
             23]),
        "cycle:15 o empty:3": (
            [(45, 79168), (5, 70135), (7, 1209182)],
            [0, 3, 4, 5, 42, 43, 44, 1, 2, 6, 7, 8, 39, 40, 41, 9, 10, 11, 36, 37, 38, 12,
             13, 14, 33, 34, 35, 15, 16, 17, 30, 31, 32, 18, 19, 20, 27, 28, 29, 21, 22,
             23, 24, 25, 26]),
    }

    @pytest.fixture(scope="class")
    def graphs(self, fig1, fig2):
        named = {"fig1": fig1, "fig2": fig2,
                 "fig2 o complete:3": _lex(fig2, "complete:3"),
                 "fig2 o path:3": _lex(fig2, "path:3"),
                 "cycle:12 o path:3": _lex(generate(parse_family("cycle:12")), "path:3"),
                 "cycle:14 o empty:3": _lex(generate(parse_family("cycle:14")), "empty:3"),
                 "cycle:15 o empty:3": _lex(generate(parse_family("cycle:15")), "empty:3")}
        return {name: named.get(name) or parse_graph6(name) for name in self.PINS}

    @pytest.mark.parametrize("name", list(PINS))
    def test_pinned(self, graphs, name):
        g = graphs[name]
        row = [solvers._gamma_p_value(g), solvers._packing_value(g, open_=False),
               solvers._packing_value(g, open_=True)]
        assert (row, solvers._search_order(g)) == self.PINS[name]


class TestEnumerateOptimalV2:
    # lexicographic products of order <= 9, where the greedy seed or an
    # early optimum in the tree is beaten later, so a list of optimal V2
    # sets kept across a fall of the incumbent would hold heavier sets
    PRODUCTS = [("empty:2", "cycle:4"), ("empty:2", "path:4"),
                ("empty:2", "union(path:3,empty:1)"), ("empty:2", "path:3"),
                ("path:3", "empty:3"), ("cycle:4", "complete:2")]

    def test_matches_brute_force(self):
        products = [_lex(generate(parse_family(g)), h) for g, h in self.PRODUCTS]
        for g in random_graphs(12, max_n=6, seed=9) + products:
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
        # the couple parameters name themselves, not gamma_t
        for fn in (zeta, zeta_couples):
            with pytest.raises(DomainError,
                               match="^zeta requires no isolated vertex; vertex 2 is isolated$"):
                fn(g)
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

    def test_subset_cap_agrees_with_environ_get(self, monkeypatch):
        # the definition: os.environ.get, an empty value counting as unset
        def defined():
            env = os.environ.get("LEXDOM_MAX_N")
            return int(env) if env else solvers.DEFAULT_SUBSET_CAP

        monkeypatch.delenv("LEXDOM_MAX_N", raising=False)
        assert solvers.subset_cap() == defined() == solvers.DEFAULT_SUBSET_CAP
        # a fullwidth "12" is an integer to int() only once decoded
        for value, cap in (("", solvers.DEFAULT_SUBSET_CAP), ("10", 10), (" 11 ", 11),
                           ("\uff11\uff12", 12)):
            monkeypatch.setenv("LEXDOM_MAX_N", value)
            assert solvers.subset_cap() == defined() == cap
        # read on every call: a change between two calls is seen
        monkeypatch.setenv("LEXDOM_MAX_N", "9")
        assert solvers.subset_cap() == 9
        monkeypatch.delenv("LEXDOM_MAX_N")
        assert solvers.subset_cap() == defined() == solvers.DEFAULT_SUBSET_CAP
        monkeypatch.setenv("LEXDOM_MAX_N", "8")
        assert solvers.subset_cap() == defined() == 8

    def test_cap_env_empty_or_malformed(self, monkeypatch):
        g = generate(parse_family("path:8"))
        monkeypatch.setenv("LEXDOM_MAX_N", "")
        assert solvers.subset_cap() == solvers.DEFAULT_SUBSET_CAP
        assert solve(g, ParameterKind.gamma).value == 3
        for value in ("ten", "2.5"):
            monkeypatch.setenv("LEXDOM_MAX_N", value)
            with pytest.raises(DomainError,
                               match=f"^LEXDOM_MAX_N must be an integer, got {value!r}$"):
                solve(g, ParameterKind.gamma)


#: Fills every memo of the package, the ones of modules imported after
#: solvers included, then clears them all with one call.
CLEAR_EVERY_MEMO = """
from lexdom import solvers
import lexdom.formula as formula
import lexdom.structure as structure
from lexdom.graphio import generate, parse_family

g = generate(parse_family("cycle:6"))
structure.factor_value(g, solvers.ParameterKind.gamma)
memos = [structure.is_efficient_open_domination, structure.is_efficient_closed_domination,
         solvers.zeta_couples, solvers.zeta_prime, formula._prdf_picks, formula._epn_split,
         formula._packing_profiles]
for memo in memos:
    memo(g)
memos.append(structure.factor_value)
print(*(memo.cache_info().currsize for memo in memos))
solvers.capped_memo.cache_clear()
print(*(memo.cache_info().currsize for memo in memos))
"""


def test_capped_memo_cache_clear_reaches_every_module():
    # a fresh process, so that solvers is imported before the modules
    # whose memos it must clear
    filled, cleared = run_fresh(CLEAR_EVERY_MEMO).splitlines()
    assert len(filled.split()) == 8 and "0" not in filled.split()
    assert cleared.split() == ["0"] * 8


def test_capped_memo_cache_clear_empties_every_cache_of_every_module():
    # every lexdom module, the analysis layers included; a memo that
    # ``capped_memo.cache_clear()`` misses would stay warm across the
    # benchmark's rounds
    modules = [importlib.import_module(f"lexdom.{info.name}")
               for info in pkgutil.iter_modules(lexdom.__path__)]
    p3 = generate(parse_family("path:3"))
    verify_pair(P4, p3)
    check_structural_lemmas(P4, generate(parse_family("complete:2")))
    caches = {f"{module.__name__}.{name}": obj for module in modules
              for name, obj in vars(module).items() if hasattr(obj, "cache_info")}
    assert "lexdom.verify._g6" in caches and "lexdom.solvers._roman_plan" in caches
    assert all(caches[name].cache_info().currsize for name in
               ("lexdom.verify._g6", "lexdom.solvers._roman_plan",
                "lexdom.structure.factor_value"))
    solvers.capped_memo.cache_clear()
    assert [name for name, obj in caches.items() if obj.cache_info().currsize] == []


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

    @pytest.mark.parametrize("fn, label", [
        (zeta, "the zeta cap"),
        (zeta_couples, "the zeta cap"),
        (zeta_prime, "the zeta' cap"),
        (dominating_open_packings, "the cap"),
        (is_efficient_open_domination, "the gamma_t cap"),
        (is_efficient_closed_domination, "the gamma cap"),
    ])
    def test_cap(self, monkeypatch, fn, label):
        g = generate(parse_family("path:10"))
        monkeypatch.setenv("LEXDOM_MAX_N", "9")
        with pytest.raises(CapExceededError, match=f"^order 10 exceeds {label} 9$"):
            fn(g)
        monkeypatch.setenv("LEXDOM_MAX_N", "10")
        answer = fn(g)
        assert fn(g) == answer
        # a memoized answer must not outlive a lower cap
        monkeypatch.setenv("LEXDOM_MAX_N", "9")
        with pytest.raises(CapExceededError, match=f"^order 10 exceeds {label} 9$"):
            fn(g)

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
        # on K2 the singleton {0} (S0 = {0}: weight 4) and the edge {0, 1}
        # (S0 empty, |S1| = 2: weight 4) tie on weight although their sizes
        # differ; the tie goes to the smaller mask, {0}
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


def assert_couple_outputs_match_oracles(g):
    """zeta, zeta_couples, zeta_prime, the open packings, the dominating
    open packings and the efficient open and closed dominating sets equal
    their oracles, order included."""
    if g.has_isolated_vertex():
        with pytest.raises(DomainError):
            zeta_couples(g)
    else:
        couples = zeta_couples_oracle(g)
        assert zeta_couples(g) == tuple(couples)
        assert zeta(g) == (zeta_oracle(g), min(couples))
    assert zeta_prime(g) == zeta_prime_set_oracle(g)
    assert list(open_packings(g)) == open_packings_oracle(g)
    assert dominating_open_packings(g) == dominating_open_packings_oracle(g)
    assert is_efficient_open_domination(g) == eod_oracle(g)
    assert is_efficient_closed_domination(g) == ecd_oracle(g)


def _with_isolated(g, count):
    """G plus ``count`` isolated vertices, numbered after V(G)."""
    return build_graph(g.n + count, g.edges())


class TestCoupleOutputsDifferential:
    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(max_n=9))
    def test_random(self, g):
        assert_couple_outputs_match_oracles(g)

    def test_oracle_corpus(self, oracle_corpus):
        for g in oracle_corpus:
            assert_couple_outputs_match_oracles(g)

    def test_isolated_vertices(self):
        # the dominating open packings, zeta' and ECD skip the isolated
        # vertices in the walk and EOD stops at the first one; isolated
        # vertices placed after, before and among the others
        for g in random_graphs(40, max_n=6, seed=31):
            for h in (_with_isolated(g, 2),
                      build_graph(g.n + 2, [(u + 2, v + 2) for u, v in g.edges()]),
                      build_graph(g.n + 1, [(u + (u > 0), v + (v > 0)) for u, v in g.edges()])):
                assert h.has_isolated_vertex()
                assert_couple_outputs_match_oracles(h)

    def test_many_isolated_vertices(self):
        # P3 plus 13 isolated vertices: no EOD; the dominating open
        # packings are the isolated vertices plus {1}, {0, 1} or {1, 2};
        # the first of them is the ECD and, tied with {0, 1}, the zeta'-set
        g = _with_isolated(build_graph(3, [(0, 1), (1, 2)]), 13)
        iso = g.full_mask & ~0b111
        assert is_efficient_open_domination(g) is None
        assert is_efficient_closed_domination(g) == iso | 0b010
        assert dominating_open_packings(g) == [iso | 0b010, iso | 0b011, iso | 0b110]
        assert zeta_prime(g) == (4 * 14, iso | 0b010)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_edgeless(self, n):
        g = build_graph(n, [])
        assert_couple_outputs_match_oracles(g)
        # only V dominates, and it is an open packing of weight 4n
        assert zeta_prime(g) == (4 * n, g.full_mask)
        assert is_efficient_open_domination(g) is None
        assert is_efficient_closed_domination(g) == g.full_mask


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
