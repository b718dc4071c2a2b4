"""Acceptance suite: the eight primary criteria, one test (and one
reported line) each.

Criterion 2 deserves a note.  The claimed law for the 15-vertex example
graph is "gamma_Rp(G o H) = 6 n(H) + 3 for every graph H".  The ">="
direction of that equality is not provable and is in fact false: for
every tested H except K2 this suite finds, and definitionally validates,
perfect Roman dominating functions of the product that are cheaper than
6 n(H) + 3 (e.g. weight 14 < 15 for H = N2).  What does hold, and is
asserted here, is the "<=" direction (it follows from the positive-set
upper bound) together with equality for H = K2.  The measured optima are
pinned exactly so any solver regression still fails the test.
"""

from lexdom import (
    Graph,
    ParameterKind,
    check_structural_lemmas,
    generate,
    lex_product,
    parse_family,
    predict,
    solve,
)
from lexdom.formula import PREDICT_KINDS

from brute import roman_oracle, set_oracle


def report(line: str) -> None:
    print(line)


def test_criterion_1_paper_fixtures(fig1, fig2):
    """Worked example values on the two fixture graphs, exactly."""
    assert solve(fig1, ParameterKind.gamma_R).value == 4
    assert solve(fig1, ParameterKind.gamma_Rp).value == 4
    assert solve(fig2, ParameterKind.gamma).value == 3
    assert solve(fig2, ParameterKind.gamma_R).value == 6
    assert solve(fig2, ParameterKind.gamma_p).value == 6
    assert solve(fig2, ParameterKind.gamma_Rp).value == 9
    report("CRITERION 1: PASS — fixture values gamma_R=4, gamma_Rp=4 (6-vertex) "
           "and gamma=3, gamma_R=6, gamma_p=6, gamma_Rp=9 (15-vertex)")


def test_criterion_2_product_law_on_example_graph(fig2):
    """gamma_Rp(G o H) vs the claimed 6 n(H)+3 for the five H factors.

    The claim holds as an upper bound everywhere and as an equality for
    H = K2 only; the four cheaper optima are validated definitionally.
    """
    factors = {
        "complete:2": 15,   # equals 6 n(H)+3 = 15
        "empty:2": 14,      # claimed 15
        "path:3": 18,       # claimed 21
        "complete:3": 20,   # claimed 21
        "empty:3": 19,      # claimed 21
    }
    deviations = []
    for family, expected in factors.items():
        h = generate(parse_family(family))
        product, _ = lex_product(fig2, h, max_order=45)
        # the full adjacency check, which lex_product leaves out
        assert Graph(product.n, product.adj) == product
        result = solve(product, ParameterKind.gamma_Rp, max_n=45)
        claimed = 6 * h.n + 3
        assert result.value == expected, (family, result.value, expected)
        assert result.value <= claimed, (family, result.value, claimed)
        # validate the optimal witness straight from the definition
        f = result.witness
        assert f.weight == result.value
        for v in range(product.n):
            if f.weights[v] == 0:
                twos = sum(1 for u in range(product.n)
                           if product.adj[v] >> u & 1 and f.weights[u] == 2)
                assert twos == 1, (family, v)
        if result.value != claimed:
            deviations.append(f"{family}: {result.value} < {claimed}")
    assert factors["complete:2"] == 6 * 2 + 3
    report("CRITERION 2: PASS — upper bound 6 n(H)+3 holds for all five H and is "
           "attained for K2; the claimed equality is refuted by validated cheaper "
           "optima (" + "; ".join(deviations) + ")")


def test_criterion_3_corona_tightness():
    """gamma_Rp((C3 corona N2) o K2) attains n(G') (n(H)+1) = 9."""
    g = generate(parse_family("corona(cycle:3,2)"))
    h = generate(parse_family("complete:2"))
    product, _ = lex_product(g, h)
    assert Graph(product.n, product.adj) == product
    assert solve(product, ParameterKind.gamma_Rp).value == 9
    report("CRITERION 3: PASS — corona tightness gamma_Rp((C3 corona N2) o K2) = 9")


def test_criterion_4_closed_formula_sweep(corpus_report):
    """gamma / gamma_R formulas exact on every pair; gamma_p formula
    exact for connected G (the whole G corpus is connected)."""
    totals = dict(corpus_report.totals)
    for claim in ("GAMMA_LEX", "ROMAN_LEX", "GAMMAP_LEX"):
        counts = dict(totals[claim])
        assert counts.get("fail", 0) == 0, (claim, counts)
        assert counts.get("pass", 0) == 510, (claim, counts)
    report("CRITERION 4: PASS — gamma, gamma_R and gamma_p closed formulas exact "
           "on all 510 corpus pairs")


def test_criterion_5_perfect_roman_soundness(connected_g, all_h, corpus_report):
    """Measured gamma_Rp in every prediction; iff characterizations hold
    in both directions; zero failures."""
    for g in connected_g:
        for h in all_h:
            product, _ = lex_product(g, h)
            assert Graph(product.n, product.adj) == product
            for kind in PREDICT_KINDS:
                p = predict(g, h, kind)
                measured = solve(product, kind).value
                assert p.contains(measured), (g, h, kind, p, measured)
    totals = dict(corpus_report.totals)
    for claim in ("PR_EQ_FACTOR", "PR_EQ_2GAMMA", "PR_PERFECTROMAN_CHAR",
                  "PR_EQ_ROMAN_CHAR"):
        counts = dict(totals[claim])
        assert counts.get("fail", 0) == 0, (claim, counts)
        assert counts.get("pass", 0) > 0, (claim, counts)
    assert corpus_report.failed == 0
    report("CRITERION 5: PASS — gamma_Rp predictions sound on all 510 pairs and "
           "both iff characterizations hold in both directions")


def test_criterion_6_structural_lemmas(connected_g, all_h):
    """Layer dichotomy of optimal PRDFs and the max-|V2| RDF lemma on
    every pair with product order <= 12."""
    pairs = checked = 0
    for g in connected_g:
        for h in all_h:
            if g.n * h.n > 12:
                continue
            pairs += 1
            rep = check_structural_lemmas(g, h)
            assert rep.layer_dichotomy_ok, (g, h, rep.detail)
            assert rep.max_v2_ok, (g, h, rep.detail)
            checked += rep.layer_dichotomy_checked + rep.max_v2_checked
    assert pairs >= 100
    report(f"CRITERION 6: PASS — structural lemmas hold for all optimal functions "
           f"({checked} functions over {pairs} pairs)")


def test_criterion_7_inequality_suite(oracle_corpus, sample_8, trees,
                                      connected_g, all_h):
    """Parameter chains on every corpus graph; gamma = rho on trees."""
    graphs = oracle_corpus + sample_8 + trees + connected_g + all_h
    for g in graphs:
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
    for t in trees:
        assert solve(t, ParameterKind.gamma).value == solve(t, ParameterKind.rho).value
    report(f"CRITERION 7: PASS — inequality chains on {len(graphs)} corpus graphs "
           f"and gamma = rho on all {len(trees)} trees up to 9 vertices")


def test_criterion_8_oracle_equivalence(oracle_corpus, sample_8):
    """Production solvers vs the literal 3^n assignment oracle:
    exhaustive over all graphs up to 7 vertices plus the seeded 8-vertex
    sample; set-kind solvers vs the 2^n oracle on a deterministic
    subsample."""
    roman = ("gamma_R", "gamma_Rp", "gamma_tR")
    for g in oracle_corpus + sample_8:
        for kind in roman:
            if kind == "gamma_tR" and g.has_isolated_vertex():
                continue
            assert solve(g, ParameterKind(kind)).value == roman_oracle(g, kind), (kind, g)
    for g in oracle_corpus[::7]:
        for kind in ("gamma", "gamma_t", "gamma_p", "rho", "rho_o"):
            if kind == "gamma_t" and g.has_isolated_vertex():
                continue
            assert solve(g, ParameterKind(kind)).value == set_oracle(g, kind), (kind, g)
    report(f"CRITERION 8: PASS — zero mismatches against the brute-force oracles "
           f"({len(oracle_corpus)} graphs up to 7 vertices exhaustive, "
           f"{len(sample_8)} sampled 8-vertex graphs)")
