"""Graph serialization: graph6 round trips cross-checked against
networkx, edge-list format, corpus loading, and named families."""

import networkx as nx
import pytest
from hypothesis import given, settings

from lexdom import (
    GraphFormatError,
    build_graph,
    generate,
    load_corpus,
    parse_edge_list,
    parse_family,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from lexdom.graphio import FAMILIES, corona, disjoint_union

from test_graph import random_graph_strategy


class TestGraph6:
    @settings(max_examples=150)
    @given(random_graph_strategy(max_n=12))
    def test_round_trip_small(self, g):
        assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_long_form(self):
        # orders 63..128 use the 4-byte size prefix
        for n in (63, 64, 100, 128):
            g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
            data = write_graph6(g)
            assert data[:1] == b"~"
            assert parse_graph6(data) == g

    def test_matches_networkx_encoding(self, oracle_corpus):
        for g in oracle_corpus[:300]:
            nxg = nx.from_graph6_bytes(write_graph6(g))
            assert set(nxg.edges()) == set(g.edges())
            assert nxg.number_of_nodes() == g.n

    def test_parses_networkx_output(self):
        nxg = nx.petersen_graph()
        g = parse_graph6(nx.to_graph6_bytes(nxg, header=False).strip())
        assert g.n == 10 and g.edge_count == 15
        assert g.degree_extremes() == (3, 3)

    def test_bad_byte_reports_offset(self):
        # the first byte outside 63..126: the size byte, a payload byte
        # (order 5 has two), a long-form size byte
        for data, offset in ((b"\x01", 0), (b"C\x01", 1), (b"D?\x7f", 2),
                             (b"D\x01\x7f", 1), (b"~?\x01?", 2)):
            with pytest.raises(GraphFormatError, match="outside graph6 range") as exc:
                parse_graph6(data)
            assert exc.value.offset == offset, data

    def test_nonzero_padding_reports_offset(self):
        # order 2 has 1 adjacency bit in its byte, order 5 has 10 in two
        for data, offset in ((b"A`", 1), (b"A@", 1), (b"D~@", 2), (b"D?A", 2)):
            with pytest.raises(GraphFormatError, match="nonzero padding bits") as exc:
                parse_graph6(data)
            assert exc.value.offset == offset, data
        assert parse_graph6(b"A_").edge_count == 1
        assert parse_graph6(b"D~{").edge_count == 10

    def test_non_ascii_character_reports_offset(self):
        # U+00E9 must not turn into '?', the graph6 byte for value 0
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6("A\u00e9")
        assert exc.value.offset == 1

    def test_truncated_payload(self):
        with pytest.raises(GraphFormatError):
            parse_graph6(b"D")  # order 5 needs payload bytes

    def test_empty_input(self):
        with pytest.raises(GraphFormatError):
            parse_graph6(b"")


class TestEdgeList:
    def test_round_trip(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert parse_edge_list(write_edge_list(g)) == g

    def test_header_mismatch(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_edge_list("2 2\n0 1\n")
        assert exc.value.line is not None

    def test_bad_tokens(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("2 1\n0 x\n")

    def test_comments_and_blanks(self):
        g = parse_edge_list("# fixture\n3 2\n\n0 1\n1 2\n")
        assert g.edge_count == 2

    def test_fixtures_load(self, fig1, fig2):
        assert (fig1.n, fig1.edge_count) == (6, 5)
        assert (fig2.n, fig2.edge_count) == (15, 18)


class TestCorpus:
    def test_load(self, data_dir):
        graphs = load_corpus(data_dir / "all_h_2_4.g6")
        assert len(graphs) == 17
        assert sorted({g.n for g in graphs}) == [2, 3, 4]

    def test_corpus_hits_all_strata(self, all_h):
        # the H corpus must include isolated-vertex graphs and all
        # maximum-degree strata n-1, n-2, n-3, <= n-4
        assert any(g.degree_extremes()[0] == 0 for g in all_h)
        offsets = {g.n - g.degree_extremes()[1] for g in all_h}
        assert {1, 2, 3, 4} <= offsets

    def test_malformed_line_aborts_with_lineno(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"A_\n\x01\x01\n")
        with pytest.raises(GraphFormatError) as exc:
            load_corpus(path)
        assert exc.value.line == 2


class TestFamilies:
    def test_path_cycle_complete_empty_degrees(self):
        assert generate(parse_family("path:5")).degree_extremes() == (1, 2)
        assert generate(parse_family("cycle:6")).degree_extremes() == (2, 2)
        assert generate(parse_family("complete:4")).degree_extremes() == (3, 3)
        assert generate(parse_family("empty:3")).edge_count == 0
        star = generate(parse_family("star:4"))
        assert star.n == 5 and star.degree_extremes() == (1, 4)

    def test_union(self):
        g = generate(parse_family("union(complete:2,empty:1)"))
        assert g.n == 3 and g.edge_count == 1

    def test_corona_counts(self):
        base = generate(parse_family("cycle:3"))
        g = corona(base, 2)
        assert g.n == base.n * 3
        assert g.edge_count == base.edge_count + 2 * base.n

    def test_nested_spec(self):
        g = generate(parse_family("corona(union(path:2,path:2),1)"))
        assert g.n == 8

    def test_disjoint_union_offsets(self):
        g = disjoint_union(build_graph(2, [(0, 1)]), build_graph(2, [(0, 1)]))
        assert sorted(g.edges()) == [(0, 1), (2, 3)]

    def test_parse_errors(self):
        for bad in ("triangle:3", "path", "path:", "cycle:2", "corona(path:2)",
                    "path:3x", "union(path:2)"):
            with pytest.raises(GraphFormatError):
                generate(parse_family(bad))

    def test_family_names_frozen(self):
        assert FAMILIES == ("path", "cycle", "complete", "empty", "star", "union", "corona")
