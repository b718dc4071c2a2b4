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
        # (order 5 has two), a long-form size byte; offsets index the input
        # as given, leading blanks and >>graph6<< header included
        for data, offset in ((b"\x01", 0), (b"C\x01", 1), (b"D?\x7f", 2),
                             (b"D\x01\x7f", 1), (b"~?\x01?", 2),
                             (b">>graph6<<C\x01", 11), (b"  D?\x7f", 4),
                             (b" >>graph6<<\x01", 11)):
            with pytest.raises(GraphFormatError, match="outside graph6 range") as exc:
                parse_graph6(data)
            assert exc.value.offset == offset, data

    def test_nonzero_padding_reports_offset(self):
        # order 2 has 1 adjacency bit in its byte, order 5 has 10 in two
        for data, offset in ((b"A`", 1), (b"A@", 1), (b"D~@", 2), (b"D?A", 2),
                             (b">>graph6<<A`", 11), (b"  A`", 3),
                             (b"\t>>graph6<<D~@\n", 13)):
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
        # order 5 needs payload bytes; a long-form size needs three bytes
        for data, offset, what in ((b"D", 1, "truncated payload"),
                                   (b"~??", 3, "truncated long-form size")):
            with pytest.raises(GraphFormatError, match=what) as exc:
                parse_graph6(data)
            assert exc.value.offset == offset, data

    def test_trailing_bytes(self):
        with pytest.raises(GraphFormatError, match="trailing bytes") as exc:
            parse_graph6(b"A_?")
        assert exc.value.offset == 2

    def test_order_out_of_range(self):
        # order 0, and a long-form order of 192
        for data, what in ((b"?", "unsupported graph order 0"),
                           (b"~?B?", "graph order 192 exceeds the supported maximum 128")):
            with pytest.raises(GraphFormatError, match=what) as exc:
                parse_graph6(data)
            assert exc.value.offset == 0, data

    def test_empty_input(self):
        with pytest.raises(GraphFormatError):
            parse_graph6(b"")


class TestEdgeList:
    def test_round_trip(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert parse_edge_list(write_edge_list(g)) == g

    def test_header_mismatch(self):
        # line numbers count the blank and comment lines of the input
        for text, line, what in (("2 2\n0 1\n", 1, "declares 2 edges, found 1"),
                                 ("# c\n\n2 2\n0 1\n", 3, "declares 2 edges, found 1"),
                                 ("", 1, "empty edge-list input"),
                                 ("# c\n\n", 1, "empty edge-list input"),
                                 ("2\n", 1, "header must be 'n m'"),
                                 ("# c\n2 1 0\n0 1\n", 2, "header must be 'n m'"),
                                 ("x 1\n0 1\n", 1, "header must be two integers"),
                                 ("\n\n2 y\n", 3, "header must be two integers"),
                                 ("0 0\n", 1, "graph order must be in 1..128, got 0"),
                                 ("# c\n129 0\n", 2, "graph order must be in 1..128, got 129")):
            with pytest.raises(GraphFormatError, match=what) as exc:
                parse_edge_list(text)
            assert exc.value.line == line, text

    def test_bad_tokens(self):
        for text, line, what in (("2 1\n0 x\n", 2, "endpoints must be integers"),
                                 ("# fig\n\n3 1\n0 x\n", 4, "endpoints must be integers"),
                                 ("2 1\n0 1 1\n", 2, "edge line must be 'u v'"),
                                 ("3 2\n0 1\n# c\n2\n", 4, "edge line must be 'u v'"),
                                 ("3 1\n0 5\n", 2, "endpoint out of range for n=3"),
                                 ("3 1\n1 1\n", 2, "loop at vertex 1"),
                                 ("3 2\n0 1\n\n# c\n2 2\n", 5, "loop at vertex 2")):
            with pytest.raises(GraphFormatError, match=what) as exc:
                parse_edge_list(text)
            assert exc.value.line == line, text

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
        for data, line in ((b"A_\n\x01\x01\n", 2), (b"\nA_\n \n\x01\x01\n", 4)):
            path.write_bytes(data)
            with pytest.raises(GraphFormatError) as exc:
                load_corpus(path)
            assert exc.value.line == line, data

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.g6"
        path.write_bytes(b"\nA_\n\n  \nBw\n\n")
        assert [g.n for g in load_corpus(path)] == [2, 3]


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
