"""Lexicographic product: index map, adjacency law, layer structure,
and a cross-check against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings

from lexdom import (CapExceededError, DomainError, Graph, ProductIndexMap, bits, build_graph,
                    lex_product)

from test_graph import random_graph_strategy


class TestIndexMap:
    def test_row_major_encoding(self):
        # (u, v) is product vertex u * n(H) + v: in P3 o P4, (2, 1) = 9 sees
        # the whole layer of its G-neighbor 1 (4..7) and, in its own layer,
        # its H-neighbors (2, 0) = 8 and (2, 2) = 10
        path3 = build_graph(3, [(0, 1), (1, 2)])
        path4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        product, _ = lex_product(path3, path4)
        assert list(bits(product.adj[9])) == [4, 5, 6, 7, 8, 10]

    def test_layer_set(self):
        index = ProductIndexMap(2, 3)
        assert list(bits(index.layer_set(1))) == [3, 4, 5]


class TestProduct:
    def test_order_and_adjacency_law(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        h = build_graph(2, [])
        product, _ = lex_product(g, h)
        assert product.n == g.n * h.n
        for u in range(g.n):
            for v in range(h.n):
                for x in range(g.n):
                    for y in range(h.n):
                        expected = bool(g.adj[u] >> x & 1) or (u == x and h.adj[v] >> y & 1)
                        actual = bool(product.adj[u * h.n + v] >> (x * h.n + y) & 1)
                        assert actual == expected

    def test_k2_lex_k2_is_k4(self):
        k2 = build_graph(2, [(0, 1)])
        product, _ = lex_product(k2, k2)
        assert product.n == 4 and product.edge_count == 6

    def test_layers_isomorphic_to_h(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        h = build_graph(3, [(0, 1)])
        product, _ = lex_product(g, h)
        for u in range(g.n):
            base = u * h.n
            for v in range(h.n):
                for y in range(h.n):
                    in_layer = bool(product.adj[base + v] >> (base + y) & 1)
                    assert in_layer == bool(h.adj[v] >> y & 1)

    @settings(max_examples=60)
    @given(random_graph_strategy(max_n=4), random_graph_strategy(max_n=4))
    def test_degree_formula_and_networkx(self, g, h):
        product, _ = lex_product(g, h)
        # lex_product leaves out Graph's adjacency checks, which must pass
        assert Graph(product.n, product.adj) == product
        for u in range(g.n):
            for v in range(h.n):
                assert product.degree(u * h.n + v) == g.degree(u) * h.n + h.degree(v)
        nxg = nx.Graph(list(g.edges()))
        nxg.add_nodes_from(range(g.n))
        nxh = nx.Graph(list(h.edges()))
        nxh.add_nodes_from(range(h.n))
        nxp = nx.lexicographic_product(nxg, nxh)
        expected = {tuple(sorted((u * h.n + v, x * h.n + y))) for (u, v), (x, y) in nxp.edges()}
        assert set(product.edges()) == expected

    def test_order_cap(self):
        g = build_graph(12, [(i, i + 1) for i in range(11)])
        with pytest.raises(CapExceededError):
            lex_product(g, g, max_order=100)

    def test_order_over_max_vertices_refused(self):
        # a cap above MAX_VERTICES: the order is refused as Graph refuses it
        g = build_graph(12, [(i, i + 1) for i in range(11)])
        h = build_graph(11, [])
        with pytest.raises(DomainError, match="graph order must be in 1..128, got 132"):
            lex_product(g, h, max_order=200)
