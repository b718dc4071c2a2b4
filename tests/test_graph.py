"""Core graph type: construction validation, neighborhood identities,
private neighbors, and Roman assignments."""

import pytest
from hypothesis import given, strategies as st

from lexdom import (
    DomainError,
    Graph,
    GraphFormatError,
    InconsistencyError,
    Prediction,
    RomanAssignment,
    assignment_from_masks,
    bits,
    build_graph,
    mask_from,
)
from lexdom.graph import MAX_VERTICES


def random_graph_strategy(max_n=9):
    """Graphs on 1..max_n vertices.  The edge density, a number of
    quarters from 0 (empty) to 4 (complete), is drawn first and each
    pair is then an edge with that chance, so dense, tied and twin-rich
    graphs come up as often as sparse ones."""
    @st.composite
    def graphs(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        quarters = draw(st.integers(min_value=0, max_value=4))
        chosen = [(i, j) for i in range(n) for j in range(i + 1, n)
                  if draw(st.integers(min_value=0, max_value=3)) < quarters]
        return build_graph(n, chosen)

    return graphs()


class TestConstruction:
    def test_small_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        assert g.edge_count == 2

    def test_rejects_loop(self):
        with pytest.raises(GraphFormatError):
            build_graph(2, [(0, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphFormatError):
            build_graph(2, [(0, 2)])

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            build_graph(-1, [])

    def test_rejects_order_above_cap(self):
        with pytest.raises(DomainError):
            build_graph(MAX_VERTICES + 1, [])

    def test_duplicate_edges_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_adjacency_rows_validated(self):
        # asymmetric rows must be rejected by the Graph invariant
        with pytest.raises(DomainError, match="^asymmetric adjacency between 1 and 0$"):
            Graph(2, (0b10, 0b00))
        # the first asymmetric pair by row, then by neighbour, is named
        with pytest.raises(DomainError, match="^asymmetric adjacency between 2 and 0$"):
            Graph(3, (0b110, 0b001, 0b010))
        with pytest.raises(DomainError):
            Graph(1, (0b1,))  # loop bit
        with pytest.raises(DomainError):
            Graph(2, (0b10,))  # one row for two vertices

    @given(random_graph_strategy())
    def test_symmetry_and_loop_freeness(self, g):
        for v in range(g.n):
            assert not g.adj[v] >> v & 1
            for u in bits(g.adj[v]):
                assert g.adj[u] >> v & 1


class TestNeighborhoods:
    @given(random_graph_strategy())
    def test_closed_neighborhood_size(self, g):
        for v in range(g.n):
            assert g.closed_neighborhood(v).bit_count() == g.degree(v) + 1

    def test_degree_extremes(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree_extremes() == (1, 3)

    def test_isolated_vertices(self):
        g = build_graph(3, [(0, 1)])
        assert g.isolated_vertices() == [2]
        assert g.has_isolated_vertex()
        assert not build_graph(2, [(0, 1)]).has_isolated_vertex()

    def test_connectivity(self):
        assert build_graph(3, [(0, 1), (1, 2)]).is_connected()
        assert not build_graph(3, [(0, 1)]).is_connected()
        assert build_graph(1, []).is_connected()

    def test_covers(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.open_cover(mask_from([1])) == mask_from([0, 2])
        assert g.closed_cover(mask_from([1])) == mask_from([0, 1, 2])


class TestPrivateNeighbors:
    @given(random_graph_strategy(max_n=7), st.integers(min_value=0, max_value=127))
    def test_epn_definition(self, g, raw):
        smask = raw & g.full_mask
        for v in bits(smask):
            ep = g.epn(v, smask)
            assert ep & smask == 0
            for u in bits(ep):
                assert (g.adj[u] & smask) == 1 << v

    def test_epn_example(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        s = mask_from([1, 2])
        assert g.epn(1, s) == mask_from([0])
        assert g.epn(2, s) == mask_from([3])


class TestRomanAssignment:
    def test_weight_partition(self):
        f = RomanAssignment((0, 1, 2, 0))
        assert f.weight == 3
        assert f.v0 == mask_from([0, 3])
        assert f.v1 == mask_from([1])
        assert f.v2 == mask_from([2])

    def test_from_masks(self):
        f = assignment_from_masks(3, mask_from([0]), mask_from([2]))
        assert f.weights == (1, 0, 2)

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            assignment_from_masks(2, 0b01, 0b01)

    @pytest.mark.parametrize("v1, v2", [(0, 1 << 5), (-1, 0), (1 << 3, 1)])
    def test_rejects_bits_outside_range(self, v1, v2):
        with pytest.raises(DomainError, match="^V1 or V2 has bits outside the vertex range$"):
            assignment_from_masks(3, v1, v2)

    def test_rejects_bad_weight(self):
        with pytest.raises(DomainError):
            RomanAssignment((0, 3))


class TestRecordSemantics:
    """The records that check their fields do so on every construction,
    and compare, hash and print by value."""

    RECORDS = [
        (Graph, {"n": 2, "adj": (2, 1)}, "Graph(n=2, adj=(2, 1))"),
        (RomanAssignment, {"weights": (0, 1, 2)}, "RomanAssignment(weights=(0, 1, 2))"),
        (Prediction, {"lo": 1, "hi": 2, "provenance": ("x",)},
         "Prediction(lo=1, hi=2, provenance=('x',))"),
    ]

    @pytest.mark.parametrize("cls, fields, text", RECORDS)
    def test_value_semantics(self, cls, fields, text):
        by_name, by_position = cls(**fields), cls(*fields.values())
        assert by_name == by_position and hash(by_name) == hash(by_position)
        # the verify-sweep pins hash repr(predicted) and repr(measured)
        assert repr(by_name) == text
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(by_name, name, None)

    #: A field value each record rejects, and the error it raises.
    INVALID = {
        Graph: ({"adj": (2, 0)}, DomainError),
        RomanAssignment: ({"weights": (0, 7)}, DomainError),
        Prediction: ({"lo": 5}, InconsistencyError),
    }

    @pytest.mark.parametrize("cls, fields, text", RECORDS)
    def test_make_and_replace_run_the_checks(self, cls, fields, text):
        record = cls(**fields)
        for built in (cls._make(fields.values()), record._replace(**fields)):
            assert type(built) is cls and built == record
        bad, error = self.INVALID[cls]
        with pytest.raises(error):
            cls._make({**fields, **bad}.values())
        with pytest.raises(error):
            record._replace(**bad)

    @pytest.mark.parametrize("cls, fields, text", RECORDS)
    def test_rejects_a_list_for_a_tuple(self, cls, fields, text):
        # a list field would leave the record unhashable, and every cache
        # keyed by it would raise TypeError
        for name, value in fields.items():
            if isinstance(value, tuple):
                with pytest.raises(DomainError, match=f"{name} must be a tuple"):
                    cls(**{**fields, name: list(value)})

    @pytest.mark.parametrize("cls, fields, text", RECORDS)
    def test_checks_run_once_per_construction(self, monkeypatch, cls, fields, text):
        record = cls(**fields)
        calls = []
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(check(self)))
        builds = (lambda: cls(**fields), lambda: cls(*fields.values()),
                  lambda: cls._make(fields.values()), lambda: record._replace(**fields))
        for count, build in enumerate(builds, start=1):
            build()
            assert len(calls) == count


def test_mask_helpers():
    assert mask_from([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]
    assert list(bits(0)) == []
