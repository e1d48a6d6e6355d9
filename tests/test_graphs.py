import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtrail.graphs import (
    Graph,
    GraphFormatError,
    edge_set,
    incident_edges,
    parse_graph,
    random_graph,
    serialize_graph,
    validate_trail,
)

TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
PATH3 = Graph(4, ((0, 1), (1, 2), (2, 3)))
DISJOINT = Graph(4, ((0, 1), (2, 3)))


graphs_strategy = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=8,
    ).map(lambda edges: Graph(n, tuple(edges)))
)


class TestParse:
    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n2 0\n")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2), (2, 0))

    def test_single_edge(self):
        g = parse_graph("2 1\n0 1\n")
        assert g.vertex_count == 2 and g.edges == ((0, 1),)

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError, match="vertex 5 out of range at line 2"):
            parse_graph("2 1\n0 5\n")

    def test_non_integer_token(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("3 2\n0 1\n1 x\n")

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("3\n")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 2\n0 1\n")

    def test_crlf_and_trailing_blank(self):
        g = parse_graph(b"2 1\r\n0 1\r\n\r\n")
        assert g.edges == ((0, 1),)

    def test_empty_graph(self):
        g = parse_graph("1 0\n")
        assert g.vertex_count == 1 and g.edges == ()

    @settings(max_examples=60)
    @given(graphs_strategy)
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_header_vertex_count_claims_no_memory(self):
        # Per-vertex structures cover only the vertices that occur in edges.
        tracemalloc.start()
        try:
            g = parse_graph("2000000 1\n0 1\n")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert g.vertex_count == 2000000
        assert serialize_graph(g) == "2000000 1\n0 1\n"


class TestIncidence:
    def test_triangle(self):
        assert incident_edges(TRIANGLE, 0) == edge_set([1, 2])

    def test_path(self):
        assert incident_edges(PATH3, 0) == edge_set([1])

    def test_disjoint(self):
        assert incident_edges(DISJOINT, 0) == 0

    def test_self_loop_touches_everything_at_vertex(self):
        g = Graph(2, ((0, 0), (0, 1), (1, 1)))
        assert incident_edges(g, 0) == edge_set([1])
        assert incident_edges(g, 1) == edge_set([0, 2])

    @settings(max_examples=60)
    @given(graphs_strategy)
    def test_symmetry(self, g):
        for e in range(g.edge_count):
            for f in range(g.edge_count):
                if e != f:
                    assert bool(incident_edges(g, e) >> f & 1) == bool(
                        incident_edges(g, f) >> e & 1
                    )

    @settings(max_examples=60)
    @given(graphs_strategy)
    def test_arcs_before_end_at_the_tail(self, g):
        # arc 2e + d has head edges[e][d] and tail edges[e][1 - d]
        arcs = [a for e in range(g.edge_count) for a in g.arcs_of(e)]
        for b in arcs:
            tail = g.edges[b >> 1][1 - (b & 1)]
            want = tuple(c for c in arcs if g.edges[c >> 1][c & 1] == tail)
            assert g.arcs_before[b] == want


class TestValidateTrail:
    def test_triangle_closed(self):
        assert validate_trail(TRIANGLE, [0, 1, 2]).ok

    def test_duplicate_edge(self):
        verdict = validate_trail(TRIANGLE, [0, 0])
        assert not verdict.ok and "duplicate" in verdict.reason

    def test_no_shared_vertex(self):
        verdict = validate_trail(DISJOINT, [0, 1])
        assert not verdict.ok and "attach" in verdict.reason

    def test_bad_index(self):
        verdict = validate_trail(TRIANGLE, [0, 9])
        assert not verdict.ok and "index" in verdict.reason

    def test_first_edge_tried_both_ways(self):
        # Edge 0 must be traversed 1 -> 0 for edge 1 to attach at 0.
        g = Graph(3, ((0, 1), (0, 2)))
        assert validate_trail(g, [0, 1]).ok

    def test_star_sequence_is_not_a_walk(self):
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        assert not validate_trail(star, [0, 1, 2]).ok

    def test_empty_and_singleton(self):
        assert validate_trail(TRIANGLE, []).ok
        assert validate_trail(TRIANGLE, [2]).ok

    def test_self_loop_walk(self):
        g = Graph(2, ((0, 0), (0, 1)))
        assert validate_trail(g, [0, 1]).ok
        assert validate_trail(g, [1, 0]).ok


class TestRandomGraph:
    def test_deterministic(self):
        assert random_graph(3, 3, 1) == random_graph(3, 3, 1)

    def test_reproducible_across_calls(self):
        a = random_graph(4, 6, 42)
        assert a.edge_count == 6
        assert a == random_graph(4, 6, 42)

    def test_empty(self):
        assert random_graph(1, 0, 7).edges == ()

    def test_distinct_seeds_differ(self):
        graphs = {random_graph(6, 10, seed).edges for seed in range(100)}
        assert len(graphs) > 95

    def test_bounds(self):
        with pytest.raises(ValueError):
            random_graph(0, 1, 0)
        with pytest.raises(ValueError):
            random_graph(2, 31, 0)

    def test_endpoints_in_range(self):
        g = random_graph(5, 20, 3)
        assert all(0 <= u < 5 and 0 <= v < 5 for u, v in g.edges)
