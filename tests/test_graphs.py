import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtrail.bruteforce import longest_trail_bruteforce
from longtrail.dp import DpTable, full_dp_longest_trail, get_len_arc
from longtrail.graphs import (
    Graph,
    GraphFormatError,
    ParityBound,
    parse_graph,
    random_graph,
    serialize_graph,
    validate_trail,
)
from longtrail.hybrid import HybridConfig, solve_hybrid

TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
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

    def test_header_vertex_count_sizes_no_solver_structure(self):
        # The DP and its parity bound cover only the vertices in edges too.
        g = parse_graph("2000000 1\n0 1\n")
        tracemalloc.start()
        try:
            res = full_dp_longest_trail(g)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (res.length, res.trail) == (1, (0,))

    def test_hybrid_memo_is_compact(self):
        # The hybrid's memo holds one interned object per distinct cell and
        # one winner array per edge set.  A deterministic solve of the golden
        # m10a instance then peaks at 1.25 MB traced, against 2.31 MB with a
        # new bytes object per cell and a tuple of winners per state; the
        # bound sits halfway.  A first solve fills the pattern caches.
        g = random_graph(8, 10, 4)
        cfg = HybridConfig(mode="deterministic")
        solve_hybrid(g, cfg)
        tracemalloc.start()
        try:
            res = solve_hybrid(g, cfg)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if peak > 1_780_000:
            pytest.fail(f"m10a solve peaked at {peak} traced bytes, bound 1780000")
        if res.length != 8:
            pytest.fail(f"m10a solve returned length {res.length}, expected 8")


class TestIncidence:
    @settings(max_examples=60)
    @given(graphs_strategy)
    def test_arcs_before_end_at_the_tail(self, g):
        # arc 2e + d has head edges[e][d] and tail edges[e][1 - d]
        arcs = [a for e in range(g.edge_count) for a in g.arcs_of(e)]
        for b in arcs:
            tail = g.edges[b >> 1][1 - (b & 1)]
            want = tuple(c for c in arcs if g.edges[c >> 1][c & 1] == tail)
            assert g.arcs_before[b] == want


    @settings(max_examples=60)
    @given(graphs_strategy)
    def test_arc_ends(self, g):
        for e, (u, v) in enumerate(g.edges):
            assert {(g.arc_tail(a), g.arc_head(a)) for a in g.arcs_of(e)} == {(u, v), (v, u)}
            for a in g.arcs_of(e):
                assert g.arc_head(g.reverse_arc(a)) == g.arc_tail(a)


def odd_vertices(g):
    odd = set()
    for u, v in g.edges:
        odd ^= {u}
        odd ^= {v}
    return odd


def is_connected(g):
    if not g.edges:
        return True
    seen, todo = set(), [g.edges[0][0]]
    while todo:
        w = todo.pop()
        if w not in seen:
            seen.add(w)
            todo += [y for x, y in g.edges if x == w] + [x for x, y in g.edges if y == w]
    return all(u in seen for u, _ in g.edges)


def seeded_graphs(count, seed, max_m):
    """Random multigraphs (loops and parallel edges included); a quarter of
    them get a disjoint second component."""
    rnd = random.Random(seed)
    for _ in range(count):
        n, m = rnd.randint(1, 6), rnd.randint(1, max_m)
        g = random_graph(n, m, rnd.randrange(1 << 30))
        if m < max_m and rnd.random() < 0.25:
            extra = random_graph(n, rnd.randint(1, max_m - m), rnd.randrange(1 << 30))
            g = Graph(2 * n, g.edges + tuple((u + n, v + n) for u, v in extra.edges))
        yield g


class TestParityBound:
    def test_hand_computed(self):
        star = Graph(4, ((0, 1), (0, 2), (0, 3)))
        assert ParityBound(star).whole == 2
        assert ParityBound(star).between(1, 2) == 2
        assert ParityBound(TRIANGLE).whole == 3
        assert ParityBound(TRIANGLE).between(0, 0) == 3
        assert ParityBound(TRIANGLE).between(0, 1) == 2
        assert ParityBound(DISJOINT).whole == 1
        assert ParityBound(DISJOINT).between(0, 2) == 0
        assert ParityBound(Graph(5, ((0, 1),))).between(4, 4) == 0
        assert ParityBound(Graph(1, ((0, 0),))).whole == 1
        assert ParityBound(Graph(3, ())).whole == 0
        # two triangles sharing vertex 0, plus a pendant edge at 1
        bowtie = Graph(6, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (1, 5)))
        assert ParityBound(bowtie).whole == 7
        assert ParityBound(bowtie).between(1, 1) == 6

    def test_bound_covers_every_arc_pair(self):
        for g in seeded_graphs(80, seed=31, max_m=10):
            bound, table, E = ParityBound(g), DpTable(g), g.full_edge_set
            arcs = [a for e in range(g.edge_count) for a in g.arcs_of(e)]
            for a in arcs:
                for b in arcs:
                    if a >> 1 == b >> 1:
                        continue
                    length = get_len_arc(g, E, a, b, table) or 0
                    assert bound.between(g.arc_tail(a), g.arc_head(b)) >= length, (g.edges, a, b)

    def test_whole_bound_is_exact_with_at_most_two_odd_vertices(self):
        # Euler: a connected graph with 0 or 2 odd vertices is one trail.
        checked = 0
        for g in seeded_graphs(400, seed=57, max_m=10):
            if not is_connected(g) or len(odd_vertices(g)) > 2:
                continue
            assert ParityBound(g).whole == longest_trail_bruteforce(g).length, g.edges
            checked += 1
        assert checked >= 100


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

    @pytest.mark.parametrize("edges,trail,reason", [
        (TRIANGLE.edges, [0, 9], "bad edge index 9 at position 1"),
        (TRIANGLE.edges, ["x"], "bad edge index 'x' at position 0"),
        (TRIANGLE.edges, [0, 1, 0], "duplicate edge 0 at position 2"),
        # Head 1 first breaks at position 3, head 0 at position 1.
        (((0, 1), (1, 2), (2, 3), (0, 4)), [0, 1, 2, 3],
         "edges 2 and 3 do not attach at the walk head (position 3)"),
        # Head 1 first breaks at position 1, head 0 at position 3.
        (((0, 1), (0, 2), (2, 3), (1, 4)), [0, 1, 2, 3],
         "edges 2 and 3 do not attach at the walk head (position 3)"),
        # Both orientations break at position 1.
        (DISJOINT.edges, [0, 1], "edges 0 and 1 do not attach at the walk head (position 1)"),
        # A loop first: one orientation.
        (((0, 0), (0, 1), (2, 3)), [0, 1, 2],
         "edges 1 and 2 do not attach at the walk head (position 2)"),
        (((0, 0), (0, 1), (2, 3)), [0, 2],
         "edges 0 and 2 do not attach at the walk head (position 1)"),
    ])
    def test_exact_reasons(self, edges, trail, reason):
        # The later break of the two first-edge orientations is reported.
        verdict = validate_trail(Graph(5, edges), trail)
        assert not verdict.ok and verdict.reason == reason


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

    def test_matches_the_row_walk(self):
        # The closed-form row equals a walk over the rows of the unordered
        # pairs (u, u..n-1), the form the generator had before.
        def row_walk(n, m, seed):
            rng = random.Random(seed)
            edges = []
            for _ in range(m):
                k, u, row = rng.randrange(n * (n + 1) // 2), 0, n
                while k >= row:
                    k, u, row = k - row, u + 1, row - 1
                edges.append((u, u + k))
            return tuple(edges)

        rnd = random.Random(5)
        cases = [(n, 30, n) for n in range(1, 160)]
        cases += [(rnd.randint(1, 5000), rnd.randint(0, 30), rnd.randrange(1 << 30))
                  for _ in range(300)]
        for n, m, seed in cases:
            assert random_graph(n, m, seed).edges == row_walk(n, m, seed), (n, m, seed)

    def test_huge_vertex_count_is_fast(self):
        start = time.perf_counter()
        g = random_graph(10**12, 30, 0)
        assert time.perf_counter() - start < 0.5
        assert g.edge_count == 30
        assert all(0 <= u <= v < 10**12 for u, v in g.edges)
