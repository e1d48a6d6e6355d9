import math
import random
import tracemalloc
from itertools import combinations

import pytest

from longtrail.bruteforce import longest_trail_bruteforce
from longtrail import hybrid
from longtrail.dp import (
    DpTable,
    TableLookupError,
    full_dp_longest_trail,
    get_len_arc,
    reconstruct_arc,
)
from longtrail.graphs import (
    Graph,
    ParityBound,
    SizeLimitError,
    bits_of,
    edge_set,
    random_graph,
    validate_trail,
)
from longtrail.hybrid import RowTable, fill_layer, layer_size, reconstruct_from_witness

from constrained_oracle import constrained_longest_bruteforce
from edge_level import edge_len

TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def random_cases(count, max_m, base=0, min_m=1, max_n=6):
    for trial in range(count):
        rnd = random.Random(base + trial)
        yield random_graph(rnd.randint(2, max_n), rnd.randint(min_m, max_m), seed=base + trial * 7)


class TestGetLen:
    def test_triangle_full(self):
        table = DpTable(TRIANGLE)
        assert edge_len(TRIANGLE, 0b111, 0, 2, table) == 3

    def test_singleton_base(self):
        table = DpTable(TRIANGLE)
        for v in range(3):
            assert edge_len(TRIANGLE, 1 << v, v, v, table) == 1

    def test_disjoint_edges(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert edge_len(g, 0b11, 0, 1, DpTable(g)) is None

    def test_same_first_and_last_edge(self):
        table = DpTable(TRIANGLE)
        assert edge_len(TRIANGLE, 0b111, 0, 0, table) == 1

    def test_membership_guard(self):
        table = DpTable(TRIANGLE)
        assert edge_len(TRIANGLE, edge_set([1, 2]), 0, 1, table) is None

    def test_matches_bruteforce_exhaustively(self):
        for g in random_cases(12, max_m=6):
            table = DpTable(g)
            m = g.edge_count
            for S in range(1, g.full_edge_set + 1):
                for v in range(m):
                    for u in range(m):
                        assert edge_len(g, S, v, u, table) == (
                            constrained_longest_bruteforce(g, S, v, u)
                        ), (g.edges, S, v, u)

    def test_matches_bruteforce_sampled_m8(self):
        rnd = random.Random(17)
        for g in random_cases(20, max_m=8, base=40, min_m=6):
            table = DpTable(g)
            m = g.edge_count
            for _ in range(150):
                S = rnd.randrange(1, g.full_edge_set + 1)
                v, u = rnd.randrange(m), rnd.randrange(m)
                assert edge_len(g, S, v, u, table) == (
                    constrained_longest_bruteforce(g, S, v, u)
                )

    def test_reversal_symmetry(self):
        rnd = random.Random(23)
        for g in random_cases(10, max_m=8, base=90):
            table = DpTable(g)
            m = g.edge_count
            for _ in range(80):
                S = rnd.randrange(1, g.full_edge_set + 1)
                v, u = rnd.randrange(m), rnd.randrange(m)
                assert edge_len(g, S, v, u, table) == edge_len(g, S, u, v, table)

    def test_arc_reversal_symmetry(self):
        for g in random_cases(6, max_m=6, base=130):
            table = DpTable(g)
            S = g.full_edge_set
            for v in range(g.edge_count):
                for u in range(g.edge_count):
                    for a in g.arcs_of(v):
                        for b in g.arcs_of(u):
                            assert get_len_arc(g, S, a, b, table) == get_len_arc(
                                g, S, g.reverse_arc(b), g.reverse_arc(a), table
                            )


class TestFullDp:
    def test_k4(self):
        assert full_dp_longest_trail(K4).length == 5

    def test_single_edge(self):
        assert full_dp_longest_trail(Graph(2, ((0, 1),))).length == 1

    def test_empty(self):
        res = full_dp_longest_trail(Graph(2, ()))
        assert res.length == 0 and res.trail == ()

    def test_matches_oracle(self):
        for g in random_cases(40, max_m=11, base=200):
            dp = full_dp_longest_trail(g)
            assert dp.length == longest_trail_bruteforce(g).length, g.edges
            assert validate_trail(g, dp.trail).ok
            assert len(dp.trail) == dp.length

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            full_dp_longest_trail(random_graph(6, 21, 0))


class TestPastOracleCeiling:
    """Exact checks where the oracle cannot go: the longest trail meets the
    Euler-parity bound, so the bound certifies the DP's length."""

    @pytest.mark.parametrize("n, m, seed", [(5, 18, 11), (6, 20, 11)])
    def test_reaches_the_parity_bound(self, n, m, seed):
        # Without pruning these took 66 s / 2.1 GB and 141 s / 4.3 GB.
        g = random_graph(n, m, seed)
        tracemalloc.start()
        try:
            res = full_dp_longest_trail(g)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.length == ParityBound(g).whole == 18
        assert len(res.trail) == res.length
        assert validate_trail(g, res.trail).ok
        assert peak < 256 << 20

    def test_eulerian_circuit_gives_m(self):
        # two Hamiltonian cycles on nine vertices plus two loops: all
        # degrees even, one component, so the whole edge set is one trail
        order = [0, 2, 4, 6, 8, 1, 3, 5, 7]
        edges = [(i, (i + 1) % 9) for i in range(9)]
        edges += [(order[i], order[(i + 1) % 9]) for i in range(9)]
        g = Graph(9, tuple(edges + [(3, 3), (6, 6)]))
        res = full_dp_longest_trail(g)
        assert res.length == g.edge_count == 20
        assert validate_trail(g, res.trail).ok


class TestLayerSpec:
    """The layer's k_pre rule, `hybrid.layer_size`."""

    @pytest.mark.parametrize(
        "m,expected", [(8, 2), (12, 3), (14, 4), (16, 4), (20, 5)]
    )
    def test_layer_size(self, m, expected):
        assert layer_size(m) == expected

    def test_small_graphs_floor_at_two(self):
        # The nominal size (1 - alpha) * m/4 collapses to 1 below m = 5, but
        # a split cannot shrink two-edge sets, so the layer floors at 2.
        assert layer_size(4) == 2
        assert layer_size(2) == 2
        assert layer_size(1) == 1

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            layer_size(8, alpha=0.0)
        with pytest.raises(ValueError):
            layer_size(8, alpha=1.0)

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            layer_size(0)


# Loops and parallel copies make the peel's predecessors tie: a rebuild that
# took any but the first matching arc would leave `reconstruct_arc`'s walk.
COPIES = Graph(3, ((0, 1), (1, 0), (1, 1), (0, 1), (1, 2), (2, 1), (2, 2), (0, 1), (1, 2)))
LAYER_GRAPHS = {"m8": random_graph(5, 8, 77), "loops7": random_graph(2, 9, 3), "copies": COPIES}


class TestPrecomputeLayer:
    """The hybrid's layer, `fill_layer`'s rows, against the per-arc DP."""

    def test_triangle_k2_matches_bruteforce(self):
        table = fill_layer(TRIANGLE, 2)
        for S in range(1, 8):
            for v in bits_of(S):
                for u in bits_of(S):
                    want = constrained_longest_bruteforce(TRIANGLE, S, v, u)
                    if S.bit_count() == 1:
                        # Singleton states stay implicit: no row.
                        assert table.cell(S, v, u) is None and want == 1
                    elif S.bit_count() == 2:
                        best = max(table.cell(S, v, u))
                        assert (best or None) == want, (S, v, u)
                    else:
                        assert table.cell(S, v, u) is None

    def test_k1_gives_base_states_only(self):
        g = random_graph(4, 6, 9)
        table = fill_layer(g, 1)
        # Singleton states are implicit, so the layer stores no compound
        # states at all.
        assert len(table) == 0
        assert table.rows == {}

    def test_layer_is_complete(self):
        # Every set of 2 <= |S| <= k_pre has a row with every cell set, and
        # the layer counts as many states as the per-arc memo holds after
        # computing every arc pair of S on distinct edges.
        g = random_graph(5, 9, 31)
        k_pre = layer_size(9)
        assert k_pre >= 3
        table = fill_layer(g, k_pre)
        fresh = DpTable(g)
        assert len(table.rows) == sum(math.comb(9, k) for k in range(2, k_pre + 1))
        for k in range(2, k_pre + 1):
            for combo in combinations(range(9), k):
                S = edge_set(combo)
                row = table.rows[S]
                assert len(row) == k * k
                assert None not in row
                for v in combo:
                    for u in combo:
                        if u == v:
                            continue
                        for a in g.arcs_of(v):
                            for b in g.arcs_of(u):
                                get_len_arc(g, S, a, b, fresh)
        assert len(table) == len(fresh.entries)

    def test_capacity_guard(self, monkeypatch):
        # The guard compares the layer's state count, `len(RowTable)`, with
        # the budget: one state past it is refused, a layer of exactly the
        # budget is filled.
        g = random_graph(6, 12, 0)
        states = len(RowTable(g, 3))
        monkeypatch.setattr(hybrid, "_LAYER_BUDGET", states - 1)
        with pytest.raises(SizeLimitError, match=f"needs {states} states, budget {states - 1}"):
            fill_layer(g, 3)
        monkeypatch.setattr(hybrid, "_LAYER_BUDGET", states)
        assert len(fill_layer(g, 3).rows) == math.comb(12, 2) + math.comb(12, 3)

    def test_capacity_guard_refuses_before_any_row(self, monkeypatch):
        # At m = 30 the default layer (k_pre = 8) holds over a billion states,
        # past the real budget; the guard must fire before a row is made.
        def no_row(table, S):
            raise AssertionError("a row was made before the capacity guard")
        monkeypatch.setattr(RowTable, "row", no_row)
        with pytest.raises(SizeLimitError, match=f"budget {hybrid._LAYER_BUDGET}$"):
            fill_layer(random_graph(16, 30, 0), layer_size(30))

    @pytest.mark.parametrize("k_pre", [2, 3, 4])
    @pytest.mark.parametrize("name", sorted(LAYER_GRAPHS))
    def test_matrix_view_consistent(self, name, k_pre):
        # Every cell of every layer row, the single-edge diagonal included,
        # holds the values that the per-arc DP computes afresh (0 for no
        # walk); every walk rebuilt from the cells is `reconstruct_arc`'s; and
        # the layer counts the per-arc memo's entries.
        g = LAYER_GRAPHS[name]
        m = g.edge_count
        table = fill_layer(g, k_pre)
        fresh = DpTable(g)
        assert len(table.rows) == sum(math.comb(m, k) for k in range(2, k_pre + 1))
        for S in table.rows:
            for v in bits_of(S):
                for u in bits_of(S):
                    cells = table.cell(S, v, u)
                    for ai, a in enumerate(g.arcs_of(v)):
                        for bi, b in enumerate(g.arcs_of(u)):
                            val = get_len_arc(g, S, a, b, fresh)
                            assert cells[ai * 2 + bi] == (0 if val is None else val)
                            if val and u != v:
                                walk = reconstruct_from_witness((S, a, b), table)
                                assert walk == reconstruct_arc(fresh, S, a, b), (S, a, b)
        assert len(table) == len(fresh.entries)


class TestSplitProperty:
    def test_oriented_split_identity(self):
        # For every state and every first-half size k, the best value equals
        # the best pivot-arc composition over subsets of size k around the
        # first edge.  Arc orientation at the pivot is what makes this exact.
        for g in random_cases(8, max_m=7, base=700, min_m=3):
            table = DpTable(g)
            m = g.edge_count
            for S in range(1, g.full_edge_set + 1):
                edges_in = list(bits_of(S))
                size = len(edges_in)
                if size < 2:
                    continue
                for v in edges_in:
                    for u in edges_in:
                        for a in g.arcs_of(v):
                            for b in g.arcs_of(u):
                                direct = get_len_arc(g, S, a, b, table)
                                for k in range(1, size + 1):
                                    best = None
                                    for S1, c in _splits(g, S, v, k):
                                        left = get_len_arc(g, S1, a, c, table)
                                        T = (S & ~S1) | (1 << (c >> 1))
                                        right = get_len_arc(g, T, c, b, table)
                                        if left is None or right is None:
                                            continue
                                        val = left + right - 1  # both count the pivot
                                        if best is None or val > best:
                                            best = val
                                    assert best == direct, (g.edges, S, v, u, k)


def _splits(g, S, v, k):
    rest = [p for p in bits_of(S) if p != v]
    for combo in combinations(rest, k - 1):
        S1 = 1 << v
        for p in combo:
            S1 |= 1 << p
        for y in bits_of(S1):
            for c in g.arcs_of(y):
                yield S1, c


class TestReconstruct:
    def test_triangle(self):
        table = DpTable(TRIANGLE)
        assert get_len_arc(TRIANGLE, 0b111, 1, 5, table) == 3
        trail = reconstruct_arc(table, 0b111, 1, 5)
        assert validate_trail(TRIANGLE, trail).ok
        assert len(trail) == 3 and trail[0] == 0 and trail[-1] == 2

    def test_singleton(self):
        table = DpTable(TRIANGLE)
        get_len_arc(TRIANGLE, 0b1, 0, 0, table)
        assert reconstruct_arc(table, 0b1, 0, 0) == [0]

    def test_missing_entry(self):
        with pytest.raises(TableLookupError):
            reconstruct_arc(DpTable(TRIANGLE), 0b111, 1, 5)

    def test_reconstruction_matches_length_everywhere(self):
        for g in random_cases(10, max_m=8, base=900):
            table = DpTable(g)
            m = g.edge_count
            S = g.full_edge_set
            for v in range(m):
                for u in range(m):
                    val = edge_len(g, S, v, u, table)
                    if val is None or v == u:
                        continue
                    # The first of (v, u)'s arc pairs that reaches L(S, v, u).
                    a, b = next((a, b) for a in g.arcs_of(v) for b in g.arcs_of(u)
                                if get_len_arc(g, S, a, b, table) == val)
                    trail = reconstruct_arc(table, S, a, b)
                    assert len(trail) == val
                    assert trail[0] == v and trail[-1] == u
                    assert validate_trail(g, trail).ok
