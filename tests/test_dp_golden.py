"""Golden outputs of the full DP: (length, trail) of `full_dp_longest_trail`.

The literals are recorded outputs, not derived ones.  The trail is the walk
of the first (first arc, last arc) pair, in the DP's loop order, that reaches
the maximum, rebuilt through the memo's predecessor arcs; so a change to the
pair order, to the incumbent rule or to a predecessor tie-break shows up here
as a mismatch.  A second check compares the DP with an unpruned pair loop
written here from `get_len_arc` and `reconstruct_arc` on 200 seeded graphs.
"""

import random

import pytest

from longtrail.dp import DpTable, full_dp_longest_trail, get_len_arc, reconstruct_arc
from longtrail.graphs import Graph, random_graph

GRAPHS = {
    "k4": Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "random_n6_m12": random_graph(6, 12, 7),
    # seven self-loops
    "loops_n5_m14": random_graph(5, 14, 3),
    # the parity bound says 8; the longest trail has 7 edges
    "not_tight_n8_m10": random_graph(8, 10, 1),
    "sparse_n12_m8": random_graph(12, 8, 3),
    # a 5-edge component on 0..3 and a 6-edge one on 5..8, interleaved
    "two_components": Graph(9, ((5, 6), (0, 1), (6, 7), (1, 2), (5, 7), (2, 3),
                                (7, 8), (3, 0), (8, 5), (0, 2), (5, 5))),
    "parallel_bundles": Graph(4, ((0, 1), (1, 2), (0, 1), (2, 3), (0, 1), (1, 2),
                                  (2, 3), (2, 3), (0, 3))),
    "star_with_loops": Graph(6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 1),
                                 (3, 3), (3, 3))),
    "circuit_with_pendants": Graph(9, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                       (5, 0), (1, 4), (4, 1), (2, 6), (5, 7),
                                       (5, 8))),
}

GOLDEN = {
    "k4": (5, (0, 2, 4, 3, 1)),
    "random_n6_m12": (12, (0, 3, 6, 7, 10, 4, 5, 8, 2, 11, 9, 1)),
    "loops_n5_m14": (13, (0, 12, 3, 11, 9, 6, 1, 8, 7, 4, 2, 13, 5)),
    "not_tight_n8_m10": (7, (0, 8, 9, 1, 5, 7, 2)),
    "sparse_n12_m8": (3, (0, 7, 5)),
    "two_components": (6, (0, 2, 6, 8, 10, 4)),
    "parallel_bundles": (9, (0, 8, 7, 6, 3, 5, 4, 2, 1)),
    "star_with_loops": (5, (5, 0, 2, 7, 6)),
    "circuit_with_pendants": (10, (9, 5, 0, 7, 6, 1, 2, 3, 4, 10)),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_full_dp_matches_recorded_output(name):
    res = full_dp_longest_trail(GRAPHS[name])
    assert (res.length, res.trail) == GOLDEN[name]


def unpruned_longest_trail(g):
    """Every (first arc, last arc) pair on distinct edges, in the DP's order;
    the first pair that reaches the maximum wins."""
    m = g.edge_count
    if m == 0:
        return 0, ()
    table = DpTable(g)
    E = g.full_edge_set
    best, best_arcs = 0, None
    for v in range(m):
        for a in g.arcs_of(v):
            for u in range(m):
                if u == v:
                    continue
                for b in g.arcs_of(u):
                    val = get_len_arc(g, E, a, b, table)
                    if val is not None and val > best:
                        best, best_arcs = val, (a, b)
    if best_arcs is None:
        return 1, (0,)
    return best, tuple(reconstruct_arc(table, E, *best_arcs))


def seeded_graphs(count, seed):
    rnd = random.Random(seed)
    for _ in range(count):
        n, m = rnd.randint(1, 8), rnd.randint(0, 9)
        g = random_graph(n, m, rnd.randrange(1 << 30))
        if rnd.random() < 0.25:
            # a disjoint copy on fresh vertices, capped at 10 edges
            extra = random_graph(n, rnd.randint(1, 10 - min(m, 9)), rnd.randrange(1 << 30))
            g = Graph(2 * n, g.edges + tuple((u + n, v + n) for u, v in extra.edges))
        yield g


def test_full_dp_matches_unpruned_pair_loop():
    for g in seeded_graphs(200, seed=2024):
        res = full_dp_longest_trail(g)
        assert (res.length, res.trail) == unpruned_longest_trail(g), g.edges
