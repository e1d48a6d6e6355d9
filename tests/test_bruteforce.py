import random
from itertools import combinations, permutations

import pytest

from longtrail.bruteforce import longest_trail_bruteforce
from longtrail.graphs import (
    Graph,
    SizeLimitError,
    edge_set,
    random_graph,
    validate_trail,
)

from constrained_oracle import constrained_longest_bruteforce

TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
STAR3 = Graph(4, ((0, 1), (0, 2), (0, 3)))
PATH2 = Graph(3, ((0, 1), (1, 2)))


def perm_longest(g):
    """Reference enumeration: try every ordering of every edge subset and
    keep the longest one that validates as a walk."""
    best = 0
    m = g.edge_count
    for k in range(1, m + 1):
        for sub in combinations(range(m), k):
            if any(validate_trail(g, p).ok for p in permutations(sub)):
                best = k
                break  # longer k may still succeed; keep scanning sizes
    return best


def perm_constrained(g, S, v, u):
    bits = [i for i in range(g.edge_count) if S >> i & 1]
    best = None
    for k in range(1, len(bits) + 1):
        for sub in combinations(bits, k):
            if v not in sub or u not in sub:
                continue
            for p in permutations(sub):
                if p[0] == v and p[-1] == u and validate_trail(g, p).ok:
                    best = k if best is None else max(best, k)
                    break
    return best


class TestLongestTrail:
    @pytest.mark.parametrize(
        "g,expected",
        [(TRIANGLE, 3), (PATH2, 2), (K4, 5), (STAR3, 2)],
        ids=["triangle", "path", "k4", "star"],
    )
    def test_known_graphs(self, g, expected):
        res = longest_trail_bruteforce(g)
        assert res.length == expected
        assert validate_trail(g, res.trail).ok
        assert len(res.trail) == res.length

    def test_empty_graph(self):
        res = longest_trail_bruteforce(Graph(3, ()))
        assert res.length == 0 and res.trail == ()

    def test_matches_permutation_enumeration(self):
        for trial in range(80):
            rnd = random.Random(trial)
            g = random_graph(rnd.randint(1, 5), rnd.randint(0, 6), seed=trial)
            assert longest_trail_bruteforce(g).length == perm_longest(g), g.edges

    def test_parallel_edges_and_loops(self):
        # Four parallel edges plus a loop: walk alternates the parallel pair
        # endpoints and can absorb the loop mid-way.
        g = Graph(2, ((0, 1), (0, 1), (0, 1), (0, 1), (1, 1)))
        assert longest_trail_bruteforce(g).length == 5

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            longest_trail_bruteforce(random_graph(4, 15, 0))


class TestConstrained:
    def test_triangle_two_edges(self):
        assert constrained_longest_bruteforce(TRIANGLE, edge_set([0, 1]), 0, 1) == 2

    def test_singleton_base(self):
        for g in (TRIANGLE, K4, STAR3):
            for v in range(g.edge_count):
                assert constrained_longest_bruteforce(g, 1 << v, v, v) == 1

    def test_disconnected_pair(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert constrained_longest_bruteforce(g, edge_set([0, 1]), 0, 1) is None

    def test_endpoint_not_in_set(self):
        assert constrained_longest_bruteforce(TRIANGLE, edge_set([0]), 0, 1) is None

    def test_star_head_constraint(self):
        # Only two of the three spokes fit in one walk.
        assert constrained_longest_bruteforce(STAR3, 0b111, 0, 2) == 2

    def test_matches_permutation_enumeration(self):
        for trial in range(25):
            rnd = random.Random(100 + trial)
            g = random_graph(rnd.randint(2, 5), rnd.randint(1, 6), seed=trial + 71)
            m = g.edge_count
            full = g.full_edge_set
            for S in range(1, full + 1):
                for v in range(m):
                    for u in range(m):
                        got = constrained_longest_bruteforce(g, S, v, u)
                        assert got == perm_constrained(g, S, v, u), (g.edges, S, v, u)

    def test_pinned_last_parallel_edge(self):
        # The required last edge must stay available even among parallels.
        g = Graph(2, ((0, 1), (0, 1), (0, 1)))
        assert constrained_longest_bruteforce(g, 0b111, 0, 1) == 3
        assert constrained_longest_bruteforce(g, 0b111, 1, 0) == 3


class TestInvariants:
    def _graphs(self, count=25, max_m=8):
        for trial in range(count):
            rnd = random.Random(3000 + trial)
            yield random_graph(rnd.randint(2, 6), rnd.randint(1, max_m), seed=trial)

    def test_full_set_max_equals_longest(self):
        for g in self._graphs():
            m = g.edge_count
            full = g.full_edge_set
            best = 0
            for v in range(m):
                for u in range(m):
                    val = constrained_longest_bruteforce(g, full, v, u)
                    if val is not None:
                        best = max(best, val)
            assert best == longest_trail_bruteforce(g).length

    def test_monotone_in_subset(self):
        rnd = random.Random(5)
        for g in self._graphs(count=10, max_m=7):
            m = g.edge_count
            full = g.full_edge_set
            for _ in range(40):
                S = rnd.randrange(1, full + 1)
                Ssub = S & rnd.randrange(1, full + 1)
                if not Ssub:
                    continue
                v = rnd.randrange(m)
                u = rnd.randrange(m)
                small = constrained_longest_bruteforce(g, Ssub, v, u)
                big = constrained_longest_bruteforce(g, S | Ssub, v, u)
                if small is not None:
                    assert big is not None and big >= small

    def test_reversal_symmetry(self):
        rnd = random.Random(6)
        for g in self._graphs(count=10, max_m=7):
            m = g.edge_count
            for _ in range(60):
                S = rnd.randrange(1, g.full_edge_set + 1)
                v = rnd.randrange(m)
                u = rnd.randrange(m)
                assert constrained_longest_bruteforce(
                    g, S, v, u
                ) == constrained_longest_bruteforce(g, S, u, v)
