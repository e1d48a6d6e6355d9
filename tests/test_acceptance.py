"""Acceptance suite: one test per criterion, each printing a pass line.

These are the exit criteria for the package.  Monte Carlo sizes and
tolerances are pinned here and must not be loosened; the stochastic checks
use fixed seeds so the suite is reproducible run to run.
"""

import math
import random
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

import numpy as np

from longtrail.bruteforce import longest_trail_bruteforce
from longtrail.dp import DpTable, full_dp_longest_trail, get_len_arc, reconstruct_arc
from longtrail.graphs import Graph, bits_of, random_graph, validate_trail
from longtrail.hybrid import (
    HybridConfig,
    predict_deterministic_queries,
    solve_hybrid,
    theoretical_costs,
)
from longtrail.qmax import boosted

from edge_level import edge_len

DET = HybridConfig(mode="deterministic")


def _report(criterion, detail):
    print(f"criterion {criterion}: {detail} PASS")


def test_criterion_1_oracle_dp_equivalence():
    """Full DP equals the exhaustive oracle on 300 seeded random graphs."""
    rnd = random.Random(10_001)
    matched = 0
    for i in range(300):
        g = random_graph(rnd.randint(2, 7), rnd.randint(1, 12), seed=20_000 + i)
        dp = full_dp_longest_trail(g)
        oracle = longest_trail_bruteforce(g)
        assert dp.length == oracle.length, (i, g.edges, dp.length, oracle.length)
        assert validate_trail(g, dp.trail).ok and len(dp.trail) == dp.length
        matched += 1
    assert matched == 300
    _report(1, "oracle == full DP on 300/300 random graphs (n in [2,7], m in [1,12])")


def test_criterion_2_hybrid_deterministic_equivalence():
    """Deterministic hybrid equals the full DP, with valid trails, m in [4,14]."""
    sizes = [m for m in range(4, 13) for _ in range(11)] + [13, 14]
    rnd = random.Random(10_002)
    for i, m in enumerate(sizes):
        g = random_graph(rnd.randint(3, 7), m, seed=30_000 + i)
        dp = full_dp_longest_trail(g)
        res = solve_hybrid(g, DET)
        assert res.length == dp.length, (i, g.edges, res.length, dp.length)
        assert validate_trail(g, res.trail).ok
        assert len(res.trail) == res.length
    _report(2, f"hybrid deterministic == full DP on {len(sizes)}/{len(sizes)} graphs (m in [4,14])")


def test_criterion_3_singleton_base_case():
    """L on a singleton set with matching endpoints is exactly one, and the
    stored walk is that edge alone, for every edge of every test graph."""
    graphs = [
        Graph(3, ((0, 1), (1, 2), (2, 0))),
        Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        Graph(2, ((0, 0), (0, 1), (1, 1))),
    ]
    rnd = random.Random(10_003)
    for i in range(30):
        graphs.append(random_graph(rnd.randint(2, 7), rnd.randint(1, 12), seed=40_000 + i))
    edges_checked = 0
    for g in graphs:
        table = DpTable(g)
        for v in range(g.edge_count):
            for a in g.arcs_of(v):
                assert get_len_arc(g, 1 << v, a, a, table) == 1
                assert reconstruct_arc(table, 1 << v, a, a) == [v]
            edges_checked += 1
    _report(3, f"singleton base case exact on {edges_checked} edges across {len(graphs)} graphs")


def _oriented_split_best(g, table, S, v, u, k):
    """Best value over all size-k splits around first edge v, maximizing over
    endpoint and pivot arc orientations."""
    rest = [p for p in bits_of(S) if p != v]
    best = None
    for combo in combinations(rest, k - 1):
        S1 = 1 << v
        for p in combo:
            S1 |= 1 << p
        for y in bits_of(S1):
            T = (S & ~S1) | (1 << y)
            if not T >> u & 1:
                continue
            for c in g.arcs_of(y):
                for a in g.arcs_of(v):
                    left = get_len_arc(g, S1, a, c, table)
                    if left is None:
                        continue
                    for b in g.arcs_of(u):
                        right = get_len_arc(g, T, c, b, table)
                        if right is None:
                            continue
                        val = left + right - 1  # both halves count the pivot edge
                        if best is None or val > best:
                            best = val
    return best


def test_criterion_4_split_property():
    """The pivot-split identity (with the shared edge counted once) holds
    exactly for every state and every first-half size, on 20 graphs."""
    rnd = random.Random(10_004)
    states = 0
    for i in range(20):
        m = rnd.choice([3, 4, 5, 5, 6, 6, 7, 7, 8, 8])
        g = random_graph(rnd.randint(2, 6), m, seed=50_000 + i)
        table = DpTable(g)
        for S in range(1, g.full_edge_set + 1):
            members = list(bits_of(S))
            if len(members) < 2:
                continue
            for v in members:
                for u in members:
                    direct = edge_len(g, S, v, u, table)
                    for k in range(1, len(members) + 1):
                        split = _oriented_split_best(g, table, S, v, u, k)
                        assert split == direct, (g.edges, S, v, u, k, split, direct)
                        states += 1
    _report(4, f"split identity exact on {states} (S, v, u, k) states across 20 graphs")


def _stoch_run(payload):
    n, edges, seed = payload
    g = Graph(n, edges)
    return solve_hybrid(g, HybridConfig(mode="stochastic", seed=seed)).length


def test_criterion_5_stochastic_error_bound():
    """Stochastic-mode success rate at m=12 with default config >= 0.80."""
    rnd = random.Random(10_005)
    jobs = []
    truths = []
    for gi in range(20):
        g = random_graph(rnd.randint(5, 7), 12, seed=60_000 + gi)
        truth = full_dp_longest_trail(g).length
        for run in range(10):
            jobs.append((g.vertex_count, g.edges, 70_000 + gi * 10 + run))
            truths.append(truth)
    with ProcessPoolExecutor(max_workers=2) as pool:
        lengths = list(pool.map(_stoch_run, jobs, chunksize=4))
    hits = sum(got == want for got, want in zip(lengths, truths))
    assert all(got <= want for got, want in zip(lengths, truths))
    rate = hits / len(jobs)
    assert rate >= 0.80, f"success rate {rate:.3f} below 0.80"
    _report(5, f"stochastic success rate {rate:.3f} >= 0.80 over {len(jobs)} runs at m=12")


def test_criterion_6_durr_hoyer_calibration():
    """A single unboosted search over 256 shuffled distinct values finds the
    maximum in at least 90% of 1000 seeded trials at the default budget."""
    hits = 0
    for seed in range(1000):
        vals = list(range(256))
        random.Random(seed).shuffle(vals)
        value, _, _ = boosted(vals, 1, random.Random(100_000 + seed).random, 23.0)
        hits += value == 255
    rate = hits / 1000
    assert rate >= 0.90, f"calibration rate {rate:.3f} below 0.90"
    _report(6, f"unboosted max-finding success {rate:.3f} >= 0.90 at N=256, budget 23*sqrt(N)")


def test_criterion_7_query_scaling():
    """Mean charged queries grow by at most 2.3x per 4x growth of N."""
    means = []
    for exp in (8, 10, 12, 14):
        N = 2 ** exp
        total = 0
        for seed in range(1000):
            arr = np.random.default_rng(seed).permutation(N)
            _, _, charged = boosted(arr.tolist(), 1, random.Random(seed).random, 23.0)
            total += charged
        means.append(total / 1000)
    ratios = [means[i + 1] / means[i] for i in range(len(means) - 1)]
    assert all(r <= 2.3 for r in ratios), (means, ratios)
    _report(7, "query growth ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " all <= 2.3")


def test_criterion_8_exponent_balance():
    """Both cost exponents sit within 0.02 of log2(1.728) at m=2000 and the
    balance gap is below 0.01."""
    rep = theoretical_costs(2000, 0.055)
    target = math.log2(1.728)
    assert abs(rep.exponent_classical - target) < 0.02, rep
    assert abs(rep.exponent_quantum - target) < 0.02, rep
    assert rep.balance_gap < 0.01, rep
    _report(
        8,
        f"exponents ({rep.exponent_classical:.5f}, {rep.exponent_quantum:.5f}) "
        f"within 0.02 of {target:.5f}, gap {rep.balance_gap:.5f} < 0.01",
    )


def test_criterion_9_ledger_exactness():
    """Deterministic total query counts match the independent closed-form
    candidate count, exactly, at m = 8 and m = 12."""
    for m, seed in ((8, 80_001), (12, 80_002)):
        g = random_graph(m // 2 + 1, m, seed)
        res = solve_hybrid(g, DET)
        predicted = predict_deterministic_queries(g)
        assert res.ledger.per_level == predicted, (m, res.ledger.per_level, predicted)
        assert res.ledger.total == sum(predicted.values())
    _report(9, "deterministic ledgers equal the independent candidate-count prediction at m=8,12")
