"""Stochastic mode at the default budget constant, checked against the
deterministic solve.  Every hybrid search is budget-free there
(`TestBudgetFree`), so every trajectory ends in its search's top class:
stochastic cells and trails equal the deterministic ones, and only
the charges are random.  Their expectation has a closed form (Durr and
Hoyer's lemma over tie classes): a search of N values with R repeats charges
R * (1 + sum over the classes k below the top of (e_k - t_k)/e_k * cost(N, t_k))
on average, for class start t_k and end e_k.  A deterministic solve holds
exactly the stochastic searches' values, so it gives the expected ledger per
level without sampling, as `predict_deterministic_queries` does for
deterministic mode.
"""

import math
import random
from collections import Counter
from functools import partial
from statistics import fmean

import pytest

from longtrail import hybrid
from longtrail.graphs import random_graph
from longtrail.hybrid import (
    HybridConfig,
    SolveContext,
    _exhaustive_chunk,
    _stochastic_chunk,
    reconstruct_from_witness,
    solve_hybrid,
    solve_recursive,
)
from longtrail.qmax import grover_stage_cost

from test_golden import INSTANCES, REPORTS

DET = HybridConfig(mode="deterministic")


def expected_charge(values, repeats):
    """The mean charge of a budget-free search over the values."""
    N, t, mean = len(values), 0, 1.0
    for _, count in sorted(Counter(values).items(), reverse=True):
        if t:
            mean += count / (t + count) * grover_stage_cost(N, t)
        t += count
    return repeats * mean


def expected_ledger(g, repeats):
    """Per level, the expected ledger of a stochastic solve: a deterministic
    solve whose every search charges `expected_charge` instead of N."""
    ctx = SolveContext.create(g, DET)

    def search(lanes, n, count):
        find, flat = _exhaustive_chunk(lanes, n, count), lanes.to_bytes(4 * n * count, "little")

        def expected(i, slots):
            cell, _ = find(i, slots)
            return cell, sum(expected_charge(flat[4 * i * n + slot:4 * (i + 1) * n:4], repeats)
                             for slot in slots)
        return expected
    ctx.search = search
    solve_recursive(ctx, g.full_edge_set, 0, 1)
    return ctx.ledger.per_level


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_stochastic_memo_and_trail_equal_deterministic(name):
    g = random_graph(*INSTANCES[name])
    E, m = g.full_edge_set, g.edge_count
    det, stoch = (SolveContext.create(g, cfg) for cfg in (DET, HybridConfig(mode="stochastic")))
    for ctx in (det, stoch):
        solve_recursive(ctx, E, 0, 1)
    assert stoch.table.rows == det.table.rows
    # The trail `solve_hybrid` returns: the first pair's of the longest.
    length, witness = max((solve_recursive(stoch, E, v, u) for v in range(m) for u in range(m)),
                          key=lambda found: found[0] or 0)
    trail = tuple(reconstruct_from_witness(witness, stoch.table))
    assert (length, trail) == REPORTS[name, "deterministic", 0][:2]


class _Recording(dict):
    """A plan memo that records the most entries it ever held."""
    most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


@pytest.mark.parametrize("budget_constant", [23.0, 0.5])
def test_plan_eviction_leaves_the_stream_alone(budget_constant, monkeypatch):
    # A plan depends only on its array, so a memo cleared at every plan (a
    # cap of 1) runs the same searches on the same draws as the default
    # one; neither ever holds more plans than its cap.  At 0.5 most
    # searches walk.
    cfg = HybridConfig(mode="stochastic", budget_constant=budget_constant)
    for name in sorted(INSTANCES):
        g = random_graph(*INSTANCES[name])
        E, m = g.full_edge_set, g.edge_count
        solves = []
        for cap in hybrid._PLANS, 1:
            monkeypatch.setattr(hybrid, "_PLANS", cap)
            ctx = SolveContext.create(g, cfg)
            ctx.search = partial(_stochastic_chunk, random.Random(cfg.seed), 2 * m,
                                 budget_constant, plans := _Recording())
            # The trail `solve_hybrid` returns: the first pair's of the longest.
            length, witness = max((solve_recursive(ctx, E, v, u) for v in range(m) for u in range(m)),
                                  key=lambda found: found[0] or 0)
            assert 0 < plans.most <= cap, name
            solves.append((length, reconstruct_from_witness(witness, ctx.table),
                           ctx.ledger.as_dict()))
            monkeypatch.undo()
        assert solves[0] == solves[1], name


def test_expected_charge_of_a_known_search():
    # Classes 3 (1 value), 2 (3) and 1 (12) of N = 16: classes 2 and 1 are
    # visited with probability 3/4 and 12/16, at stage costs 4 and 2.
    values = [1, 2, 1, 1, 2, 1, 3, 1, 1, 1, 2, 1, 1, 1, 1, 1]
    assert expected_charge(values, 6) == 6 * (1 + 3 / 4 * 4 + 12 / 16 * 2)
    assert expected_charge(bytes(5), 6) == 6


# (graph, seeds, relative tolerance per level, relative tolerance of the
# total).  Each tolerance is at least five standard deviations of the
# seeds' mean, as the per-search variances R * p * (1 - p) * cost(N, t)**2
# add up: 0.0085 and 0.0013 at m = 8, 0.0148 and 0.00064 at m = 12.
LEDGER_CASES = [
    ((5, 8, 80_001), range(40), 0.01, 0.0015),
    ((7, 12, 80_002), range(4), 0.015, 0.001),
]


@pytest.mark.parametrize("graph, seeds, per_level, total", LEDGER_CASES, ids=["m8", "m12"])
def test_mean_ledger_matches_the_expected_ledger(graph, seeds, per_level, total):
    g = random_graph(*graph)
    expected = expected_ledger(g, 2 * g.edge_count)
    ledgers = [solve_hybrid(g, HybridConfig(mode="stochastic", seed=s)).ledger.per_level
               for s in seeds]
    assert all(ledger.keys() == expected.keys() for ledger in ledgers)
    for level, want in expected.items():
        got = fmean(ledger[level] for ledger in ledgers)
        assert math.isclose(got, want, rel_tol=per_level), (level, got, want)
    got = fmean(sum(ledger.values()) for ledger in ledgers)
    assert math.isclose(got, sum(expected.values()), rel_tol=total)
