"""Simulated quantum maximum finding with exact query accounting.

The simulation lives at the query-model level: it never builds statevectors.
A run of the threshold search is modeled as a sequence of idealized Grover
stages.  Each stage, given t of N items strictly better than the current
threshold, charges ceil((pi/4) * sqrt(N/t)) queries and moves the threshold
to an item picked uniformly among those t; the run stops when no better item
exists or when the next stage would push the charged total past the query
budget (budget_constant * ceil(sqrt(N))).  A budget stop returns the current
threshold element, so errors are one-sided: the result is always a genuine
element of the sequence, at worst a non-maximal one.  A search is
budget-free when no trajectory can be stopped (`_shape`).  At the default
budget_constant 23 every hybrid search is: its values are walk lengths 0..m
<= 16, and 1 + the costs of t = 1..m fit the budget for every N it searches.

A search runs over a sequence of mutually comparable values (a list, or the
hybrid's bytes) and returns (value, index, charged).  The caller encodes "no
value" below every real value, as the hybrid does with 0, so an invalid
candidate can never win a maximization.

Charged queries follow the model above, not the simulator's own bookkeeping
sweeps: the simulator inspects the whole value sequence to compute the t
counts, the way any classical driver of the model must, while the ledger
records what the idealized quantum search would have paid.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class QueryLedger:
    """Per-recursion-level counts of charged oracle queries."""

    per_level: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.per_level.values())

    def as_dict(self) -> dict:
        return {"total": self.total, "per_level": dict(sorted(self.per_level.items()))}


def grover_stage_cost(N: int, t: int) -> int:
    """Charged cost of one idealized Grover search with t of N items marked."""
    if not 1 <= t <= N:
        raise ValueError(f"need 1 <= t <= N, got t={t}, N={N}")
    return math.ceil(math.pi / 4.0 * math.sqrt(N / t))


def exhaustive(values: Sequence) -> tuple:
    """Deterministic reference search: evaluate everything and charge N
    queries.  Returns (best value, its first index, N); ValueError (from
    `max`) on an empty sequence."""
    best = max(values)
    return best, values.index(best), len(values)


_COST_TABLES: dict[int, list[int]] = {}


def _stage_costs(N: int) -> list[int]:
    """Charged cost of one stage for every possible t, indexed by t."""
    table = _COST_TABLES.get(N)
    if table is None:
        table = [0] + [grover_stage_cost(N, t) for t in range(1, N + 1)]
        _COST_TABLES[N] = table
    return table


def _shape(values: Sequence, budget_constant: float, ranks: dict) -> tuple:
    """A search's set-up, one object per shape in `ranks`: its class values,
    best first, and the rank shape of its length N and class starts (a
    class's strictly-better count t), also in `ranks`: per rank of the
    descending order (ties by index) its t, the starts, the stage costs, the
    budget, and whether 1 + the costs of every start but the top's fit it."""
    asc = sorted(values)
    N = hi = len(asc)
    starts = []
    while hi:
        starts.append(N - hi)
        hi = bisect_left(asc, asc[hi - 1], 0, hi)
    rank = ranks.get(key := (N, *starts))
    if rank is None:
        greater = [t for t, end in zip(starts, key[2:] + (N,)) for _ in range(end - t)]
        costs, budget = _stage_costs(N), budget_constant * math.ceil(math.sqrt(N))
        free = not 1 + sum(map(costs.__getitem__, starts[1:])) > budget  # nan stops no stage
        rank = ranks[key] = greater, key[1:], costs, budget, free
    return ranks.setdefault((key, tops := tuple(asc[~t] for t in starts)), (tops, rank))


def _trajectories(values: Sequence, shape: tuple, repeats: int, rnd) -> tuple:
    """`boosted`'s trajectories over values of the given `_shape`.  A draw
    int(rnd() * t) needs no clamp below t: random() <= 1 - 2**-53, and
    int((1 - 2**-53) * t) < t for every t below 2**53."""
    tops, (greater, starts, costs, budget, free), N = *shape, len(values)
    if len(tops) == 1:
        # The first start wins; the others' draws (two 32-bit words each) are skipped.
        r = int(rnd() * N)
        rnd.__self__.getrandbits(64 * (repeats - 1))
        return values[r], r, repeats
    total, best_t = repeats, 0 if free else N  # a charge per start; N is above every class start
    if free:
        # Every trajectory ends in the top class: the first one's end wins.
        best = int(rnd() * N)
        while t := greater[best]:
            total += costs[t]
            best = int(rnd() * t)
        for _ in range(repeats - 1):
            t = greater[int(rnd() * N)]
            while t:
                total += costs[t]
                t = greater[int(rnd() * t)]
    else:
        for _ in range(repeats):
            r = int(rnd() * N)
            charged, t = 1, greater[r]
            while t and charged + costs[t] <= budget:
                charged += costs[t]
                r = int(rnd() * t)
                t = greater[r]
            total += charged - 1
            if t < best_t:  # a better class starts earlier
                best, best_t = r, t
    # The winner is the j-th occurrence of its value, j its rank in its class.
    val = tops[starts.index(best_t)]
    index = values.index(val)
    for _ in range(best - best_t):
        index = values.index(val, index + 1)
    return values[index], index, total


def boosted(values: Sequence, repeats: int, rnd, budget_constant: float) -> tuple:
    """Bounded-error search: `repeats` threshold-search trajectories over one
    sequence of mutually comparable values.

    `rnd` is a bound `Random.random` method; repeats consume disjoint
    segments of that stream.  Returns (value, witness_index, charged_total)
    for the first outcome attaining the best value sampled.  One-sided error
    makes boosting safe: a repeat can only improve the value, and repeats=1
    is a single Durr-Hoyer run.

    The trajectory walks ranks of the descending value order (ties by index,
    ranks read off value classes): the initial uniform index sample is taken
    directly in rank space (a bijection of index space), each stage jumps
    uniformly into the strictly-better prefix and charges the modeled Grover
    cost for its size, and a stage whose cost would overrun the query budget
    aborts the run with the current (genuine, possibly non-maximal) element.
    The set-up is `_shape`; a budget-free search's trajectories skip the budget.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not len(values):
        raise ValueError("search needs at least one value")
    return _trajectories(values, _shape(values, budget_constant, {}), repeats, rnd)
