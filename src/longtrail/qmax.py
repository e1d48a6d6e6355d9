"""Simulated quantum maximum finding with exact query accounting.

The simulation lives at the query-model level: it never builds statevectors.
A run of the threshold search is modeled as a sequence of idealized Grover
stages.  Each stage, given t of N items strictly better than the current
threshold, charges ceil((pi/4) * sqrt(N/t)) queries and moves the threshold
to an item picked uniformly among those t; the run stops when no better item
exists or when the next stage would push the charged total past the query
budget (budget_constant * ceil(sqrt(N))).  A budget stop returns the current
threshold element, so errors are one-sided: the result is always a genuine
element of the sequence, at worst a non-maximal one.

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
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    N = len(values)
    if not N:
        raise ValueError("search needs at least one value")
    if values.count(values[0]) == N:
        # No value beats any sample: each repeat draws its start and stops,
        # and the first repeat's index is the outcome.  The other repeats'
        # draws are skipped: random() takes two 32-bit words of the stream.
        r = min(int(rnd() * N), N - 1)
        rnd.__self__.getrandbits(64 * (repeats - 1))
        return values[r], r, repeats
    # Per rank of the descending order: its value, and its class's first rank
    # (the strictly-better count), found per class, best first, by bisection.
    asc = sorted(values)
    svals, greater, hi = asc[::-1], [], N
    while hi:
        lo = bisect_left(asc, asc[hi - 1], 0, hi)
        greater += [N - hi] * (hi - lo)
        hi = lo
    budget = budget_constant * math.ceil(math.sqrt(N))
    costs = _stage_costs(N)
    best_rank = -1
    best_val = svals[0]
    total = 0
    for _ in range(repeats):
        r = int(rnd() * N)
        if r >= N:
            r = N - 1
        charged = 1
        t = greater[r]
        while t:
            cost = costs[t]
            if charged + cost > budget:
                break
            charged += cost
            r = int(rnd() * t)
            if r >= t:
                r = t - 1
            t = greater[r]
        total += charged
        val = svals[r]
        if best_rank < 0 or val > best_val:
            best_rank = r
            best_val = val
    # The winner is the j-th occurrence of its value, j its rank in its class.
    index = values.index(best_val)
    for _ in range(best_rank - greater[best_rank]):
        index = values.index(best_val, index + 1)
    return values[index], index, total
