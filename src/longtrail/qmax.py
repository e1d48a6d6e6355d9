"""Simulated quantum maximum finding with exact query accounting.

The simulation lives at the query-model level: it never builds statevectors.
A run of the threshold search is modeled as a sequence of idealized Grover
stages.  Each stage, given t of N items strictly better than the current
threshold, charges ceil((pi/4) * sqrt(N/t)) queries and moves the threshold
to an item picked uniformly among those t; the run stops when no better item
exists or when the next stage would push the charged total past the query
budget (budget_constant * ceil(sqrt(N))).  A budget stop returns the current
threshold element, so errors are one-sided: the result is always a genuine
element of the sequence, at worst a non-maximal one.  A budget-free search
(`_free_classes`) is sampled, not walked: it returns the maximum and its first
index, as the exhaustive scan does, and draws its charge from the exact
distribution (`_sampled_charge`).  At the default budget_constant 23 every
hybrid search is budget-free: its values are walk lengths 0..m <= 16.

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
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, pairwise
from typing import Iterable, Sequence


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


@lru_cache(maxsize=16)  # a hybrid solve searches one N per chain size, at most 5
def _stage_costs(N: int) -> list[int]:
    """Charged cost of one stage for every possible t, indexed by t."""
    return [0] + [grover_stage_cost(N, t) for t in range(1, N + 1)]


@lru_cache(maxsize=1024)
def _free_classes(N: int, budget_constant: float) -> int:
    """The most value classes a search over N values can have and still be
    budget-free: no trajectory can meet the budget even with the classes
    below the top at the costliest starts t = 1, 2, ... (a stage's cost falls
    as t grows).  A nan budget stops no stage."""
    budget = budget_constant * math.ceil(math.sqrt(N))
    return sum(1 for total in accumulate(_stage_costs(N)[1:N], initial=1) if not total > budget)


@lru_cache(maxsize=128)  # about 60 kB; a miss rebuilds one table, about 10 us
def _binomial_cdf(n: int, x: int, e: int) -> array:
    """The CDF of Binomial(n, x/e), x/e <= 1/2, at 0..n-1; its terms are
    taken from their logs, so that none underflows, whatever n."""
    step = math.log(x / (e - x))
    logs = accumulate((step + math.log((n - k) / (k + 1)) for k in range(n - 1)),
                      initial=n * math.log((e - x) / e))
    return array("d", accumulate(map(math.exp, logs)))


def _sampled_charge(ends: Iterable[int], costs: list[int], repeats: int, rnd) -> int:
    """A budget-free search's charge past its trajectories' first samples,
    from its class ends e_k, best first, and stage costs by t.  A trajectory
    visits class k (start t_k = e_(k-1)) with probability (e_k - t_k)/e_k,
    independently of the others (Durr and Hoyer's lemma over tie classes), so
    it charges cost(N, t_k) * K_k, K_k ~ Binomial(repeats, (e_k - t_k)/e_k).
    Draw order: one rnd() per class below the top, best first; K_k is the
    inverse CDF there of the visits, or of the misses if those are rarer."""
    total = 0
    for t, e in pairwise(ends):
        rare = e - t if e - t <= t else t
        k = bisect_right(_binomial_cdf(repeats, rare, e), rnd())
        total += costs[t] * (k if rare == e - t else repeats - k)
    return total


def boosted(values: Sequence, repeats: int, rnd, budget_constant: float) -> tuple:
    """Bounded-error search: `repeats` threshold-search trajectories over one
    sequence of mutually comparable values, `rnd` a bound `Random.random`
    method.  Returns (value, witness_index, charged_total).  One-sided error
    makes boosting safe: a repeat can only improve the value, and repeats=1
    is a single Durr-Hoyer run.

    A budget-free search over its classes is sampled.  Any other walks its
    trajectories on disjoint segments of the stream, and returns the first
    outcome of the best value: each walks ranks of the descending order (ties
    by index), a uniform first sample, then stages that jump uniformly into
    the strictly-better prefix at that stage's cost, until one would overrun
    the budget.  A draw int(rnd() * t) needs no clamp below t: random() <=
    1 - 2**-53, and int((1 - 2**-53) * t) < t for every t below 2**53.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not len(values):
        raise ValueError("search needs at least one value")
    # The classes: their values, best first, and starts (strictly-better counts t).
    asc = sorted(values)
    N = hi = len(asc)
    if len(set(asc)) == N:  # a class per value, with no bisection
        tops, starts = asc[::-1], range(N)
    else:
        starts = []
        while hi:
            starts.append(N - hi)
            hi = bisect_left(asc, asc[hi - 1], 0, hi)
        tops = [asc[~t] for t in starts]
    costs = _stage_costs(N)
    if len(starts) <= _free_classes(N, budget_constant):
        charged = repeats + _sampled_charge((*starts[1:], N), costs, repeats, rnd)
        return tops[0], values.index(tops[0]), charged
    # Per rank of the descending order, its class start.
    greater = starts if len(starts) == N else [
        t for t, end in zip(starts, (*starts[1:], N)) for _ in range(end - t)]
    budget, total, best_t = budget_constant * math.ceil(math.sqrt(N)), repeats, N
    for _ in range(repeats):
        r = int(rnd() * N)
        charged, t = 1, greater[r]
        while t and charged + costs[t] <= budget:
            charged += costs[t]
            r = int(rnd() * t)
            t = greater[r]
        total += charged - 1
        if t < best_t:  # a better class starts earlier (N starts none)
            best, best_t = r, t
    # The winner is the j-th occurrence of its value, j its rank in its class.
    val = tops[starts.index(best_t)]
    index = values.index(val)
    for _ in range(best - best_t):
        index = values.index(val, index + 1)
    return values[index], index, total
