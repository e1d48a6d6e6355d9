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
distribution.  At the default budget_constant 23 every hybrid search is
budget-free: its values are walk lengths 0..m <= 16.  A search is set up
once per value array (`_plan`) and run per call (`_run`).

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


def _plan(values: Sequence, repeats: int, budget_constant: float) -> tuple:
    """A search's set-up, once per value array, for `repeats` trajectories
    at `budget_constant`: (top, base, draws, walk), which `_run` runs.  A
    budget-free search is sampled (`walk` is None): a trajectory visits class
    k (start t_k = e_(k-1), end e_k) with probability p_k = (e_k - t_k)/e_k,
    independently of the others (Durr and Hoyer's lemma over tie classes), so
    the charge past the first samples is base + the sum over `draws`, one
    (cdf, step) per class below the top, best first, of step * K, K =
    bisect_right(cdf, rnd()) ~ Binomial(repeats, p_k) (or its misses, step <
    0, if rarer).  Any other search walks: `walk` holds the classes' values,
    best first, starts (strictly-better counts t), each rank's class start,
    the budget and the stage costs by t."""
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
        draws = tuple((_binomial_cdf(repeats, min(e - t, t), e), costs[t] if e - t <= t else -costs[t])
                      for t, e in pairwise((*starts[1:], N)))
        return tops[0], -repeats * sum(min(step, 0) for _, step in draws), draws, None
    greater = starts if len(starts) == N else [
        t for t, end in zip(starts, (*starts[1:], N)) for _ in range(end - t)]
    return tops[0], 0, (), (tops, starts, greater, budget_constant * math.ceil(math.sqrt(N)), costs)


def _run(plan: tuple, repeats: int, rnd) -> tuple:
    """`_plan`'s search, planned for these repeats, on the stream: (value, j,
    charged), won by the value's occurrence j after its first (a sampled one
    by the top's first).  Walked trajectories use disjoint segments of the
    stream; each walks ranks of the descending order (ties by index), a
    uniform first sample, then stages that jump uniformly into the
    strictly-better prefix at that stage's cost, until one would overrun the
    budget; the first outcome of the best value wins.  A draw int(rnd() * t)
    needs no clamp: random() <= 1 - 2**-53, and int((1 - 2**-53) * t) < t
    for every t below 2**53."""
    top, base, draws, walk = plan
    if walk is None:
        for cdf, step in draws:
            base += step * bisect_right(cdf, rnd())
        return top, 0, repeats + base
    tops, starts, greater, budget, costs = walk
    N = best_t = len(greater)
    for _ in range(repeats):
        r = int(rnd() * N)
        charged, t = 1, greater[r]
        while t and charged + costs[t] <= budget:
            charged += costs[t]
            r = int(rnd() * t)
            t = greater[r]
        base += charged - 1
        if t < best_t:  # a better class starts earlier (N starts none)
            best, best_t = r, t
    return tops[starts.index(best_t)], best - best_t, repeats + base


def boosted(values: Sequence, repeats: int, rnd, budget_constant: float) -> tuple:
    """Bounded-error search: `repeats` threshold-search trajectories over one
    sequence of mutually comparable values, `rnd` a bound `Random.random`
    method.  Returns (value, witness_index, charged_total).  One-sided error
    makes boosting safe: a repeat can only improve the value, and repeats=1
    is a single Durr-Hoyer run.  A budget-free search is sampled, any other
    walked (`_plan`, `_run`).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not len(values):
        raise ValueError("search needs at least one value")
    val, j, charged = _run(_plan(values, repeats, budget_constant), repeats, rnd)
    index = values.index(val)
    for _ in range(j):
        index = values.index(val, index + 1)
    return values[index], index, charged
