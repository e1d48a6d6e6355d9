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

Values may be ints or None; None means "no walk here" and compares below
everything, so an invalid candidate can never win a maximization.

Charged queries follow the model above, not the simulator's own bookkeeping
sweeps: the simulator inspects the whole value sequence to compute the t
counts, the way any classical driver of the model must, while the ledger
records what the idealized quantum search would have paid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

_NEG_INF = float("-inf")


@dataclass
class QueryLedger:
    """Per-recursion-level counts of charged oracle queries."""

    per_level: dict[str, int] = field(default_factory=dict)

    def charge(self, level: int | str, count: int) -> None:
        if count < 0:
            raise ValueError("cannot charge a negative query count")
        key = level if isinstance(level, str) else f"level{level}"
        self.per_level[key] = self.per_level.get(key, 0) + count

    @property
    def total(self) -> int:
        return sum(self.per_level.values())

    def as_dict(self) -> dict:
        return {"total": self.total, "per_level": dict(sorted(self.per_level.items()))}


@dataclass(frozen=True)
class QmaxOutcome:
    value: int | None
    witness_index: int | None
    queries_charged: int


class ValueOracle:
    """Indexed value sequence that a maximum-finding search runs over; None
    marks an index with no value."""

    def __init__(self, values: Sequence):
        if len(values) < 1:
            raise ValueError("oracle needs at least one value")
        self.values = values

    @classmethod
    def from_values(cls, values: Sequence) -> "ValueOracle":
        return cls(values)


def grover_stage_cost(N: int, t: int) -> int:
    """Charged cost of one idealized Grover search with t of N items marked."""
    if not 1 <= t <= N:
        raise ValueError(f"need 1 <= t <= N, got t={t}, N={N}")
    return math.ceil(math.pi / 4.0 * math.sqrt(N / t))


def qmax_exhaustive(
    oracle: ValueOracle, ledger: QueryLedger, *, level: int | str = 0
) -> QmaxOutcome:
    """Deterministic reference mode: evaluate everything, charge N queries."""
    val, idx, charged = _exhaustive(_comparable(oracle.values))
    ledger.charge(level, charged)
    if val == _NEG_INF:
        return QmaxOutcome(None, None, charged)
    return QmaxOutcome(val, idx, charged)


def _comparable(values: Sequence) -> Sequence:
    """The oracle's values as a list of mutually comparable items: numpy
    arrays become plain ints (which sort faster) and None becomes -inf."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    if None in values:
        return [_NEG_INF if v is None else v for v in values]
    return values


def _exhaustive(values: Sequence):
    """Core of the deterministic search, shared by the public entry point and
    the hybrid solver: (best value, its first index, N queries charged)."""
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


def _boosted(values: list, repeats: int, rnd, budget_constant: float):
    """Core of the stochastic search, shared by the public entry points and
    the hybrid solver: `repeats` threshold-search trajectories over one list
    of mutually comparable values.

    `rnd` is a bound `Random.random` method; repeats consume disjoint
    segments of that stream.  Returns (value, witness_index, charged_total)
    for the first outcome attaining the best value sampled.  The caller
    decides whether that value means "nothing found".

    The trajectory walks ranks of the descending value order: the initial
    uniform index sample is taken directly in rank space (a bijection of
    index space), each stage jumps uniformly into the strictly-better prefix
    and charges the modeled Grover cost for its size, and a stage whose cost
    would overrun the query budget aborts the run with the current (genuine,
    possibly non-maximal) element.
    """
    N = len(values)
    first = values[0]
    if values.count(first) == N:
        # No value beats any sample: each repeat draws its start and stops,
        # and the first repeat's index is the outcome.
        r = int(rnd() * N)
        if r >= N:
            r = N - 1
        for _ in range(repeats - 1):
            rnd()
        return first, r, repeats
    budget = budget_constant * math.ceil(math.sqrt(N))
    # Stable reverse sort: descending by value, ties by original index.
    order = sorted(range(N), key=values.__getitem__, reverse=True)
    svals = [values[i] for i in order]
    greater = [0] * N
    for r in range(1, N):
        greater[r] = greater[r - 1] if svals[r] == svals[r - 1] else r
    costs = _stage_costs(N)
    best_rank = -1
    best_val = first
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
    return best_val, order[best_rank], total


def qmax_durr_hoyer(
    oracle: ValueOracle,
    rng: random.Random,
    ledger: QueryLedger,
    *,
    level: int | str = 0,
    budget_constant: float = 23.0,
) -> QmaxOutcome:
    """One bounded-error maximum-finding run over the oracle's values."""
    return boosted_qmax(
        oracle, 1, rng, ledger, level=level, budget_constant=budget_constant
    )


def boosted_qmax(
    oracle: ValueOracle,
    repeats: int,
    rng: random.Random,
    ledger: QueryLedger,
    *,
    level: int | str = 0,
    budget_constant: float = 23.0,
) -> QmaxOutcome:
    """Repeat the bounded-error search and keep the best genuine element.

    One-sided error makes boosting safe: a repeat can only improve the
    value.  With repeats=1 this draws and returns exactly what a single
    `qmax_durr_hoyer` run on the same stream would.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    values = _comparable(oracle.values)
    val, idx, charged = _boosted(values, repeats, rng.random, budget_constant)
    ledger.charge(level, charged)
    if val == _NEG_INF:
        return QmaxOutcome(None, None, charged)
    return QmaxOutcome(val, idx, charged)
