"""A reference `boosted`, for tests: the search's sorting body, which walks
a stable descending sort of the indexes.  `qmax.boosted` must return what
this returns and leave the stream where this leaves it."""

import math

from longtrail.qmax import grover_stage_cost


def sorted_boosted(values, repeats, rnd, budget_constant):
    N = len(values)
    first = values[0]
    if values.count(first) == N:
        r = min(int(rnd() * N), N - 1)
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
    best_rank, best_val, total = -1, first, 0
    for _ in range(repeats):
        r = min(int(rnd() * N), N - 1)
        charged = 1
        t = greater[r]
        while t:
            cost = grover_stage_cost(N, t)
            if charged + cost > budget:
                break
            charged += cost
            r = min(int(rnd() * t), t - 1)
            t = greater[r]
        total += charged
        if best_rank < 0 or svals[r] > best_val:
            best_rank, best_val = r, svals[r]
    return best_val, order[best_rank], total
