"""Subset dynamic programming over (edge set, first arc, last arc) states.

The state value L(S, a, b) is the length of the longest edge-simple walk that
uses only edges from the bitmask S, whose first traversed arc is a and whose
last traversed arc is b, or None when no such walk exists.  Tracking arcs
rather than bare edge ids is what makes the recursion sound: extending a walk
by an edge requires that edge to attach at the walk's actual head vertex, not
merely at either endpoint of the walk's last edge.  (With bare edge ids the
three edges of a star would combine into a "walk" of length 3.)

Recurrence, peeling the last arc b with tail vertex p:

    L(S, a, b) = 1 + max over arcs c with head p, edge(c) in S minus edge(b),
                 of L(S \\ {edge(b)}, a, c)

with L(S, a, a) = 1 whenever edge(a) is in S, and None when first and last
edge coincide but the arcs differ.  The winning predecessor arc is memoized
per state so any stored walk can be rebuilt by chaining.

The per-arc functions are the DP's interface: `get_len_arc` computes and
memoizes L(S, a, b) in `DpTable.entries`, `reconstruct_arc` rebuilds its
walk.

`full_dp_longest_trail` maximises L(E, a, b) over every pair of arcs on
distinct edges, and most of those pairs cannot win.  A trail from tail(a) to
head(b) leaves behind the rest of its component, whose odd-degree vertices
are the component's odd set with both end vertices toggled; each leftover
edge covers at most two of them, so

    L(E, a, b) <= |E_c| - |odd(E_c) sym-diff {tail(a), head(b)}| / 2

(`graphs.ParityBound`), and L is None across components.  The pair loop
skips a pair whose bound is at most the best length found so far, before
any state of it is computed.  The loop replaces its incumbent only on a
strictly greater value, so a skipped pair could never have become the
incumbent, and the first maximiser in loop order, with its trail, is the
one the unpruned loop finds.  Every memo entry that is computed is still
exact, so the trail rebuild is untouched.
"""

from __future__ import annotations

from .bruteforce import OracleResult
from .graphs import Graph, ParityBound, check_edge_budget, validate_trail

FULL_DP_MAX_EDGES = 20


class TableLookupError(KeyError):
    """Raised when a required table entry is absent."""


class DpTable:
    """The DP's memo: a packed (S, a, b) key maps to (length | None,
    predecessor arc), for a, b on distinct edges of S."""

    def __init__(self, g: Graph):
        self._A = max(2 * g.edge_count, 1)
        self.entries: dict[int, tuple[int | None, int | None]] = {}

    def pack(self, S: int, a: int, b: int) -> int:
        return (S * self._A + a) * self._A + b


def get_len_arc(g: Graph, S: int, a: int, b: int, table: DpTable) -> int | None:
    """Memoized L(S, a, b); fills the table with every state it touches."""
    ea, eb = a >> 1, b >> 1
    if not (S >> ea & 1 and S >> eb & 1):
        return None
    if ea == eb:
        return 1 if a == b else None
    entries = table.entries
    key = table.pack(S, a, b)
    hit = entries.get(key)
    if hit is not None:
        return hit[0]
    S2 = S & ~(1 << eb)
    best: int | None = None
    pred: int | None = None
    for c in g.arcs_before[b]:
        if not S2 >> (c >> 1) & 1:
            continue
        sub = get_len_arc(g, S2, a, c, table)
        if sub is not None and (best is None or sub + 1 > best):
            best = sub + 1
            pred = c
    entries[key] = (best, pred)
    return best


def full_dp_longest_trail(g: Graph) -> OracleResult:
    """Exact longest trail via the full subset DP (all states on demand)."""
    m = g.edge_count
    check_edge_budget(m, FULL_DP_MAX_EDGES, "full DP")
    if m == 0:
        return OracleResult(0, ())
    table = DpTable(g)
    bound = ParityBound(g)
    E = g.full_edge_set
    best = 0
    best_arcs: tuple[int, int] | None = None
    for v in range(m):
        for a in g.arcs_of(v):
            start = g.arc_tail(a)
            for u in range(m):
                if u == v:
                    continue
                for b in g.arcs_of(u):
                    if bound.between(start, g.arc_head(b)) <= best:
                        continue
                    val = get_len_arc(g, E, a, b, table)
                    if val is not None and val > best:
                        best = val
                        best_arcs = (a, b)
    if best_arcs is None:
        # No two-edge walk anywhere; any single edge is a longest trail.
        return OracleResult(1, (0,))
    trail = reconstruct_arc(table, E, best_arcs[0], best_arcs[1])
    verdict = validate_trail(g, trail)
    if not verdict.ok or len(trail) != best:
        raise AssertionError(f"DP produced an invalid trail: {verdict.reason}")
    return OracleResult(best, tuple(trail))


def reconstruct_arc(table: DpTable, S: int, a: int, b: int) -> list[int]:
    """Rebuild the stored walk for state (S, a, b) by predecessor chaining."""
    seq: list[int] = []
    cur_S, cur_b = S, b
    while True:
        ea, eb = a >> 1, cur_b >> 1
        if ea == eb:
            if cur_b != a:
                raise TableLookupError("chain ended on mismatched arcs")
            seq.append(ea)
            break
        hit = table.entries.get(table.pack(cur_S, a, cur_b))
        if hit is None or hit[0] is None:
            raise TableLookupError(
                f"no stored walk for state (S={cur_S:#x}, a={a}, b={cur_b})"
            )
        seq.append(eb)
        cur_S &= ~(1 << eb)
        cur_b = hit[1]
    seq.reverse()
    return seq
