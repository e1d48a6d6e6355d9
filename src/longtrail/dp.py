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
memoizes L(S, a, b), `reconstruct_arc` rebuilds its walk.  The edge-level
view, the 4 arc-pair slots of edges (v, u), is `DpTable.cell` over the rows.

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
exact, so the trail rebuild and the hybrid's layer are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

from .bruteforce import OracleResult
from .graphs import (
    Graph, ParityBound, bits_of, check_edge_budget, edge_set, rank_in, validate_trail
)

FULL_DP_MAX_EDGES = 20
# Single-edge cells by arc count: slots 0 and, for a non-loop, 3 hold 1.
_SINGLE_EDGE = {1: b"\x01\x00\x00\x00", 2: b"\x01\x00\x00\x01"}


class CapacityError(MemoryError):
    """Raised when a precompute layer would exceed the entry budget."""


class TableLookupError(KeyError):
    """Raised when a required table entry is absent."""


@dataclass(frozen=True)
class LayerSpec:
    """Precompute layer: all states with |S| <= k_pre are tabulated."""

    k_pre: int = 1

    @classmethod
    def for_graph(cls, m: int, alpha: float = 0.055) -> "LayerSpec":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if m < 1:
            raise ValueError("layer needs at least one edge")
        quarter = ((m + 1) // 2 + 1) // 2  # ceil(ceil(m/2)/2)
        k = math.ceil((1.0 - alpha) * quarter)
        # Sets of size 2 cannot shrink under the pivot split, so the layer
        # must reach at least 2 whenever the graph has that many edges.
        k = max(k, min(m, 2))
        return cls(min(k, m))


class DpTable:
    """Memo table for L(S, a, b) with predecessor witnesses.

    `entries` is the DP's per-arc memo: a packed (S, a, b) key maps to
    (length | None, predecessor arc).  After `precompute_layer` it holds
    every state (S, a, b) with 2 <= |S| <= k_pre and a, b on distinct edges.

    `rows` is the hybrid's state memo: per edge set S, a list indexed by
    rank(v) * |S| + rank(u) (e's rank: its position among S's edges) of the
    cells of (S, v, u): 4 bytes, byte i*2 + j = L(S, arc(v, i), arc(u, j)),
    0 for "no walk"; None marks a cell not filled yet.  A row is exactly its
    |S|^2 cells, the diagonal holding single-edge cells.  Padding contract: a
    loop has only orientation 0, so slots i = 1 of a loop v and j = 1 of a
    loop u hold 0.  `precompute_layer` fills the rows of 2 <= |S| <= k_pre; the
    hybrid fills those of its chain's sizes.  Equal cells are one object, the
    one `cells` maps them to.
    """

    def __init__(self, g: Graph, k_pre: int = 0):
        self.g = g
        self.k_pre = k_pre
        self._A = max(2 * g.edge_count, 1)
        self.entries: dict[int, tuple[int | None, int | None]] = {}
        self.rows: dict[int, list] = {}
        self._single = [_SINGLE_EDGE[n] for n in g.arc_count]
        self.cells: dict[bytes, bytes] = {}

    def pack(self, S: int, a: int, b: int) -> int:
        return (S * self._A + a) * self._A + b

    def __len__(self) -> int:
        return len(self.entries)

    def row(self, S: int) -> list:
        """The memo row of S, its |S|^2 cells, made on first use."""
        row = self.rows.get(S)
        if row is None:
            size = S.bit_count()
            row = self.rows[S] = [None] * (size * size)
            row[::size + 1] = [self._single[e] for e in bits_of(S)]
        return row

    def cell(self, S: int, v: int, u: int) -> tuple[int, ...] | None:
        """The 4 slots of (S, v, u) for edges v, u of S, 0 for "no walk";
        None if the state is not solved."""
        row = self.rows.get(S)
        cell = row and row[rank_in(S, v) * S.bit_count() + rank_in(S, u)]
        return None if cell is None else tuple(cell)


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


def estimate_layer_entries(m: int, k_pre: int) -> int:
    return sum(math.comb(m, k) * (2 * k) ** 2 for k in range(1, k_pre + 1))


def precompute_layer(
    g: Graph, spec: LayerSpec, *, entry_budget: int = 1 << 28
) -> DpTable:
    """Tabulate L(S, a, b) for every S with |S| <= spec.k_pre.

    Sweeps each cardinality in deterministic lexicographic order, so the
    table is complete for the whole layer, not only for states the largest
    sets happen to reach, and writes each set's memo row as it goes.
    Singleton states stay implicit.  Fails fast when the projected entry
    count exceeds the budget.
    """
    m = g.edge_count
    if m < 1:
        raise ValueError("precompute needs at least one edge")
    if not 1 <= spec.k_pre <= m:
        raise ValueError(f"k_pre must lie in [1, {m}], got {spec.k_pre}")
    est = estimate_layer_entries(m, spec.k_pre)
    if est > entry_budget:
        raise CapacityError(
            f"layer k_pre={spec.k_pre} needs about {est} entries, "
            f"budget is {entry_budget}"
        )
    table = DpTable(g, spec.k_pre)
    for k in range(2, spec.k_pre + 1):
        for combo in combinations(range(m), k):
            S = edge_set(combo)
            row = table.row(S)
            for (i, v), (j, u) in permutations(enumerate(combo), 2):
                cell = [0, 0, 0, 0]
                for ai, a in enumerate(g.arcs_of(v)):
                    for bi, b in enumerate(g.arcs_of(u)):
                        cell[ai * 2 + bi] = get_len_arc(g, S, a, b, table) or 0
                cell = bytes(cell)
                row[i * k + j] = table.cells.setdefault(cell, cell)
    return table


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
