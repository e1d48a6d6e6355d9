"""Hybrid solver: classical layer precompute plus nested maximum-finding.

Step 1 tabulates every L(S, a, b) with |S| <= k_pre, where k_pre is roughly
(1 - alpha) * m/4 (see LayerSpec).  Step 2 answers L(E, v, u) for every edge
pair through a recursion on subset splits: a state over S is maximized over
candidates (S', y) with first-edge membership v in S', |S'| = h about half of
|S|, and pivot edge y in S'; the candidate's value combines the half-walks
L(S', a, c) and L((S \\ S') | {y}, c, b) over the two orientations c of the
pivot.  Sharing the pivot *arc* between the halves is what keeps the
concatenation walkable.  The recursion bottoms out in table lookups once
|S| <= k_pre.

Each maximization runs through one query-counting search bound per run:
in deterministic mode the max and its first index with a charge of one
query per candidate, as `qmax.exhaustive` gives them (results provably equal
to the full DP), `qmax.boosted` threshold searches on the seeded stream in
stochastic mode.  States are solved once per run and memoized (with no
object per state, see DpTable), so stochastic references to a state share
one realization (re-running nested searches per reference is not simulable).

All states (S, v < u) with |S| on the full set's split chain are solved
bottom-up, smallest size first, so halves precede their states: sets in
`combinations` order, then pair rank, then slot, the order of the stochastic
stream.  A state's charges land in the QueryLedger under the depth at which
the depth-first recursion first reaches it (`_first_depths`).  Candidates
come from rank-space patterns (`_patterns`), built from one table of subsets
per (size, h) (`_RankTable`).  A chunk of sets lays each set's half rows end
to end, picks each rank pair's cells from them through the pattern's flat
indexes, and combines them as 8-bit lanes of ints (`_combine`); in
deterministic mode one fold of those lanes gives every set's maxima
(`_fold_maxima`).  A witness (S, first arc, last arc) is rebuilt by
chaining down to the layer.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import combinations, islice, repeat
from operator import add, iadd, itemgetter, mul
from typing import Callable, Optional, Sequence

from .dp import DpTable, LayerSpec, precompute_layer, reconstruct_arc
from .graphs import Graph, bits_of, check_edge_budget, edge_set, rank_in, validate_trail
from .qmax import QueryLedger, _shape, _trajectories

HYBRID_DET_MAX_EDGES = 20
HYBRID_STOCH_MAX_EDGES = 16

MODE_DETERMINISTIC = "deterministic"
MODE_STOCHASTIC = "stochastic"
_LEVELS = tuple(f"level{d}" for d in range(HYBRID_DET_MAX_EDGES))  # ledger keys; depth < m


@dataclass(frozen=True)
class HybridConfig:
    alpha: float = 0.055
    mode: str = MODE_DETERMINISTIC
    repeats_per_level: Optional[int] = None  # None resolves to 2m
    seed: int = 0
    budget_constant: float = 23.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.mode not in (MODE_DETERMINISTIC, MODE_STOCHASTIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.repeats_per_level is not None and self.repeats_per_level < 1:
            raise ValueError("repeats_per_level must be at least 1")
        if not self.budget_constant > 0:  # nan too: no stage would ever exceed the budget
            raise ValueError(f"budget_constant must be positive, got {self.budget_constant}")


# (S, first arc, last arc): the state whose stored walk realizes a value.
Witness = tuple[int, int, int]


@dataclass(frozen=True)
class SolveResult:
    length: int
    trail: tuple[int, ...]
    ledger: QueryLedger
    classical_entries: int


class SolveContext:
    """Per-run solver state: the table and its memo, the ledger, and the one
    search every maximization runs, (lanes, n, count) -> find (see
    `_exhaustive_chunk`): the fold of a chunk's lanes, or boosted trajectories
    on the seeded stream."""

    def __init__(self, g: Graph, cfg: HybridConfig, table: DpTable):
        self.graph = g
        self.table = table
        self.k_pre = table.k_pre
        self.ledger = QueryLedger()
        self.search = _exhaustive_chunk
        if cfg.mode == MODE_STOCHASTIC:
            repeats = cfg.repeats_per_level or max(1, 2 * g.edge_count)
            self.search = partial(_boosted_chunk, random.Random(cfg.seed), repeats, cfg.budget_constant, {})

    @classmethod
    def create(cls, g: Graph, cfg: HybridConfig) -> "SolveContext":
        layer = LayerSpec.for_graph(g.edge_count, cfg.alpha)
        table = precompute_layer(g, layer)
        return cls(g, cfg, table)


def _split_size(size: int, k_pre: int) -> int:
    """First-half cardinality: half of |S|, raised onto the table layer when
    halving would undershoot it, and capped so the split stays proper."""
    return min(max(size >> 1, 2, k_pre), size - 1)


def _subsets(edges: Sequence[int], k: int) -> list[int]:
    """The k-subsets of the edges as masks, in combinations order."""
    return list(map(sum, combinations([1 << p for p in edges], k)))


class _RankTable:
    """The h-subsets S' of `size` ranks in combinations order, which the
    patterns of (size, h) are read from: per subset its ranks and mask, and per
    member position p the index of T = (complement of S') | {member p} among
    the (size - h + 1)-subsets and (member - p) * t, the member's row offset
    in T; per rank, the subsets that hold it."""

    def __init__(self, size: int, h: int):
        t = size - h + 1
        self.h, self.t = h, t
        self.ranks = list(combinations(range(size), h))
        self.masks = _subsets(range(size), h)
        right = {mask: i for i, mask in enumerate(_subsets(range(size), t))}
        full = (1 << size) - 1
        self.tidx = [tuple([right[full ^ mask | 1 << r] for r in combo])
                     for combo, mask in zip(self.ranks, self.masks)]
        self.toff = [tuple([(r - p) * t for p, r in enumerate(combo)]) for combo in self.ranks]
        self.holders = [[] for _ in range(size)]
        for i, combo in enumerate(self.ranks):
            for r in combo:
                self.holders[r].append(i)
        # Per position q of lo: a block's member positions, lo's first.
        self.orders = [(q, *range(q), *range(q + 1, h)) for q in range(h)]
        self.pick = [itemgetter(*order) for order in self.orders]
        self.lslots = [tuple([q * h + p for p in order]) for q, order in enumerate(self.orders)]


def _build_pattern(table: _RankTable, rlo: int, rhi: int, ints: Optional[list] = None) -> tuple:
    """The split candidates (S', y) of a state (S, lo, hi) in rank space (ends
    at ranks rlo < rhi), as columns: S''s index among the h-subsets,
    T = (S \\ S') | {y}'s index among the (|S| - h + 1)-subsets, and y; then
    two itemgetters of the candidates' cells from a set's rows of h-, and of
    (|S| - h + 1)-subsets, laid end to end.  S' runs over the subsets holding
    lo; each is one candidate y = hi if it holds hi (other pivots strand hi),
    else a block y = lo, then the rest.  A cell's index there is
    sidx * h * h + lslot on the left (lslot is (lo, y)'s slot in S''s row of
    h * h cells) and tidx * t * t + rslot on the right (rslot is (y, hi)'s
    slot in T's row; a pattern has at least 3 candidates, so both getters
    return tuples).
    `ints`, if given, holds the getters' index objects, one per value."""
    h, t, ranks, masks, tidx, toff = table.h, table.t, table.ranks, table.masks, table.tidx, table.toff
    pick, lslots = table.pick, table.lslots
    # With q members below lo and c below hi, lo has position q in S'.  T
    # holds y, the non-members below it and hi, so the member y at position p
    # has (y, hi)'s slot at (y - p) * t + hi - c + (y < hi), and y < hi iff p < c.
    offsets = [[tuple([rhi - c + (p < c) for p in order]) for c in range(h + 1)]
               for order in table.orders]
    sidx, lslot, tid, rslot, prank = [], [], [], [], []
    lo_below, hi_bit = (1 << rlo) - 1, 1 << rhi
    for i in table.holders[rlo]:
        mask = masks[i]
        q, c = (mask & lo_below).bit_count(), (mask & hi_bit - 1).bit_count()
        if mask & hi_bit:
            sidx.append(i)
            lslot.append(q * h + c)
            tid.append(tidx[i][c])
            rslot.append((rhi - c) * (t + 1))
            prank.append(rhi)
        else:
            order = pick[q]
            sidx.extend(repeat(i, h))
            lslot.extend(lslots[q])
            tid.extend(order(tidx[i]))
            rslot.extend(map(add, order(toff[i]), offsets[q][c]))
            prank.extend(order(ranks[i]))
    flat_left = map(add, map(mul, sidx, repeat(h * h)), lslot)
    flat_right = map(add, map(mul, tid, repeat(t * t)), rslot)
    if ints is not None:
        flat_left, flat_right = map(ints.__getitem__, flat_left), map(ints.__getitem__, flat_right)
    return tuple(sidx), tuple(tid), tuple(prank), itemgetter(*flat_left), itemgetter(*flat_right)


_KEPT = HYBRID_DET_MAX_EDGES // 2 + 1  # the most edges of a set below the full one
_INTS: list[int] = []  # kept patterns' getter indexes: one int object per value, not per use


@lru_cache(maxsize=64)
def _kept_patterns(size: int, h: int) -> Callable[[int, int], tuple]:
    t = size - h + 1
    ends = math.comb(size, h) * h * h, math.comb(size, t) * t * t
    _INTS.extend(range(len(_INTS), max(ends)))
    return lru_cache(maxsize=None)(partial(_build_pattern, _RankTable(size, h), ints=_INTS))


def _patterns(size: int, h: int) -> Callable[[int, int], tuple]:
    """(rlo, rhi) -> `_build_pattern` of sets of `size` edges split at h, from
    one `_RankTable`.  Up to _KEPT edges the table and its patterns are kept
    for the process: they recur across states and solves.  A larger full
    set's serve the caller (one solve or walk) and each pattern one use; its
    table grows towards 20 edges, where keeping it would cost most."""
    if size <= _KEPT:
        return _kept_patterns(size, h)
    return partial(_build_pattern, _RankTable(size, h))


@lru_cache(maxsize=64)
def _lane_masks(n: int) -> tuple[int, ...]:
    """`_combine`'s masks over n bytes: 0x80 and 0x7F in every lane, then the
    lanes of slots 0 and 2, and of slots 0 and 1, in every cell."""
    cells = int.from_bytes(b"\x01\x00\x00\x00" * (n >> 2), "little")
    return cells * 0x80808080, cells * 0x7F7F7F7F, cells * 0xFF00FF, cells * 0xFFFF


def _lane_max(x: int, y: int, high: int) -> int:
    """The lane-wise max of two ints of 8-bit lanes <= 0x7F (`high` holds
    0x80 in every lane): (x | 0x80) - y is 0x80 + x - y per lane, borrow-free,
    so its bit 7 is set iff x >= y, and then its low 7 bits are x - y."""
    d = (x | high) - y
    ge = d & high
    return y + (d & ge - (ge >> 7))


def _combine(left: bytes, right: bytes) -> int:
    """Per candidate k and slot a*2 + b, in byte 4k + a*2 + b of the
    little-endian int returned, the max over the pivot orientation c of
    left[a, c] + right[c, b] - 1, or 0 where no c pairs two walks; `left`
    and `right` are the candidates' cells end to end.

    SWAR: each side is one little-endian int, one 8-bit lane per slot.  Lanes
    stay <= 2 * the edge cap <= 0x7F: adds never carry, and + 0x7F sets bit 7
    iff a lane is nonzero.
    """
    high, lift, even, low = _lane_masks(len(left))
    left_int, right_int = int.from_bytes(left, "little"), int.from_bytes(right, "little")
    pair = []
    for c in (0, 1):
        # Into lane a*2 + b: left[a, c] (slots c, 2 + c) and right[c, b].
        x = (left_int >> 8 * c & even) * 0x101
        y = (right_int >> 16 * c & low) * 0x10001
        both = ((x + lift) & (y + lift) & high) >> 7
        pair.append(((x + y) & both * 0xFF) - both)
    return _lane_max(*pair, high)


def _fold_maxima(lanes: int, n: int, high: int) -> int:
    """A sparse-table fold of `_combine`'s lanes over runs of n candidates:
    after the step against the int shifted down by 2**j candidates, byte
    4k + slot holds the max over candidates k .. k + 2**(j + 1) - 1 (those
    past the end read 0), and a last step shifted by n - 2**j, for the
    largest 2**j <= n, covers k .. k + n - 1 exactly.  With n candidates per
    set, byte 4*i*n + slot then holds set i's max in that slot."""
    span = 1
    while 2 * span <= n:
        lanes = _lane_max(lanes, lanes >> 32 * span, high)
        span *= 2
    if span < n:
        lanes = _lane_max(lanes, lanes >> 32 * (n - span), high)
    return lanes


def _slot_lanes(lanes: int, size: int) -> list[bytes]:
    """`_combine`'s lanes of `size` bytes as bytes, one per slot."""
    flat = lanes.to_bytes(size, "little")
    return [flat[slot::4] for slot in range(4)]


def _exhaustive_chunk(lanes: int, n: int, count: int) -> Callable:
    """The deterministic search of `count` sets' lanes, n candidates each:
    find(i, slots, winners, at) returns set i's cell and its charge, n per
    searched slot, and writes each searched slot's winner, the first index
    of a nonzero max, to winners[at + slot], as `qmax.exhaustive` finds
    them.  Slots not searched hold 0 in every lane (the padding contract)."""
    size = 4 * n * count
    maxima = _fold_maxima(lanes, n, _lane_masks(size)[0]).to_bytes(size, "little")
    cells = [maxima[at:at + 4] for at in range(0, size, 4 * n)]
    per_slot = _slot_lanes(lanes, size)

    def find(i: int, slots: list, winners, at: int) -> tuple[bytes, int]:
        cell, start = cells[i], i * n
        for slot in slots:
            if val := cell[slot]:
                winners[at + slot] = per_slot[slot].index(val, start) - start
        return cell, n * len(slots)
    return find


def _boosted_chunk(stream: random.Random, repeats: int, budget_constant: float, memo: dict,
                   lanes: int, n: int, count: int) -> Callable:
    """`_exhaustive_chunk`'s find with `qmax.boosted`'s search per searched
    slot, in slot order, on `stream`.  `memo` keeps one chain size's
    `qmax._shape`s per value bytes, and no lone set's: those rarely recur."""
    per_slot = _slot_lanes(lanes, 4 * n * count)
    if n not in memo:
        memo.clear()
    shapes, keep, rnd = memo.setdefault(n, {}), count > 1, stream.random

    def find(i: int, slots: list, winners, at: int) -> tuple[bytes, int]:
        vals, total = bytearray(4), 0
        for slot in slots:
            values = per_slot[slot][i * n:(i + 1) * n]
            if (shape := shapes.get(values)) is None:
                shape = _shape(values, budget_constant, shapes if keep else {})
                if keep:
                    shapes[values] = shape
            val, idx, charged = _trajectories(values, shape, repeats, rnd)
            total += charged
            if val:
                vals[slot], winners[at + slot] = val, idx
        return bytes(vals), total
    return find


# By endpoint arc counts: the slots searched (orientations both have; the rest
# stay 0) and the reversed cell's slot order (non-loop end edges flip).
_ORIENT = {
    (a, b): (
        [i * 2 + j for i in range(a) for j in range(b)],
        itemgetter(*(((d & 1) ^ (a - 1)) * 2 + ((d >> 1) ^ (b - 1)) for d in range(4))),
    )
    for a in (1, 2)
    for b in (1, 2)
}


@lru_cache(maxsize=64)
def _split_chain(m: int, k_pre: int) -> dict[int, tuple[int, ...]]:
    """Each set size above the layer that splitting m edges reaches, smallest
    first, with the recursion depths it sits at."""
    depths: dict[int, set[int]] = {}
    todo = [(m, 0)]
    for size, depth in todo:  # grows as it goes
        if size > k_pre:
            depths.setdefault(size, set()).add(depth)
            h = _split_size(size, k_pre)
            todo += [(h, depth + 1), (size - h + 1, depth + 1)]
    return {size: tuple(sorted(depths[size])) for size in sorted(depths)}


@lru_cache(maxsize=64)
def _first_depths(m: int, k_pre: int) -> dict[int, int]:
    """Per state (S, v, u), keyed S << m | 1 << v | 1 << u, the depth where the
    depth-first recursion (the full set's pairs v < u in order, then each
    state's candidates, left half first) first reaches it: (m, k_pre) fix it."""
    first: dict[int, int] = {}
    subsets: dict[int, tuple] = {}
    sizes = _split_chain(m, k_pre)
    patterns = {size: _patterns(size, _split_size(size, k_pre)) for size in sizes}

    def visit(S: int, lo: int, hi: int, depth: int) -> None:
        lo, hi = min(lo, hi), max(lo, hi)
        size = S.bit_count()
        h = _split_size(size, k_pre)
        if S not in subsets:  # no list of halves on the layer: none is visited
            bits = list(bits_of(S))
            subsets[S] = bits, *(k > k_pre and _subsets(bits, k) for k in (h, size - h + 1))
        bits, lefts, rights = subsets[S]
        sidx, tidx, prank = patterns[size](rank_in(S, lo), rank_in(S, hi))[:3]
        for i, j, y in zip(sidx, tidx, map(bits.__getitem__, prank)):
            if lefts and y != lo and (key := lefts[i] << m | 1 << lo | 1 << y) not in first:
                first[key] = depth + 1
                visit(lefts[i], lo, y, depth + 1)
            if rights and y != hi and (key := rights[j] << m | 1 << y | 1 << hi) not in first:
                first[key] = depth + 1
                visit(rights[j], y, hi, depth + 1)

    for v, u in combinations(range(m), 2):
        visit((1 << m) - 1, v, u, 0)
    del visit  # the closure refers to itself: free `first` and `subsets` now, not at a gc
    # Keep the sizes at several depths.
    return {key: d for key, d in first.items() if len(sizes[(key >> m).bit_count()]) > 1}


_CHUNK = 32  # sets per batched gather and combine; the search order ignores it


def _solve_chain(ctx: SolveContext) -> None:
    """Search every state of the split chain's sizes: smallest size first, then
    sets in `combinations(range(m), size)` order, pair rank and slot.  A chunk
    of sets gathers and combines each rank pair's candidates at once."""
    g, table, k_pre, m = ctx.graph, ctx.table, ctx.k_pre, ctx.graph.edge_count
    chain_sizes = _split_chain(m, k_pre)
    first = _first_depths(m, k_pre) if any(len(d) > 1 for d in chain_sizes.values()) else {}
    rows, charges, arc_count = table.rows, ctx.ledger.per_level, g.arc_count
    intern = table.cells.setdefault
    # Per orientation, each cell met with its reversed cell, both interned.
    orient = {key: (slots, transpose, {}) for key, (slots, transpose) in _ORIENT.items()}
    for size, depths in chain_sizes.items():
        h = _split_size(size, k_pre)
        pattern = _patterns(size, h)
        pairs = [(rlo, rhi) for rhi in range(1, size) for rlo in range(rhi)]
        sets = combinations(range(m), size)
        while chunk := list(islice(sets, _CHUNK)):
            # Per set, the rows of its h- and of its (size - h + 1)-subsets
            # end to end, which the patterns' getters index; per pair, all
            # the chunk's cells at once.
            lefts, rights = (
                [reduce(iadd, map(rows.__getitem__, _subsets(bits, k)), []) for bits in chunk]
                for k in (h, size - h + 1))
            finds = []
            for rlo, rhi in pairs:
                pick_left, pick_right = pattern(rlo, rhi)[3:]
                left = b"".join(map(b"".join, map(pick_left, lefts)))
                right = b"".join(map(b"".join, map(pick_right, rights)))
                n = len(left) // (4 * len(chunk))  # candidates per state
                finds.append(ctx.search(_combine(left, right), n, len(chunk)))
            for i, bits in enumerate(chunk):
                S = edge_set(bits)
                row, winners = table.row(S), table.splits[S]
                levels = [first[S << m | 1 << bits[rlo] | 1 << bits[rhi]]
                          for rlo, rhi in pairs] if len(depths) > 1 else depths * len(pairs)
                for pair, ((rlo, rhi), find) in enumerate(zip(pairs, finds)):
                    slots, transpose, known = orient[arc_count[bits[rlo]], arc_count[bits[rhi]]]
                    cell, total = find(i, slots, winners, pair * 4)
                    key = _LEVELS[levels[pair]]
                    charges[key] = charges.get(key, 0) + total
                    ends = known.get(cell)
                    if ends is None:
                        back = bytes(transpose(cell))
                        ends = known[cell] = intern(cell, cell), intern(back, back)
                    row[rlo * size + rhi], row[rhi * size + rlo] = ends


def solve_recursive(
    ctx: SolveContext, S: int, v: int, u: int, level: int = 0
) -> tuple[int | None, Witness | None]:
    """L(S, v, u) read from the memo, with its witness state; None if v or u
    is not in S.  The first set above the layer runs `_solve_chain` (`level`
    is unused); a set neither on the layer nor of a chain size is a ValueError."""
    if not (S >> v & 1 and S >> u & 1):
        return None, None
    if v == u:
        return 1, (S, 2 * v, 2 * v)
    size = S.bit_count()
    if S not in ctx.table.rows:
        sizes = list(_split_chain(m := ctx.graph.edge_count, ctx.k_pre))
        if size not in sizes or S >> m:
            raise ValueError(f"set {S:#x} is neither on the layer nor of a chain size {sizes}")
        _solve_chain(ctx)
    cell = ctx.table.rows[S][rank_in(S, v) * size + rank_in(S, u)]
    best = max(cell)
    if not best:
        return None, None
    slot = cell.index(best)
    return best, (S, 2 * v + (slot >> 1), 2 * u + (slot & 1))


def reconstruct_from_witness(w: Witness, table: DpTable) -> list[int]:
    """Rebuild the walk of the witness state (S, first arc, last arc)."""
    S, a, b = w
    g = table.g
    v, u = a >> 1, b >> 1
    if v == u:
        return [v]
    size = S.bit_count()
    if size <= table.k_pre:
        return reconstruct_arc(table, S, a, b)
    if v > u:
        forward = (S, g.reverse_arc(b), g.reverse_arc(a))
        return reconstruct_from_witness(forward, table)[::-1]
    ai, bi, rank_v, rank_u = a & 1, b & 1, rank_in(S, v), rank_in(S, u)
    k = table.splits[S][(rank_u * (rank_u - 1) // 2 + rank_v) * 4 + ai * 2 + bi]
    h = _split_size(size, table.k_pre)
    # The winner's S' and pivot y, in `_build_pattern`'s order: S' runs over
    # the h-subsets holding v, each one candidate (y = u) if it holds u, else
    # h (y = v, then S''s other edges).
    for rest in combinations([e for e in bits_of(S) if e != v], h - 1):
        pivots = (u,) if u in rest else (v, *rest)
        if k < len(pivots):
            break
        k -= len(pivots)
    S1, y = edge_set((v, *rest)), pivots[k]
    T = S & ~S1 | 1 << y
    target = table.cell(S, v, u)[ai * 2 + bi]
    lf, rf = table.cell(S1, v, y), table.cell(T, y, u)
    for c in (0, 1):
        lv, rv = lf[ai * 2 + c], rf[c * 2 + bi]
        if lv and rv and lv + rv - 1 == target:
            break
    else:
        raise ValueError(
            f"inconsistent witness: no pivot orientation reproduces L = {target}"
        )
    pivot_arc = 2 * y + c
    left = reconstruct_from_witness((S1, a, pivot_arc), table)
    right = reconstruct_from_witness((T, pivot_arc, b), table)
    if left[-1] != y or right[0] != y:
        raise ValueError(
            f"inconsistent witness: halves do not share pivot edge {y}"
        )
    return left + right[1:]


def solve_hybrid(g: Graph, cfg: HybridConfig) -> SolveResult:
    """Full solve: layer precompute, split search per edge pair, reassembly."""
    m = g.edge_count
    if cfg.mode == MODE_STOCHASTIC:
        check_edge_budget(m, HYBRID_STOCH_MAX_EDGES, "stochastic hybrid solver")
    else:
        check_edge_budget(m, HYBRID_DET_MAX_EDGES, "deterministic hybrid solver")
    if m == 0:
        return SolveResult(0, (), QueryLedger(), 0)
    ctx = SolveContext.create(g, cfg)
    E = g.full_edge_set
    best = 0
    best_wit: Witness | None = None
    for v in range(m):
        for u in range(m):
            val, wit = solve_recursive(ctx, E, v, u, 0)
            if val is not None and val > best:
                best, best_wit = val, wit
    trail: list[int] = []
    if best_wit is not None:
        trail = reconstruct_from_witness(best_wit, ctx.table)
    verdict = validate_trail(g, trail)
    if not verdict.ok or len(trail) != best:
        raise AssertionError(f"solver returned an unusable walk: {verdict.reason}")
    return SolveResult(best, tuple(trail), ctx.ledger, len(ctx.table))


# ---------------------------------------------------------------------------
# Deterministic-mode query prediction (independent of the solver's ledger)

def predict_deterministic_queries(g: Graph, alpha: float = 0.055) -> dict[str, int]:
    """Closed-form per-level query counts for a deterministic run.

    Walks the same recursion structurally (memoized on states, candidate
    counts from the candidate patterns) without evaluating any walk lengths,
    so it predicts exactly what the solver's ledger must report.
    """
    m = g.edge_count
    k_pre = LayerSpec.for_graph(m, alpha).k_pre if m else 0
    if m <= k_pre:
        return {}
    seen: set[int] = set()
    subsets: dict[int, tuple] = {}
    per_level: Counter = Counter()
    patterns: dict[int, Callable] = {}

    def visit(S: int, lo: int, hi: int, depth: int) -> None:
        lo, hi = min(lo, hi), max(lo, hi)
        size = S.bit_count()
        h = _split_size(size, k_pre)
        if size not in patterns:
            patterns[size] = _patterns(size, h)
        sidx, tidx, prank = patterns[size](rank_in(S, lo), rank_in(S, hi))[:3]
        per_level[_LEVELS[depth]] += g.arc_count[lo] * g.arc_count[hi] * len(sidx)
        if size - h + 1 <= k_pre:  # then h <= k_pre too: both halves on the layer
            return
        if S not in subsets:  # no list of left halves on the layer: none is visited
            bits = list(bits_of(S))
            subsets[S] = bits, h > k_pre and _subsets(bits, h), _subsets(bits, size - h + 1)
        bits, lefts, rights = subsets[S]
        # A state's key is its set and its endpoints' bits, in either order.
        for i, j, y in zip(sidx, tidx, map(bits.__getitem__, prank)):
            if lefts and y != lo and (key := lefts[i] << m | 1 << lo | 1 << y) not in seen:
                seen.add(key)
                visit(lefts[i], lo, y, depth + 1)
            if y != hi and (key := rights[j] << m | 1 << y | 1 << hi) not in seen:
                seen.add(key)
                visit(rights[j], y, hi, depth + 1)

    for v in range(m):
        for u in range(v + 1, m):
            visit(g.full_edge_set, v, u, 0)
    del visit  # as in `_first_depths`
    return dict(per_level)


# ---------------------------------------------------------------------------
# Theoretical cost model

@dataclass(frozen=True)
class CostReport:
    m: int
    alpha: float
    k_nominal: int
    k_layer: int
    classical_count: int
    quantum_count: float
    exponent_classical: float
    exponent_quantum: float
    balance_gap: float


def _log2_binom(x: float, y: float) -> float:
    """log2 of the generalized binomial coefficient C(x, y)."""
    if y < 0 or y > x:
        return float("-inf")
    lg = math.lgamma(x + 1.0) - math.lgamma(y + 1.0) - math.lgamma(x - y + 1.0)
    return lg / math.log(2.0)


def theoretical_costs(m: int, alpha: float = 0.055) -> CostReport:
    """Classical versus quantum nominal operation counts and their per-edge
    base-2 exponents; the two sides balance near alpha = 0.055."""
    if m < 4:
        raise ValueError(f"cost model needs m >= 4, got {m}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    k_nominal = round((1.0 - alpha) * m / 4.0)
    k_layer = LayerSpec.for_graph(m, alpha).k_pre
    log2_classical = _log2_binom(m, k_nominal)
    # Past the int -> str digit limit (0 or absent: none) no report can hold
    # the count, and at large m math.comb would spend minutes building it.
    digits = math.floor(log2_classical * math.log10(2.0)) + 1
    if 0 < (limit := getattr(sys, "get_int_max_str_digits", int)()) < digits:
        raise ValueError(f"classical_count C({m}, {k_nominal}) has {digits} digits, "
                         f"past the {limit}-digit limit on int to str conversion")
    classical_count = math.comb(m, k_nominal)
    log2_quantum = 0.5 * (
        _log2_binom(m, m / 2.0)
        + _log2_binom(m / 2.0, m / 4.0)
        + _log2_binom(m / 4.0, round(alpha * m / 4.0))
    )
    quantum_count = 2.0 ** log2_quantum if log2_quantum < 1020 else float("inf")
    exp_c = log2_classical / m
    exp_q = log2_quantum / m
    return CostReport(
        m=m,
        alpha=alpha,
        k_nominal=k_nominal,
        k_layer=k_layer,
        classical_count=classical_count,
        quantum_count=quantum_count,
        exponent_classical=exp_c,
        exponent_quantum=exp_q,
        balance_gap=abs(exp_c - exp_q),
    )
