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

Each maximization runs through one query-counting qmax search, bound once
per run: `qmax._exhaustive` in deterministic mode (results provably equal to
the full DP), `qmax._boosted` bounded-error threshold searches on the seeded
stream in stochastic mode.  Either returns (value, index, charged); a state's
charges, summed over its cells, land in a QueryLedger keyed by recursion
depth.

States are solved once per run and memoized.  In stochastic mode this
means repeated references to a sub-state share one realization instead of
re-running its search; re-running every nested search per reference, times
2m boosting per level, would multiply work by millions and is not
simulable.  Errors stay one-sided and witnesses stay genuine, and a
state's charges are attributed to the depth at which it is first reached.

One memo holds every state's values: `DpTable.cells`, keyed by (S, v, u),
maps a state to a 4-slot cell tuple indexed by the arc orientations of the
two endpoint edges (slot = first*2 + last), so one dict hit serves all
orientation combinations.  `precompute_layer` fills it for |S| <= k_pre and
the split recursion adds each state above the layer, under both endpoint
orders.  "No walk" and "no such orientation" are both written -1: every
slot of an orientation a loop lacks holds -1 (the `DpTable` padding
contract).  A half that is the pivot edge alone reads the constant
single-edge cell (1, -1, -1, 1), or (1, -1, -1, -1) for a loop, so each arc
pairs only with itself.  So every candidate goes through one 4-slot combine,
max over c of left[a, c] + right[c, b] - 1, and only the slots of
orientations both endpoints have are searched and charged.

For every solved cell above the layer, `DpTable.splits` keeps the index the
search returned: the winning candidate's position in the state's candidate
list.  A witness is a state triple (S, first arc, last arc); its walk is
rebuilt by chaining down to the layer, where the DP's predecessor arcs take
over.  Only the split states on that chain regenerate their candidates, and
there the pivot orientation is found: the first whose halves reproduce the
cell's value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .dp import DpTable, LayerSpec, precompute_layer, reconstruct_arc
from .graphs import Graph, bits_of, check_edge_budget, validate_trail
from .qmax import QueryLedger, _boosted, _exhaustive

HYBRID_DET_MAX_EDGES = 20
HYBRID_STOCH_MAX_EDGES = 16

MODE_DETERMINISTIC = "deterministic"
MODE_STOCHASTIC = "stochastic"


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
        if self.budget_constant <= 0:
            raise ValueError("budget_constant must be positive")


# (S, first arc, last arc): the state whose stored walk realizes a value.
Witness = tuple[int, int, int]


@dataclass(frozen=True)
class SolveResult:
    length: int
    trail: tuple[int, ...]
    ledger: QueryLedger
    classical_entries: int


class SolveContext:
    """Per-run solver state: the table with its state memo, the ledger, and
    the one search every maximization runs through, values -> (value, index,
    charged): the exhaustive scan, or boosted trajectories on the seeded
    stream."""

    def __init__(self, g: Graph, cfg: HybridConfig, table: DpTable):
        self.graph = g
        self.table = table
        self.k_pre = table.k_pre
        self.ledger = QueryLedger()
        self.search = _exhaustive
        if cfg.mode == MODE_STOCHASTIC:
            repeats = (
                cfg.repeats_per_level
                if cfg.repeats_per_level is not None
                else max(1, 2 * g.edge_count)
            )
            rnd = random.Random(cfg.seed).random
            bconst = cfg.budget_constant

            def search(values: list) -> tuple:
                return _boosted(values, repeats, rnd, bconst)

            self.search = search

    @classmethod
    def create(cls, g: Graph, cfg: HybridConfig) -> "SolveContext":
        layer = LayerSpec.for_graph(g.edge_count, cfg.alpha)
        table = precompute_layer(g, layer)
        return cls(g, cfg, table)


def _split_size(size: int, k_pre: int) -> int:
    """First-half cardinality: half of |S|, raised onto the table layer when
    halving would undershoot it, and capped so the split stays proper."""
    h = size >> 1
    if h < 2:
        h = 2
    if h < k_pre:
        h = k_pre
    if h > size - 1:
        h = size - 1
    return h


def _candidates(S: int, lo: int, hi: int, h: int) -> list[tuple[int, int, int]]:
    """Deterministic candidate enumeration for a split of S.

    Yields (S', y, T): S' contains the first edge lo with |S'| = h, pivot
    y in S', T = (S \\ S') | {y}.  Candidates that strand the last edge hi
    (hi in S' but y != hi) are excluded up front.
    """
    vbit = 1 << lo
    positions = [p for p in bits_of(S) if p != lo]
    out = []
    for combo in combinations(positions, h - 1):
        S1 = vbit
        for p in combo:
            S1 |= 1 << p
        rest = S & ~S1
        if S1 >> hi & 1:
            out.append((S1, hi, rest | (1 << hi)))
        else:
            out.append((S1, lo, rest | vbit))
            for p in combo:
                out.append((S1, p, rest | (1 << p)))
    return out


# The cell of a half that is the pivot edge alone, by the edge's arc count:
# each arc is a walk of length 1 that starts and ends on itself.
_SINGLE_EDGE = {1: (1, -1, -1, -1), 2: (1, -1, -1, 1)}


def _transpose_cells(cells: tuple, flip_first: int, flip_second: int) -> tuple:
    """Reorder a cell tuple for the reversed endpoint order.  Reversing a
    walk flips the orientation of each end edge that is not a loop (flip 1);
    a loop's missing slot is -1 and is never written."""
    out: list = [-1, -1, -1, -1]
    for slot, val in enumerate(cells):
        if val >= 0:
            out[((slot & 1) ^ flip_second) * 2 + ((slot >> 1) ^ flip_first)] = val
    return tuple(out)


def _solve_state(ctx: SolveContext, S: int, v: int, u: int, depth: int) -> None:
    """Solve the state (S, v, u) above the layer: memoize its cells under
    both endpoint orders and, per cell, the index of its winning candidate."""
    lo, hi = (v, u) if v < u else (u, v)
    g = ctx.graph
    m = g.edge_count
    memo = ctx.table.cells
    size = S.bit_count()
    h = _split_size(size, ctx.k_pre)
    cands = _candidates(S, lo, hi, h)
    n_lo = g.arc_count[lo]
    n_hi = g.arc_count[hi]
    lo_edge = _SINGLE_EDGE[n_lo]
    hi_edge = _SINGLE_EDGE[n_hi]
    # Every slot is combined, but only those of orientations both endpoints
    # have are searched; the others stay -1 in the memo.
    slots = [ai * 2 + bi for ai in range(n_lo) for bi in range(n_hi)]
    arrays: list[list] = [[], [], [], []]
    ap0, ap1, ap2, ap3 = (a.append for a in arrays)
    child_depth = depth + 1

    for S1, y, T in cands:
        if y == lo:
            lf = lo_edge
        else:
            lkey = (S1 * m + lo) * m + y
            lf = memo.get(lkey)
            if lf is None:
                _solve_state(ctx, S1, lo, y, child_depth)
                lf = memo[lkey]
        if y == hi:
            rf = hi_edge
        else:
            rkey = (T * m + y) * m + hi
            rf = memo.get(rkey)
            if rf is None:
                _solve_state(ctx, T, y, hi, child_depth)
                rf = memo[rkey]
        # Slot (ai, bi) pairs lf[ai, c] with rf[c, bi] over the pivot
        # orientations c; a -1 on either side rules the pairing out.
        lf0, lf1, lf2, lf3 = lf
        rf0, rf1, rf2, rf3 = rf
        v = lf0 + rf0 - 1 if lf0 > 0 and rf0 > 0 else -1
        if lf1 > 0 and rf2 > 0:
            w = lf1 + rf2 - 1
            if w > v:
                v = w
        ap0(v)
        v = lf0 + rf1 - 1 if lf0 > 0 and rf1 > 0 else -1
        if lf1 > 0 and rf3 > 0:
            w = lf1 + rf3 - 1
            if w > v:
                v = w
        ap1(v)
        v = lf2 + rf0 - 1 if lf2 > 0 and rf0 > 0 else -1
        if lf3 > 0 and rf2 > 0:
            w = lf3 + rf2 - 1
            if w > v:
                v = w
        ap2(v)
        v = lf2 + rf1 - 1 if lf2 > 0 and rf1 > 0 else -1
        if lf3 > 0 and rf3 > 0:
            w = lf3 + rf3 - 1
            if w > v:
                v = w
        ap3(v)

    vals4 = [-1, -1, -1, -1]
    picks = [-1, -1, -1, -1]
    search = ctx.search
    total = 0
    for slot in slots:
        val, idx, charged = search(arrays[slot])
        total += charged
        if val >= 0:
            vals4[slot] = val
            picks[slot] = idx
    ctx.ledger.charge(depth, total)

    key = (S * m + lo) * m + hi
    memo[key] = tuple(vals4)
    memo[(S * m + hi) * m + lo] = _transpose_cells(vals4, n_lo - 1, n_hi - 1)
    ctx.table.splits[key] = tuple(picks)


def solve_recursive(
    ctx: SolveContext, S: int, v: int, u: int, level: int = 0
) -> tuple[int | None, Witness | None]:
    """L(S, v, u) through the split recursion, with its witness state.

    Membership guards return None without recursing; v == u short-circuits to
    the single-edge walk; sets on the precomputed layer resolve by lookup.
    """
    if not (S >> v & 1 and S >> u & 1):
        return None, None
    if v == u:
        return 1, (S, 2 * v, 2 * v)
    m = ctx.graph.edge_count
    key = (S * m + v) * m + u
    cells = ctx.table.cells.get(key)
    if cells is None:
        _solve_state(ctx, S, v, u, level)
        cells = ctx.table.cells[key]
    best = max(cells)
    if best < 0:
        return None, None
    cell = cells.index(best)
    return best, (S, 2 * v + (cell >> 1), 2 * u + (cell & 1))


def reconstruct_from_witness(w: Witness, table: DpTable) -> list[int]:
    """Rebuild the walk of the witness state (S, first arc, last arc)."""
    S, a, b = w
    g = table.g
    v, u = a >> 1, b >> 1
    if v == u:
        return [v]
    if S.bit_count() <= table.k_pre:
        return reconstruct_arc(table, S, a, b)
    if v > u:
        forward = (S, g.reverse_arc(b), g.reverse_arc(a))
        return reconstruct_from_witness(forward, table)[::-1]
    m = g.edge_count
    key = (S * m + v) * m + u
    ai, bi = a & 1, b & 1
    h = _split_size(S.bit_count(), table.k_pre)
    S1, y, T = _candidates(S, v, u, h)[table.splits[key][ai * 2 + bi]]
    cells = table.cells
    target = cells[key][ai * 2 + bi]
    lf = _SINGLE_EDGE[g.arc_count[y]] if y == v else cells[(S1 * m + v) * m + y]
    rf = _SINGLE_EDGE[g.arc_count[y]] if y == u else cells[(T * m + y) * m + u]
    for c in (0, 1):
        lv, rv = lf[ai * 2 + c], rf[c * 2 + bi]
        if lv > 0 and rv > 0 and lv + rv - 1 == target:
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
    counts from the enumeration rule) without evaluating any walk lengths, so
    it predicts exactly what the solver's ledger must report.
    """
    m = g.edge_count
    if m == 0:
        return {}
    k_pre = LayerSpec.for_graph(m, alpha).k_pre
    arc_count = g.arc_count
    visited: set[int] = set()
    per_level: dict[str, int] = {}

    def visit(S: int, v: int, u: int, depth: int) -> None:
        lo, hi = (v, u) if v < u else (u, v)
        key = (S * m + lo) * m + hi
        if key in visited:
            return
        visited.add(key)
        size = S.bit_count()
        h = _split_size(size, k_pre)
        cands = _candidates(S, lo, hi, h)
        ncells = arc_count[lo] * arc_count[hi]
        label = f"level{depth}"
        per_level[label] = per_level.get(label, 0) + ncells * len(cands)
        left_big = h > k_pre
        right_big = size - h + 1 > k_pre
        for S1, y, T in cands:
            if y != lo and left_big:
                visit(S1, lo, y, depth + 1)
            if y != hi and right_big:
                visit(T, y, hi, depth + 1)

    E = g.full_edge_set
    if m > k_pre:
        for v in range(m):
            for u in range(m):
                if v != u:
                    visit(E, v, u, 0)
    return per_level


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
    classical_count = math.comb(m, k_nominal)
    log2_classical = _log2_binom(m, k_nominal)
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
