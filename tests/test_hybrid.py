import gc
import math
import random
from array import array
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longtrail.dp import DpTable, full_dp_longest_trail, precompute_layer, LayerSpec
from longtrail.graphs import (
    Graph,
    SizeLimitError,
    bits_of,
    edge_set,
    random_graph,
    validate_trail,
)
from longtrail import hybrid
from longtrail.hybrid import (
    HYBRID_DET_MAX_EDGES,
    HYBRID_STOCH_MAX_EDGES,
    HybridConfig,
    SolveContext,
    _ORIENT,
    _boosted_chunk,
    _patterns,
    _combine,
    _exhaustive_chunk,
    _split_chain,
    _split_size,
    _subsets,
    predict_deterministic_queries,
    reconstruct_from_witness,
    solve_hybrid,
    solve_recursive,
    theoretical_costs,
)
from longtrail.qmax import boosted, exhaustive, grover_stage_cost

from edge_level import edge_len

TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))

LOOPS_7 = random_graph(2, 9, 3)
LOOPS_5 = random_graph(3, 9, 5)

DET = HybridConfig(mode="deterministic")


class TestConfig:
    def test_defaults(self):
        cfg = HybridConfig()
        assert cfg.alpha == 0.055 and cfg.budget_constant == 23.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(alpha=1.5)
        with pytest.raises(ValueError):
            HybridConfig(mode="quantum")
        with pytest.raises(ValueError):
            HybridConfig(repeats_per_level=0)
        for value in (0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="budget_constant"):
                HybridConfig(budget_constant=value)


class TestDeterministic:
    def test_triangle(self):
        assert solve_hybrid(TRIANGLE, DET).length == 3

    def test_k4(self):
        res = solve_hybrid(K4, DET)
        assert res.length == 5
        assert validate_trail(K4, res.trail).ok

    def test_empty_graph(self):
        res = solve_hybrid(Graph(3, ()), DET)
        assert res.length == 0 and res.trail == ()

    def test_single_edge(self):
        res = solve_hybrid(Graph(2, ((0, 1),)), DET)
        assert res.length == 1 and res.trail == (0,)

    def test_two_parallel_edges(self):
        res = solve_hybrid(Graph(2, ((0, 1), (0, 1))), DET)
        assert res.length == 2

    def test_two_disjoint_edges(self):
        res = solve_hybrid(Graph(4, ((0, 1), (2, 3))), DET)
        assert res.length == 1

    def test_matches_full_dp(self):
        for trial in range(36):
            rnd = random.Random(4000 + trial)
            g = random_graph(rnd.randint(2, 7), rnd.randint(3, 12), seed=trial * 3 + 1)
            dp = full_dp_longest_trail(g)
            res = solve_hybrid(g, DET)
            assert res.length == dp.length, g.edges
            assert validate_trail(g, res.trail).ok
            assert len(res.trail) == res.length

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            solve_hybrid(random_graph(8, 21, 0), DET)


class TestStochastic:
    def test_witnesses_always_sound(self):
        for trial in range(12):
            rnd = random.Random(trial)
            g = random_graph(rnd.randint(3, 6), rnd.randint(5, 10), seed=trial + 50)
            truth = full_dp_longest_trail(g).length
            res = solve_hybrid(
                g, HybridConfig(mode="stochastic", seed=trial)
            )
            assert res.length <= truth
            assert validate_trail(g, res.trail).ok
            assert len(res.trail) == res.length

    def test_starved_budget_stays_sound(self):
        # A budget too small to run any Grover stage degrades the answer,
        # never the witness.
        g = random_graph(5, 10, 8)
        truth = full_dp_longest_trail(g).length
        for seed in range(10):
            res = solve_hybrid(
                g,
                HybridConfig(
                    mode="stochastic", seed=seed, budget_constant=0.5,
                    repeats_per_level=1,
                ),
            )
            assert res.length <= truth
            assert validate_trail(g, res.trail).ok
            assert len(res.trail) == res.length

    def test_seed_reproducibility(self):
        g = random_graph(5, 10, 3)
        a = solve_hybrid(g, HybridConfig(mode="stochastic", seed=9))
        b = solve_hybrid(g, HybridConfig(mode="stochastic", seed=9))
        assert (a.length, a.trail, a.ledger.per_level) == (
            b.length,
            b.trail,
            b.ledger.per_level,
        )

    def test_usually_exact_at_defaults(self):
        g = random_graph(5, 10, 21)
        truth = full_dp_longest_trail(g).length
        hits = sum(
            solve_hybrid(g, HybridConfig(mode="stochastic", seed=s)).length == truth
            for s in range(10)
        )
        assert hits >= 8

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            solve_hybrid(
                random_graph(9, 17, 0), HybridConfig(mode="stochastic")
            )


class TestSolveRecursive:
    def test_missing_endpoint_short_circuits(self):
        ctx = SolveContext.create(TRIANGLE, DET)
        assert solve_recursive(ctx, 0b110, 0, 1) == (None, None)

    def test_degenerate_pair(self):
        ctx = SolveContext.create(TRIANGLE, DET)
        val, wit = solve_recursive(ctx, 0b111, 1, 1)
        assert val == 1
        assert reconstruct_from_witness(wit, ctx.table) == [1]

    def test_layer_lookup(self):
        ctx = SolveContext.create(TRIANGLE, DET)
        val, wit = solve_recursive(ctx, 0b011, 0, 1)
        assert val == 2
        assert wit[0] == 0b011 and reconstruct_from_witness(wit, ctx.table) == [0, 1]

    def test_triangle_split(self):
        # Table holds pairs; the full set resolves through one split level.
        ctx = SolveContext.create(TRIANGLE, DET)
        val, wit = solve_recursive(ctx, 0b111, 0, 2)
        assert val == 3
        trail = reconstruct_from_witness(wit, ctx.table)
        assert validate_trail(TRIANGLE, trail).ok
        assert trail[0] == 0 and trail[-1] == 2

    # The two loop-heavy graphs (7 and 5 loops) drive loop endpoints, loop
    # pivots and single-loop halves through the combine.  The inputs are
    # looped over rather than parametrized to keep the test's id.
    def test_equals_table_values_everywhere(self):
        for g in (random_graph(5, 9, 14), LOOPS_7, LOOPS_5):
            ctx = SolveContext.create(g, DET)
            table = DpTable(g)
            S = g.full_edge_set
            for v in range(9):
                for u in range(9):
                    val, wit = solve_recursive(ctx, S, v, u)
                    assert val == edge_len(g, S, v, u, table), (g, v, u)
                    if val is not None and v != u:
                        trail = reconstruct_from_witness(wit, ctx.table)
                        assert len(trail) == val
                        assert trail[0] == v and trail[-1] == u
                        assert validate_trail(g, trail).ok


def _chain_sizes(m, k_pre):
    """The set sizes above the layer that splitting the full set reaches."""
    sizes, todo = set(), [m]
    while todo:
        size = todo.pop()
        if size > k_pre and size not in sizes:
            sizes.add(size)
            h = _split_size(size, k_pre)
            todo += [h, size - h + 1]
    return sizes


class TestSchedule:
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_every_chain_state_solved_once(self, mode):
        # m = 8 and 11 have sizes at two depths, m = 10 and 12 do not.
        for g in (random_graph(5, 8, 3), random_graph(6, 10, 4), random_graph(4, 11, 5),
                  random_graph(4, 12, 9)):
            m = g.edge_count
            ctx = SolveContext.create(g, HybridConfig(mode=mode, seed=1))
            solve_recursive(ctx, g.full_edge_set, 0, 1)
            sizes = _chain_sizes(m, ctx.k_pre)
            solved = dict.fromkeys(sizes, 0)
            for S, row in ctx.table.rows.items():
                size = S.bit_count()
                if size in sizes:
                    assert len(row) == size * size and None not in row, (m, S)
                    solved[size] += size * (size - 1) // 2
                    assert len(ctx.table.splits[S]) == 2 * size * (size - 1)
            assert solved == {s: math.comb(m, s) * math.comb(s, 2) for s in sizes}

    def test_set_off_the_chain_is_rejected(self):
        g = random_graph(5, 8, 3)
        ctx = SolveContext.create(g, DET)
        assert ctx.k_pre == 2 and _chain_sizes(8, 2) == {3, 4, 5, 8}
        for S in (0b111111, 0b1111111, 1 << 8 | 0b111):
            with pytest.raises(ValueError) as err:
                solve_recursive(ctx, S, 0, 1)
            assert "\n" not in str(err.value)
        assert not ctx.ledger.per_level  # nothing was solved


class TestPaddingContract:
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    @pytest.mark.parametrize("g", [LOOPS_7, LOOPS_5], ids=["loops7", "loops5"])
    def test_missing_orientations_hold_minus_one(self, g, mode):
        # Every memo cell, on the layer and above it, in both endpoint
        # orders, holds the no-walk value 0 in each slot of an orientation a
        # loop lacks (the test keeps the id it had when that value was -1).
        m = g.edge_count
        ctx = SolveContext.create(g, HybridConfig(mode=mode, seed=3))
        for v in range(m):
            for u in range(m):
                solve_recursive(ctx, g.full_edge_set, v, u)
        table = ctx.table
        above_layer = set()
        for S in table.rows:
            for v in bits_of(S):
                for u in bits_of(S):
                    cell = table.cell(S, v, u)
                    assert (cell is None) == (table.cell(S, u, v) is None)
                    if cell is None:
                        continue
                    assert len(cell) == 4
                    above_layer.add(S.bit_count() > ctx.k_pre)
                    if g.arc_count[v] == 1:
                        assert cell[2] == cell[3] == 0, (S, v, u, cell)
                    if g.arc_count[u] == 1:
                        assert cell[1] == cell[3] == 0, (S, v, u, cell)
        assert above_layer == {False, True}


class TestSplitRecords:
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_every_record_rebuilds_its_cell(self, mode):
        # Each winner-array entry is a candidate index; the rebuild derives
        # the pivot from it.  Every cell with a walk must rebuild to a valid
        # walk of the cell's length from v to u, and only those cells hold
        # one; entries of states not solved stay -1.  A set's array holds
        # four entries per edge pair v < u, at the pair's rank.
        for g in (random_graph(5, 9, 14), LOOPS_7, LOOPS_5):
            m = g.edge_count
            ctx = SolveContext.create(g, HybridConfig(mode=mode, seed=3))
            for v in range(m):
                for u in range(m):
                    solve_recursive(ctx, g.full_edge_set, v, u)
            assert ctx.table.splits
            solved = 0
            for S, winners in ctx.table.splits.items():
                size = S.bit_count()
                assert size > ctx.k_pre
                assert winners.typecode == "i" and len(winners) == 2 * size * (size - 1)
                pairs = list(combinations(enumerate(bits_of(S)), 2))
                ranks = [ru * (ru - 1) // 2 + rv for (rv, _), (ru, _) in pairs]
                # The pair ranks cover the array's records one to one.
                assert sorted(ranks) == list(range(len(pairs)))
                for ((rv, v), (ru, u)), pair in zip(pairs, ranks):
                    record = winners[pair * 4:(pair + 1) * 4]
                    cell = ctx.table.cell(S, v, u)
                    if cell is None:
                        assert list(record) == [-1] * 4, (S, v, u)
                        continue
                    solved += 1
                    for slot, idx in enumerate(record):
                        assert (idx >= 0) == (cell[slot] > 0), (S, v, u, slot)
                        if idx < 0:
                            continue
                        wit = (S, 2 * v + (slot >> 1), 2 * u + (slot & 1))
                        trail = reconstruct_from_witness(wit, ctx.table)
                        assert validate_trail(g, trail).ok, (S, v, u, slot)
                        assert len(trail) == cell[slot]
                        assert trail[0] == v and trail[-1] == u
            assert solved


class TestInterning:
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_equal_cells_are_one_object(self, mode):
        # On the layer and above it, every row entry equal to another is the
        # same object.
        for g in (random_graph(5, 9, 14), LOOPS_7):
            m = g.edge_count
            ctx = SolveContext.create(g, HybridConfig(mode=mode, seed=3))
            for v in range(m):
                for u in range(m):
                    solve_recursive(ctx, g.full_edge_set, v, u)
            first, above_layer = {}, set()
            for S, row in ctx.table.rows.items():
                for cell in row:
                    if cell is not None:
                        assert first.setdefault(cell, cell) is cell, (S, cell)
                        above_layer.add(S.bit_count() > ctx.k_pre)
            assert above_layer == {False, True}


def _reference_candidates(S, lo, hi, h):
    """The split candidates (S', y, T) of the state (S, lo, hi), lo < hi,
    enumerated directly: S' holds lo and |S'| = h, y is in S', and
    T = (S \\ S') | {y}.  Candidates that strand hi (hi in S' but y != hi)
    are left out."""
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


def _reached_splits(max_m, alphas):
    """Every (|S|, h) the split recursion reaches with up to max_m edges."""
    found = set()
    for m in range(1, max_m + 1):
        for alpha in alphas:
            k_pre = LayerSpec.for_graph(m, alpha).k_pre
            todo = [m]
            while todo:
                size = todo.pop()
                h = _split_size(size, k_pre)
                if size > k_pre and (size, h) not in found:
                    found.add((size, h))
                    todo += [h, size - h + 1]
    return found


def _rank(S, e):
    return (S & ((1 << e) - 1)).bit_count()


class TestCandidatePattern:
    def test_patterns_map_onto_the_reference_enumeration(self):
        # On a set whose edges are spread out, each rank-space pattern must
        # give the reference's candidates in the reference's order, and
        # getters that pick exactly the cells of (lo, y) and (y, hi) from the
        # halves' rows laid end to end.
        # (12, 6) and (13, 6), the full sets at the default alpha, are above
        # _KEPT: their patterns come from a table made for the call.
        rnd = random.Random(7)
        splits = _reached_splits(14, (0.055, 0.3, 0.5, 0.6, 0.9))
        assert {(14, 7), (13, 6), (12, 6), (5, 3)} <= splits
        for size, h in sorted(splits):
            t = size - h + 1
            S = (1 << size) - 1
            while S == (1 << size) - 1 << (S & -S).bit_length() - 1:
                S = edge_set(rnd.sample(range(2 * size + 1), size))
            bits = list(bits_of(S))
            left_sets, right_sets = _subsets(bits, h), _subsets(bits, t)
            # Rows like DpTable's: a distinct cell per slot.
            left_rows = [(X, s) for X in left_sets for s in range(h * h)]
            right_rows = [(X, s) for X in right_sets for s in range(t * t)]
            pattern = _patterns(size, h)
            for rlo in range(size):
                for rhi in range(rlo + 1, size):
                    lo, hi = bits[rlo], bits[rhi]
                    want = _reference_candidates(S, lo, hi, h)
                    sidx, tidx, prank, pick_left, pick_right = pattern(rlo, rhi)
                    got = [
                        (left_sets[i], bits[r], right_sets[j])
                        for i, r, j in zip(sidx, prank, tidx)
                    ]
                    assert got == want, (size, h, rlo, rhi)
                    assert pick_left(left_rows) == tuple(
                        (S1, _rank(S1, lo) * h + _rank(S1, y)) for S1, y, _ in want
                    )
                    assert pick_right(right_rows) == tuple(
                        (T, _rank(T, y) * t + _rank(T, hi)) for _, y, T in want
                    )


class TestCombine:
    def test_packed_combine_equals_scalar(self):
        # The combine adds two cell values in a lane whose bit 7 must stay
        # clear, and a cell value is at most the edge count.
        if 2 * max(HYBRID_DET_MAX_EDGES, HYBRID_STOCH_MAX_EDGES) > 0x7F:
            pytest.fail("hybrid edge caps overflow the combine's 7-bit lanes")
        # Slot values run over 0 (no walk) and 1..21, shifted per slot so
        # that every (left[a, c], right[c, b]) meets every pair of values;
        # each loop pads the slots of the orientation it lacks with 0.
        pairs = []
        for p in range(22):
            for q in range(22):
                for lo_loop, pivot_loop, hi_loop in product((0, 1), repeat=3):
                    left = [(p + k) % 22 for k in (0, 5, 11, 17)]
                    right = [(q + k) % 22 for k in (0, 3, 13, 7)]
                    if lo_loop:
                        left[2] = left[3] = 0
                    if pivot_loop:
                        left[1] = left[3] = right[2] = right[3] = 0
                    if hi_loop:
                        right[1] = right[3] = 0
                    pairs.append((bytes(left), bytes(right)))
        for lanes in (1, 7, 200):
            for start in range(0, len(pairs), lanes):
                batch = pairs[start:start + lanes]
                got = _combine(
                    b"".join(left for left, _ in batch),
                    b"".join(right for _, right in batch),
                ).to_bytes(4 * len(batch), "little")
                for slot in range(4):
                    a, b = slot >> 1, slot & 1
                    want = bytes(
                        max(
                            (left[a * 2 + c] + right[c * 2 + b] - 1
                             for c in (0, 1) if left[a * 2 + c] and right[c * 2 + b]),
                            default=0,
                        )
                        for left, right in batch
                    )
                    assert got[slot::4] == want, (lanes, start, slot)


class TestFold:
    # Candidate counts per state: any small one, powers of two and one past
    # them (the fold's last step is empty or one candidate), and the full
    # sets' counts at m = 12 and 13.
    counts = st.one_of(
        st.integers(3, 300),
        st.integers(1, 11).flatmap(lambda k: st.sampled_from([2 ** k, 2 ** k + 1])),
        st.sampled_from([1722, 3102]),
    )

    @settings(max_examples=150, deadline=None)
    @given(counts, st.integers(1, 32), st.integers(0, 40), st.integers(0, 2 ** 32))
    @example(1722, 32, 40, 1)
    @example(3102, 32, 3, 2)
    @example(1024, 7, 0, 3)
    def test_cells_and_winners_equal_exhaustive(self, n, count, top, seed):
        # Lanes as `_combine` returns them, values 0 (no walk) to `top`: per
        # set an orientation of its end edges, whose missing slots hold 0 in
        # every candidate, as a loop's padding makes them.
        rnd = random.Random(seed)
        values = bytes(x % (top + 1) for x in range(256))
        orients = [rnd.choice(list(_ORIENT)) for _ in range(count)]
        lanes = bytearray()
        for a, b in orients:
            segment = bytearray(rnd.randbytes(4 * n).translate(values))
            if a == 1:
                segment[2::4] = segment[3::4] = bytes(n)
            if b == 1:
                segment[1::4] = segment[3::4] = bytes(n)
            lanes += segment
        find = _exhaustive_chunk(int.from_bytes(lanes, "little"), n, count)
        winners = array("i", [-1]) * (4 * count)
        for i, orient in enumerate(orients):
            slots = _ORIENT[orient][0]
            cell, charged = find(i, slots, winners, 4 * i)
            assert charged == n * len(slots)
            for slot in range(4):
                val, idx, _ = exhaustive(lanes[4 * i * n + slot:4 * (i + 1) * n:4])
                assert cell[slot] == val, (i, slot)
                assert winners[4 * i + slot] == (idx if val else -1), (i, slot)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 8), st.integers(0, 12), st.integers(1, 30),
           st.sampled_from([0.5, 2.0, 23.0]), st.integers(0, 2 ** 32))
    @example(1722, 4, 12, 24, 23.0, 1)
    @example(30, 8, 0, 24, 23.0, 2)
    def test_boosted_cells_winners_and_stream_equal_per_slot_boosted(
            self, n, count, top, repeats, budget_constant, seed):
        # Lanes as above, with some slots of no walk at all besides the
        # padding's; one chunk and one memo serve every set, as in a solve.
        rnd = random.Random(seed)
        values = bytes(x % (top + 1) for x in range(256))
        orients = [rnd.choice(list(_ORIENT)) for _ in range(count)]
        lanes = bytearray()
        for a, b in orients:
            segment = bytearray(rnd.randbytes(4 * n).translate(values))
            for slot in range(4):
                if a == 1 and slot >> 1 or b == 1 and slot & 1 or rnd.random() < 0.3:
                    segment[slot::4] = bytes(n)
            lanes += segment
        got_stream, want_stream = random.Random(seed), random.Random(seed)
        find = _boosted_chunk(got_stream, repeats, budget_constant, {},
                              int.from_bytes(lanes, "little"), n, count)
        winners = array("i", [-1]) * (4 * count)
        for i, orient in enumerate(orients):
            slots = _ORIENT[orient][0]
            cell, charged = find(i, slots, winners, 4 * i)
            total = 0
            for slot in range(4):
                val, idx = 0, -1
                if slot in slots:  # in slot order, as the chunk searches them
                    val, idx, queries = boosted(lanes[4 * i * n + slot:4 * (i + 1) * n:4],
                                                repeats, want_stream.random, budget_constant)
                    total += queries
                assert cell[slot] == val, (i, slot)
                assert winners[4 * i + slot] == (idx if val else -1), (i, slot)
            assert charged == total, i
        assert got_stream.random() == want_stream.random()


def _solved_states(g, per_size=None):
    """A deterministic solve's context and its solved states (S, v < u):
    all of them, or `per_size` drawn per set size."""
    ctx = SolveContext.create(g, DET)
    solve_recursive(ctx, g.full_edge_set, 0, 1)
    by_size = {}
    for S in ctx.table.splits:
        by_size.setdefault(S.bit_count(), []).extend(
            (S, v, u) for v, u in combinations(bits_of(S), 2))
    rnd = random.Random(5)
    return ctx, [state for states in by_size.values()
                 for state in (states if per_size is None else rnd.sample(states, per_size))]


class TestBudgetFree:
    def test_hybrid_searches_are_budget_free_at_the_default_constant(self):
        # A search's values are walk lengths 0..m, so at most m classes lie
        # below the top, at distinct starts t >= 1; a stage's cost falls as t
        # grows, so t = 1..m is the costliest trajectory there can be.
        m = HYBRID_STOCH_MAX_EDGES
        k_pre = LayerSpec.for_graph(m, 0.055).k_pre
        counts = []
        for size in _split_chain(m, k_pre):
            h = _split_size(size, k_pre)
            # The pattern rule: S' runs over the h-subsets holding lo, one
            # candidate if it holds hi, else h.
            counts.append(math.comb(size - 2, h - 2) + h * math.comb(size - 2, h - 1))
            assert len(_patterns(size, h)(0, 1)[0]) == counts[-1]
        assert max(counts) == counts[-1]  # the full set's
        budget_constant = HybridConfig().budget_constant
        for N in range(1, max(counts) + 1):
            # qmax._stage_costs(N)[t], without tabulating every t of every N.
            worst = 1 + sum(grover_stage_cost(N, t) for t in range(1, min(m, N - 1) + 1))
            assert worst <= budget_constant * math.ceil(math.sqrt(N)), N


class TestFirstMaxima:
    @pytest.mark.parametrize("g, per_size", [
        (LOOPS_7, None), (LOOPS_5, None), (random_graph(5, 9, 14), None),
        (random_graph(4, 12, 9), 25),
    ], ids=["loops7", "loops5", "m9", "m12-sample"])
    def test_cells_and_records_are_first_maxima(self, g, per_size):
        # Every deterministic cell and split record, on the witness path or
        # off it, is `exhaustive`'s value and first index over the state's
        # candidate values, recomputed from the memo rows in the reference
        # enumeration's order.
        ctx, states = _solved_states(g, per_size)
        table = ctx.table
        for S, lo, hi in states:
            h = _split_size(S.bit_count(), ctx.k_pre)
            halves = [(table.cell(S1, lo, y), table.cell(T, y, hi))
                      for S1, y, T in _reference_candidates(S, lo, hi, h)]
            cell = table.cell(S, lo, hi)
            rv, ru = _rank(S, lo), _rank(S, hi)
            record = table.splits[S][(ru * (ru - 1) // 2 + rv) * 4:][:4]
            for slot in range(4):
                a, b = slot >> 1, slot & 1
                values = [max((left[a * 2 + c] + right[c * 2 + b] - 1
                               for c in (0, 1) if left[a * 2 + c] and right[c * 2 + b]), default=0)
                          for left, right in halves]
                val, idx, _ = exhaustive(values)
                assert cell[slot] == val, (S, lo, hi, slot)
                assert record[slot] == (idx if val else -1), (S, lo, hi, slot)


class TestWitnessReconstruction:
    def test_edge(self):
        # Both arcs on one edge: the walk is that edge, whatever S holds.
        assert reconstruct_from_witness((0b111111, 8, 8), DpTable(K4)) == [4]

    def test_leaf(self):
        table = precompute_layer(TRIANGLE, LayerSpec(k_pre=2))
        # Edge 0 traversed 0 -> 1 (arc 1), then edge 1 ending at 2 (arc 3).
        assert reconstruct_from_witness((0b011, 1, 3), table) == [0, 1]

    def test_reversed_state_reverses_the_forward_walk(self):
        ctx = SolveContext.create(K4, DET)
        val, wit = solve_recursive(ctx, K4.full_edge_set, 5, 0)
        S, a, b = wit
        forward = (S, K4.reverse_arc(b), K4.reverse_arc(a))
        trail = reconstruct_from_witness(wit, ctx.table)
        assert len(trail) == val and validate_trail(K4, trail).ok
        assert trail == reconstruct_from_witness(forward, ctx.table)[::-1]

    def test_pivot_mismatch_detected(self, monkeypatch):
        # A leaf walk that does not end on the split record's pivot edge.
        ctx = SolveContext.create(TRIANGLE, DET)
        _val, wit = solve_recursive(ctx, 0b111, 0, 2)
        monkeypatch.setattr(hybrid, "reconstruct_arc", lambda table, S, a, b: [a >> 1])
        with pytest.raises(ValueError, match="pivot"):
            reconstruct_from_witness(wit, ctx.table)

    def test_value_no_split_reproduces_detected(self):
        # A cell value that no pivot orientation of the recorded candidate
        # adds up to.
        ctx = SolveContext.create(TRIANGLE, DET)
        val, wit = solve_recursive(ctx, 0b111, 0, 2)
        slot = (wit[1] & 1) * 2 + (wit[2] & 1)
        cell = bytearray(ctx.table.cell(0b111, 0, 2))
        cell[slot] = val + 5
        # Edges 0 and 2 have ranks 0 and 2 in the set of 3.
        ctx.table.rows[0b111][0 * 3 + 2] = bytes(cell)
        assert ctx.table.cell(0b111, 0, 2)[slot] == val + 5
        with pytest.raises(ValueError, match="reproduces"):
            reconstruct_from_witness(wit, ctx.table)


class TestLedgerPrediction:
    # (m, seed[, alpha]): m = 6-9 and 11 have a size at two recursion depths
    # at the default alpha; at alpha = 0.5, size 3 sits at depths 2, 3 and 4.
    @pytest.mark.parametrize(
        "case",
        [(6, 2), (8, 5), (9, 11), (7, 3), (10, 4), (11, 7), (11, 7, 0.5), (12, 9, 0.5)],
        ids=lambda case: "-".join(map(str, case)),
    )
    def test_deterministic_counts_match(self, case):
        m, seed, alpha = (*case, 0.055)[:3]
        g = random_graph(m // 2 + 1, m, seed)
        res = solve_hybrid(g, HybridConfig(alpha=alpha))
        assert res.ledger.per_level == predict_deterministic_queries(g, alpha)

    def test_prediction_independent_of_values(self):
        # Counts depend only on the graph's shape parameters, never on
        # which walks exist, so two same-m graphs predict the same totals
        # when their loop structure matches.
        g1 = random_graph(4, 8, 1)
        g2 = random_graph(4, 8, 2)
        loops1 = sorted(u == v for u, v in g1.edges)
        loops2 = sorted(u == v for u, v in g2.edges)
        if loops1 == loops2:
            p1 = predict_deterministic_queries(g1)
            p2 = predict_deterministic_queries(g2)
            assert sum(p1.values()) == sum(p2.values())

    def test_walks_free_their_memos_on_return(self):
        # The structural walks memoize every state they reach; a reference
        # cycle through their recursive closure would keep that memo alive
        # until a full collection (about 1 MB for each walk here), so with
        # gc off a collection afterwards must find nothing to free.
        g = random_graph(6, 11, 7)
        walks = {
            "predict": lambda: predict_deterministic_queries(g),
            "first_depths": lambda: hybrid._first_depths.__wrapped__(11, LayerSpec.for_graph(11).k_pre),
        }
        for name, walk in walks.items():
            walk()  # fills the process-wide pattern caches
            gc.collect()
            gc.disable()
            try:
                walk()
            finally:
                gc.enable()
            assert gc.collect() == 0, name


class TestTheoreticalCosts:
    def test_m20(self):
        rep = theoretical_costs(20, 0.055)
        assert rep.k_nominal == 5
        assert rep.classical_count == 15504

    def test_m4(self):
        assert theoretical_costs(4, 0.055).classical_count == 4

    def test_m_bound(self):
        with pytest.raises(ValueError):
            theoretical_costs(3)

    def test_alpha_bound(self):
        with pytest.raises(ValueError):
            theoretical_costs(20, alpha=0.0)

    def test_count_past_the_str_limit_is_refused(self):
        # The digit count comes from the log: m = 18118 is the last m whose
        # count fits Python's default 4300-digit int -> str limit.
        assert len(str(theoretical_costs(18118).classical_count)) == 4300
        with pytest.raises(ValueError, match="4301 digits"):
            theoretical_costs(18119)

    def test_exponents_near_advertised_rate(self):
        rep = theoretical_costs(2000, 0.055)
        target = math.log2(1.728)
        assert abs(rep.exponent_classical - target) < 0.02
        assert abs(rep.exponent_quantum - target) < 0.02
        assert rep.balance_gap < 0.01

    def test_balance_improves_with_m(self):
        assert (
            theoretical_costs(2000).balance_gap
            < theoretical_costs(200).balance_gap
        )

    def test_alpha_sensitivity(self):
        base = theoretical_costs(2000, 0.055)
        base_peak = max(base.exponent_classical, base.exponent_quantum)
        for alpha in (0.02, 0.1):
            rep = theoretical_costs(2000, alpha)
            assert max(rep.exponent_classical, rep.exponent_quantum) > base_peak

    def test_quantum_count_small_m(self):
        rep = theoretical_costs(8, 0.055)
        expected = math.sqrt(
            math.comb(8, 4) * math.comb(4, 2) * math.comb(2, 0)
        )
        assert rep.quantum_count == pytest.approx(expected, rel=1e-9)
