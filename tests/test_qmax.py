import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from longtrail.qmax import QueryLedger, _plan, _run, boosted, exhaustive, grover_stage_cost

from boosted_reference import sorted_boosted


def shuffled_range(n, seed):
    vals = list(range(n))
    random.Random(seed).shuffle(vals)
    return vals


def single(values, seed, budget_constant=23.0):
    """One unboosted threshold-search run on a fresh seeded stream."""
    return boosted(values, 1, random.Random(seed).random, budget_constant)


def budget_free(values, budget_constant):
    """Whether `boosted` samples the search: no trajectory could meet the
    budget even with the k classes below the top at the costliest starts
    t = 1..k, as 1 + their stage costs fit it (a nan budget stops no stage)."""
    N, below = len(values), len(set(values)) - 1
    worst = 1 + sum(grover_stage_cost(N, t) for t in range(1, below + 1))
    return not worst > budget_constant * math.ceil(math.sqrt(N))


class TestStageCost:
    def test_known_values(self):
        assert grover_stage_cost(16, 1) == 4
        assert grover_stage_cost(16, 16) == 1
        assert grover_stage_cost(1024, 1) == 26

    def test_bounds(self):
        with pytest.raises(ValueError):
            grover_stage_cost(8, 0)
        with pytest.raises(ValueError):
            grover_stage_cost(8, 9)


class TestExhaustive:
    def test_scan(self):
        assert exhaustive([3, 1, 4, 1, 5]) == (5, 4, 5)

    def test_all_none(self):
        # The caller's "no value" (-1 here, 0 in the hybrid) is an ordinary
        # value to the search; the scan still charges every index.
        assert exhaustive([-1, -1]) == (-1, 0, 2)

    def test_singleton(self):
        assert exhaustive([7]) == (7, 0, 1)

    def test_smallest_witness_on_ties(self):
        assert exhaustive([2, 9, 9, 9])[1] == 1


class TestDurrHoyer:
    def test_single_element(self):
        value, index, charged = single([4], 0)
        assert (value, index) == (4, 0)
        assert charged >= 1

    def test_all_equal_costs_one_query(self):
        for seed in range(30):
            value, _, charged = single([6] * 10, seed)
            assert value == 6
            assert charged == 1

    def test_success_rate_n256(self):
        hits = 0
        for seed in range(400):
            hits += single(shuffled_range(256, seed), seed * 31 + 7)[0] == 255
        assert hits / 400 >= 0.9

    def test_generous_budget_always_finds_max(self):
        # The threshold can only move strictly upward, so without a budget
        # stop the run must end at the true maximum.
        for seed in range(60):
            assert single(shuffled_range(40, seed), seed, budget_constant=1e9)[0] == 39

    def test_tiny_budget_still_returns_genuine_element(self):
        for seed in range(60):
            vals = shuffled_range(64, seed)
            value, index, _ = single(vals, seed, budget_constant=0.5)
            assert vals[index] == value


class TestBoosted:
    def test_repeats_one_equals_single_run(self):
        vals = shuffled_range(64, 5)
        assert boosted(vals, 1, random.Random(77).random, 23.0) == single(vals, 77)

    def test_boosting_success_rate(self):
        hits = 0
        for seed in range(300):
            hits += boosted(shuffled_range(256, seed), 8, random.Random(seed).random, 23.0)[0] == 255
        assert hits / 300 >= 0.999

    def test_all_none_absorbs(self):
        value, index, charged = boosted([-1] * 6, 5, random.Random(1).random, 23.0)
        assert value == -1 and 0 <= index < 6
        assert charged == 5  # one initial sample per repeat

    def test_charges_sum_over_repeats(self):
        # The repeats of a search that is not budget-free are single runs on
        # consecutive segments of one stream: the charges add up and the
        # first best outcome wins.
        vals = shuffled_range(256, 3)
        assert not budget_free(vals, 23.0)
        rnd = random.Random(9).random
        runs = [boosted(vals, 1, rnd, 23.0) for _ in range(6)]
        value, index, charged = boosted(vals, 6, random.Random(9).random, 23.0)
        assert charged == sum(run[2] for run in runs)
        assert (value, index) == max(runs, key=lambda run: run[0])[:2]

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            boosted([1], 0, random.Random(0).random, 23.0)


values_strategy = st.lists(st.integers(-1, 50), min_size=1, max_size=40)


class TestOneSidedError:
    @settings(max_examples=120)
    @given(values_strategy, st.integers(0, 2**32), st.floats(0.3, 30.0))
    def test_outcome_is_genuine(self, vals, seed, budget_constant):
        value, index, _ = single(vals, seed, budget_constant)
        assert vals[index] == value
        assert value <= max(vals)

    @settings(max_examples=60)
    @given(values_strategy, st.integers(0, 2**32))
    def test_boosting_never_hurts(self, vals, seed):
        value = boosted(vals, 6, random.Random(seed).random, 23.0)[0]
        assert value >= single(vals, seed)[0]


class TestLedger:
    def test_replay_is_identical(self):
        vals = shuffled_range(512, 11)
        runs = [boosted(vals, 4, random.Random(42).random, 23.0) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_total_is_sum(self):
        led = QueryLedger({"level1": 7, "level0": 7})
        assert led.total == 14
        assert led.as_dict() == {"total": 14, "per_level": {"level0": 7, "level1": 7}}


class TestValueOracle:
    """The value sequence a search queries."""

    def test_size_validation(self):
        with pytest.raises(ValueError):
            exhaustive([])
        with pytest.raises(ValueError):
            boosted(b"", 1, random.Random(0).random, 23.0)


_TIES = [3, 7, 7, 1, 7, 0, 2, 7, 5, 7, 6, 7]
# A searched slot as the hybrid hands it over: one byte per candidate, 0 for
# "no walk".
_CELLS = bytes([0, 5, 0, 3, 7, 0, 7, 2, 0, 0, 6, 7, 1, 0, 4, 7])

# (values, repeats, stream seed, budget constant) -> (value, index, charged);
# repeats None is the exhaustive scan.
_GOLDEN = [
    (shuffled_range(256, 1), None, None, None, (255, 226, 256)),
    (_TIES, None, None, None, (7, 1, 12)),
    (_CELLS, None, None, None, (7, 4, 16)),
    (shuffled_range(256, 2), 1, 3, 23.0, (255, 79, 24)),
    (shuffled_range(256, 2), 8, 3, 23.0, (255, 79, 230)),
    (_TIES, 1, 4, 23.0, (7, 1, 1)),
    (_TIES, 8, 4, 23.0, (7, 1, 9)),
    ([6] * 10, 8, 5, 23.0, (6, 0, 8)),
    ([4], 1, 6, 23.0, (4, 0, 1)),
    (_CELLS, 1, 7, 23.0, (7, 4, 1)),
    (_CELLS, 8, 7, 23.0, (7, 4, 15)),
    (shuffled_range(256, 8), 1, 9, 0.5, (249, 172, 5)),
    (shuffled_range(256, 8), 8, 9, 0.5, (255, 236, 45)),
    (shuffled_range(256, 10), 1, 11, 1e9, (255, 191, 25)),
]


def test_golden_outcomes():
    """Exact (value, index, charged) of seeded searches.  The tuples were
    recorded from the wrappers these cores replaced, `qmax_exhaustive` and
    `boosted_qmax` (and, for bytes, which those did not take, from the cores
    as the hybrid called them); the budget-free ones (every case at 23 but
    the 256 distinct values, and 1e9) again when those came to be sampled."""
    for values, repeats, seed, budget, want in _GOLDEN:
        got = (exhaustive(values) if repeats is None
               else boosted(values, repeats, random.Random(seed).random, budget))
        assert got == want, (values, repeats, seed, budget)


# Up to 400 values in a few classes (as the hybrid's bytes), in many, or all
# distinct.
search_values = st.one_of(
    st.tuples(st.integers(1, 400), st.sampled_from([1, 3, 40, 1000])).flatmap(
        lambda nk: st.lists(st.integers(0, nk[1] - 1), min_size=nk[0], max_size=nk[0])),
    st.integers(1, 400).flatmap(lambda n: st.permutations(range(n))),
)


class TestMatchesSortingReference:
    """A search `boosted` does not sample walks the reference's trajectories:
    the same outcome, and the stream left where the reference leaves it.  A
    sampled one returns the maximum and its first index and draws once per
    class below the top (its charge's distribution is `TestSampledCharge`'s)."""

    @settings(max_examples=300)
    @given(
        search_values,
        st.booleans(),
        st.integers(1, 30),
        st.sampled_from([0.5, 2.0, 23.0, 1e9, math.nan]),
        st.integers(0, 2**32),
    )
    def test_same_outcome_and_stream(self, vals, as_bytes, repeats, budget_constant, seed):
        vals = bytes(vals) if as_bytes and max(vals) < 256 else list(vals)
        got_rnd, want_rnd = random.Random(seed), random.Random(seed)
        got = boosted(vals, repeats, got_rnd.random, budget_constant)
        if budget_free(vals, budget_constant):
            top, below = max(vals), len(set(vals)) - 1
            assert got[:2] == (top, vals.index(top))
            assert repeats <= got[2] <= repeats * (1 + grover_stage_cost(len(vals), 1) * below)
            for _ in range(below):
                want_rnd.random()
        else:
            assert got == sorted_boosted(vals, repeats, want_rnd.random, budget_constant)
        assert got_rnd.random() == want_rnd.random()

    # Classes 3 (1 value), 2 (3) and 1 (12) start at t = 0, 1 and 4 of N = 16,
    # so a trajectory charges at most 1 + cost(16, 1) + cost(16, 4) = 1 + 4 + 2
    # queries, and the budget is budget_constant * 4: 1.75 makes the search
    # budget-free at exactly 7, 1.5 puts it one query over, and a nan budget
    # stops no stage.  `boosted` samples a search only if its two lower
    # classes could not meet the budget at the costliest starts either,
    # 1 + cost(16, 1) + cost(16, 2) = 8: 2.0 does that at exactly 8, and
    # 1.75 walks its trajectories, none of which can stop.
    _BOUNDARY = [1, 2, 1, 1, 2, 1, 3, 1, 1, 1, 2, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("budget_constant, free",
                             [(1.75, True), (1.5, False), (math.nan, True), (2.0, True)])
    @pytest.mark.parametrize("repeats", [1, 6])
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_budget_free_boundary(self, budget_constant, free, repeats, as_bytes):
        assert 1 + grover_stage_cost(16, 1) + grover_stage_cost(16, 4) == 7
        assert 1 + grover_stage_cost(16, 1) + grover_stage_cost(16, 2) == 8
        vals = bytes(self._BOUNDARY) if as_bytes else self._BOUNDARY
        sampled = budget_free(vals, budget_constant)
        assert sampled is (not 8 > budget_constant * 4)
        found = set()
        for seed in range(300):
            got_rnd, want_rnd = random.Random(seed), random.Random(seed)
            got = boosted(vals, repeats, got_rnd.random, budget_constant)
            if sampled:
                assert got[:2] == (3, 6) and repeats <= got[2] <= 7 * repeats, seed
                want_rnd.random(), want_rnd.random()  # one draw per class below the top
            else:
                assert got == sorted_boosted(vals, repeats, want_rnd.random, budget_constant), seed
            assert got_rnd.random() == want_rnd.random(), seed
            found.add(got[0])
        # Only a budget stop can end below the top class.
        assert (found == {3}) is free


class TestPlanReuse:
    """A plan is built once per array and run per search: k runs of one plan
    on one stream are k `boosted` calls on a twin stream, whether the plan
    samples (few classes at 23) or walks (most arrays at 0.5)."""

    @settings(max_examples=150, deadline=None)
    @given(search_values, st.booleans(), st.integers(1, 30), st.sampled_from([0.5, 23.0]),
           st.integers(1, 5), st.integers(0, 2**32))
    @example([1, 2, 1, 1, 2, 1, 3, 1], False, 6, 23.0, 4, 1)
    @example(shuffled_range(256, 3), True, 8, 0.5, 4, 2)
    def test_runs_equal_boosted_calls(self, vals, as_bytes, repeats, budget_constant, k, seed):
        vals = bytes(vals) if as_bytes and max(vals) < 256 else list(vals)
        got_rnd, want_rnd = random.Random(seed), random.Random(seed)
        plan = _plan(vals, repeats, budget_constant)
        assert (plan[3] is None) is budget_free(vals, budget_constant)
        for _ in range(k):
            value, j, charged = _run(plan, repeats, got_rnd.random)
            index = [i for i, x in enumerate(vals) if x == value][j]
            assert boosted(vals, repeats, want_rnd.random, budget_constant) == (value, index, charged)
        assert got_rnd.random() == want_rnd.random()


def moments(xs):
    """Sample mean, variance, and the standard errors of both."""
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    fourth = sum((x - mean) ** 4 for x in xs) / n
    return mean, var, math.sqrt(var / n), math.sqrt(max(fourth - var * var, 0.0) / n)


# Budget-free shapes: up to 60 values in up to 8 classes at the default
# constant, or in any number of classes with no budget at all.
free_searches = st.one_of(
    st.tuples(st.integers(1, 60).flatmap(
        lambda n: st.lists(st.integers(0, 7), min_size=n, max_size=n)), st.just(23.0)),
    st.tuples(st.integers(1, 60).flatmap(
        lambda n: st.lists(st.integers(0, 255), min_size=n, max_size=n)),
        st.sampled_from([1e9, math.nan])),
)


class TestSampledCharge:
    """A budget-free search's sampled charge against the trajectories it
    stands for: over the same 1,500 pinned seeds, the sampler's and
    `sorted_boosted`'s charges agree in mean and variance within six
    standard errors of the difference (each sample's own), and the sampler
    returns exactly the maximum and its first index."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(free_searches, st.booleans(), st.integers(1, 30))
    def test_charge_moments_match_trajectories(self, search, as_bytes, repeats):
        vals, budget_constant = search
        vals = bytes(vals) if as_bytes else vals
        assume(budget_free(vals, budget_constant))
        top = max(vals)
        got, want = [], []
        for seed in range(1500):
            value, index, charged = boosted(vals, repeats, random.Random(seed).random, budget_constant)
            assert (value, index) == (top, vals.index(top))
            got.append(charged)
            want.append(sorted_boosted(vals, repeats, random.Random(seed).random, budget_constant)[2])
        (g_mean, g_var, g_mean_se, g_var_se), (w_mean, w_var, w_mean_se, w_var_se) = map(
            moments, (got, want))
        assert abs(g_mean - w_mean) <= 6 * math.hypot(g_mean_se, w_mean_se) + 1e-9
        assert abs(g_var - w_var) <= 6 * math.hypot(g_var_se, w_var_se) + 1e-9

    def test_many_repeats(self):
        # Two classes, each visited by about half of 2,000 trajectories at
        # cost(2, 1) = 2: the CDF's terms come from logs, as 2**-2000 underflows.
        charges = [boosted([0, 1], 2000, random.Random(seed).random, 23.0)[2] for seed in range(20)]
        assert all(2000 + 2 * 900 <= c <= 2000 + 2 * 1100 for c in charges)
        assert 2000 + 2 * 980 <= sum(charges) / 20 <= 2000 + 2 * 1020


def test_draws_need_no_clamp():
    # random() is at most 1 - 2**-53, so int(random() * t) is below t.
    top = 1 - 2 ** -53
    assert max(random.Random(0).random() for _ in range(1000)) <= top
    assert all(int(top * t) < t for t in range(1, 2 ** 16 + 1))
