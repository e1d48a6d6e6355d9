import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtrail.qmax import QueryLedger, boosted, exhaustive, grover_stage_cost

from boosted_reference import sorted_boosted


def shuffled_range(n, seed):
    vals = list(range(n))
    random.Random(seed).shuffle(vals)
    return vals


def single(values, seed, budget_constant=23.0):
    """One unboosted threshold-search run on a fresh seeded stream."""
    return boosted(values, 1, random.Random(seed).random, budget_constant)


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
        # Repeats are single runs on consecutive segments of one stream: the
        # charges add up and the first best outcome wins.
        vals = shuffled_range(128, 3)
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
    (_TIES, 1, 4, 23.0, (7, 4, 1)),
    (_TIES, 8, 4, 23.0, (7, 4, 14)),
    ([6] * 10, 8, 5, 23.0, (6, 6, 8)),
    ([4], 1, 6, 23.0, (4, 0, 1)),
    (_CELLS, 1, 7, 23.0, (7, 4, 3)),
    (_CELLS, 8, 7, 23.0, (7, 4, 21)),
    (shuffled_range(256, 8), 1, 9, 0.5, (249, 172, 5)),
    (shuffled_range(256, 8), 8, 9, 0.5, (255, 236, 45)),
    (shuffled_range(256, 10), 1, 11, 1e9, (255, 191, 32)),
]


def test_golden_outcomes():
    """Exact (value, index, charged) of seeded searches.  The tuples were
    recorded from the wrappers these cores replaced, `qmax_exhaustive` and
    `boosted_qmax` (and, for bytes, which those did not take, from the cores
    as the hybrid called them)."""
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
    @settings(max_examples=300)
    @given(
        search_values,
        st.booleans(),
        st.integers(1, 30),
        st.sampled_from([0.5, 2.0, 23.0, 1e9]),
        st.integers(0, 2**32),
    )
    def test_same_outcome_and_stream(self, vals, as_bytes, repeats, budget_constant, seed):
        vals = bytes(vals) if as_bytes and max(vals) < 256 else list(vals)
        got_rnd, want_rnd = random.Random(seed), random.Random(seed)
        got = boosted(vals, repeats, got_rnd.random, budget_constant)
        want = sorted_boosted(vals, repeats, want_rnd.random, budget_constant)
        assert got == want
        assert got_rnd.random() == want_rnd.random()
