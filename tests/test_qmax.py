import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtrail.qmax import (
    QueryLedger,
    ValueOracle,
    boosted_qmax,
    grover_stage_cost,
    qmax_durr_hoyer,
    qmax_exhaustive,
)


def shuffled_range(n, seed):
    vals = list(range(n))
    random.Random(seed).shuffle(vals)
    return vals


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
        led = QueryLedger()
        out = qmax_exhaustive(ValueOracle.from_values([3, 1, 4, 1, 5]), led)
        assert (out.value, out.witness_index, out.queries_charged) == (5, 4, 5)
        assert led.total == 5

    def test_all_none(self):
        out = qmax_exhaustive(ValueOracle.from_values([None, None]), QueryLedger())
        assert out.value is None and out.witness_index is None
        assert out.queries_charged == 2

    def test_singleton(self):
        out = qmax_exhaustive(ValueOracle.from_values([7]), QueryLedger())
        assert (out.value, out.witness_index, out.queries_charged) == (7, 0, 1)

    def test_smallest_witness_on_ties(self):
        out = qmax_exhaustive(ValueOracle.from_values([2, 9, 9, 9]), QueryLedger())
        assert out.witness_index == 1


class TestDurrHoyer:
    def test_single_element(self):
        out = qmax_durr_hoyer(
            ValueOracle.from_values([4]), random.Random(0), QueryLedger()
        )
        assert out.value == 4 and out.witness_index == 0
        assert out.queries_charged >= 1

    def test_all_equal_costs_one_query(self):
        for seed in range(30):
            out = qmax_durr_hoyer(
                ValueOracle.from_values([6] * 10), random.Random(seed), QueryLedger()
            )
            assert out.value == 6
            assert out.queries_charged == 1

    def test_success_rate_n256(self):
        hits = 0
        for seed in range(400):
            out = qmax_durr_hoyer(
                ValueOracle.from_values(shuffled_range(256, seed)),
                random.Random(seed * 31 + 7),
                QueryLedger(),
            )
            hits += out.value == 255
        assert hits / 400 >= 0.9

    def test_generous_budget_always_finds_max(self):
        # The threshold can only move strictly upward, so without a budget
        # stop the run must end at the true maximum.
        for seed in range(60):
            vals = shuffled_range(40, seed)
            out = qmax_durr_hoyer(
                ValueOracle.from_values(vals),
                random.Random(seed),
                QueryLedger(),
                budget_constant=1e9,
            )
            assert out.value == 39

    def test_tiny_budget_still_returns_genuine_element(self):
        for seed in range(60):
            vals = shuffled_range(64, seed)
            out = qmax_durr_hoyer(
                ValueOracle.from_values(vals),
                random.Random(seed),
                QueryLedger(),
                budget_constant=0.5,
            )
            assert out.value in vals
            assert vals[out.witness_index] == out.value


class TestBoosted:
    def test_repeats_one_equals_single_run(self):
        vals = shuffled_range(64, 5)
        o = ValueOracle.from_values(vals)
        a = boosted_qmax(o, 1, random.Random(77), QueryLedger())
        b = qmax_durr_hoyer(o, random.Random(77), QueryLedger())
        assert a == b

    def test_boosting_success_rate(self):
        hits = 0
        for seed in range(300):
            out = boosted_qmax(
                ValueOracle.from_values(shuffled_range(256, seed)),
                8,
                random.Random(seed),
                QueryLedger(),
            )
            hits += out.value == 255
        assert hits / 300 >= 0.999

    def test_all_none_absorbs(self):
        out = boosted_qmax(
            ValueOracle.from_values([None] * 6), 5, random.Random(1), QueryLedger()
        )
        assert out.value is None and out.witness_index is None
        assert out.queries_charged == 5  # one initial sample per repeat

    def test_charges_sum_over_repeats(self):
        led = QueryLedger()
        out = boosted_qmax(
            ValueOracle.from_values(shuffled_range(128, 3)),
            6,
            random.Random(9),
            led,
            level=2,
        )
        assert led.per_level == {"level2": out.queries_charged}

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            boosted_qmax(
                ValueOracle.from_values([1]), 0, random.Random(0), QueryLedger()
            )


values_strategy = st.lists(
    st.one_of(st.none(), st.integers(0, 50)), min_size=1, max_size=40
)


class TestOneSidedError:
    @settings(max_examples=120)
    @given(values_strategy, st.integers(0, 2**32), st.floats(0.3, 30.0))
    def test_outcome_is_genuine(self, vals, seed, budget_constant):
        out = qmax_durr_hoyer(
            ValueOracle.from_values(vals),
            random.Random(seed),
            QueryLedger(),
            budget_constant=budget_constant,
        )
        real = [v for v in vals if v is not None]
        if out.value is None:
            assert out.witness_index is None
        else:
            assert vals[out.witness_index] == out.value
            assert out.value <= max(real)

    @settings(max_examples=60)
    @given(values_strategy, st.integers(0, 2**32))
    def test_boosting_never_hurts(self, vals, seed):
        o = ValueOracle.from_values(vals)
        single = qmax_durr_hoyer(o, random.Random(seed), QueryLedger())
        boosted = boosted_qmax(o, 6, random.Random(seed), QueryLedger())
        if single.value is not None:
            assert boosted.value is not None
            assert boosted.value >= single.value


class TestLedger:
    def test_replay_is_identical(self):
        vals = shuffled_range(512, 11)
        runs = []
        for _ in range(2):
            led = QueryLedger()
            out = boosted_qmax(
                ValueOracle.from_values(vals), 4, random.Random(42), led, level=1
            )
            runs.append((out, led.per_level))
        assert runs[0] == runs[1]

    def test_total_is_sum(self):
        led = QueryLedger()
        led.charge(0, 5)
        led.charge("level1", 7)
        led.charge(0, 2)
        assert led.per_level == {"level0": 7, "level1": 7}
        assert led.total == 14

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            QueryLedger().charge(0, -1)


class TestValueOracle:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            ValueOracle.from_values([])

    def test_numpy_values(self):
        import numpy as np

        arr = np.random.default_rng(0).permutation(256)
        out = qmax_durr_hoyer(
            ValueOracle.from_values(arr), random.Random(3), QueryLedger()
        )
        assert out.value == 255
        out = qmax_exhaustive(ValueOracle.from_values(arr), QueryLedger())
        assert (out.value, out.witness_index) == (255, int(np.argmax(arr)))
