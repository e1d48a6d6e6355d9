"""The three engines cross-checked: the exhaustive oracle, the subset DP and
both hybrid modes give one length on random graphs, each with a valid trail."""

from hypothesis import given, settings
from hypothesis import strategies as st

from longtrail.bruteforce import longest_trail_bruteforce
from longtrail.dp import full_dp_longest_trail
from longtrail.graphs import random_graph, validate_trail
from longtrail.hybrid import HybridConfig, solve_hybrid


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 9), st.integers(0, 2 ** 32))
def test_engines_agree_on_random_graphs(n, m, seed):
    # At the default budget constant every hybrid search is budget-free
    # (`TestBudgetFree`), so the stochastic length is the deterministic one
    # exactly, not merely at most it.
    g = random_graph(n, m, seed)
    results = {
        "oracle": longest_trail_bruteforce(g),
        "dp": full_dp_longest_trail(g),
        "hybrid-det": solve_hybrid(g, HybridConfig()),
        "hybrid-stoch": solve_hybrid(g, HybridConfig(mode="stochastic", seed=seed)),
    }
    lengths = {name: result.length for name, result in results.items()}
    assert len(set(lengths.values())) == 1, lengths
    for name, result in results.items():
        assert validate_trail(g, result.trail).ok, (name, result.trail)
        assert len(result.trail) == result.length, name
