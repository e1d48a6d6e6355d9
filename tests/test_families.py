"""Known-answer families past the oracle's ceiling.

The benchmark's `perfbench/families.py` builds instances whose longest trail
is known by construction; it is loaded from there, not copied.  Each instance
goes through the program as text, relabelled and shuffled from one seed.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from longtrail import HybridConfig, full_dp_longest_trail, parse_graph, solve_hybrid, validate_trail
from longtrail.graphs import ParityBound

_spec = importlib.util.spec_from_file_location(
    "families", Path(__file__).resolve().parents[1] / "perfbench" / "families.py")
families = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(families)

# The DP prunes no parallel copies, so loop bouquets and parallel bundles
# cost it seconds from m = 18 on; the other families take milliseconds.
CHEAP = ("star", "triangle_chain", "circuit_with_pendant", "disjoint_union")
MANY_COPIES = ("loop_bouquet", "parallel_bundle")


def _instance(name: str, m: int):
    """(graph, known longest-trail length) of one family member, seeded by m."""
    rnd = random.Random(m)
    n, edges, known = families.FAMILIES[name](rnd, m)
    n, edges = families.relabel(n, edges, rnd)
    return parse_graph(families.instance_text(n, edges)), known


def _check(g, length, trail, known):
    assert length == known
    assert len(trail) == length and validate_trail(g, trail).ok
    assert length <= ParityBound(g).whole


@pytest.mark.parametrize("name, m", [(name, m) for name in CHEAP for m in (15, 18, 20)]
                         + [(name, 15) for name in MANY_COPIES])
def test_dp_finds_the_known_length(name, m):
    g, known = _instance(name, m)
    res = full_dp_longest_trail(g)
    _check(g, res.length, res.trail, known)


@pytest.mark.parametrize("name", CHEAP + MANY_COPIES)
def test_deterministic_hybrid_finds_the_known_length(name):
    g, known = _instance(name, 12)
    res = solve_hybrid(g, HybridConfig())
    _check(g, res.length, res.trail, known)
