"""Golden reports: the exact outputs of the hybrid solver on fixed instances.

Each report is (length, trail, ledger per level, classical entries) for a
deterministic solve and for stochastic solves at seeds 0, 1 and 2; at the
benchmark's sizes (m = 12 and 13) for a deterministic solve and, at m = 12,
a stochastic solve at seed 0.  At m = 8
the value and the rebuilt trail of `solve_recursive` over the full edge set
are pinned for every ordered edge pair, in both modes.  The literals are
recorded outputs, not derived ones: a change to a tie-break, to the order in
which the stochastic stream is drawn, or to the charge accounting shows up
here as a mismatch.
"""

import pytest

from longtrail.graphs import random_graph, validate_trail
from longtrail.hybrid import (
    HybridConfig,
    SolveContext,
    reconstruct_from_witness,
    solve_hybrid,
    solve_recursive,
)

# name -> random_graph(n, m, seed) arguments
INSTANCES = {
    "m8a": (6, 8, 11),
    "m8b": (5, 8, 12),
    "m10a": (8, 10, 4),
    "m10b": (7, 10, 6),
    # The benchmark's sizes, loop-heavy (6 and 7 self-loops): at m = 13 the
    # classical layer steps from k_pre = 3 to 4.
    "m12": (4, 12, 9),
    "m13": (4, 13, 2),
}

# (instance, mode, seed) -> (length, trail, ledger per level, classical entries)
REPORTS = {
    ('m8a', 'deterministic', 0): (
        6, (0, 2, 3, 1, 4, 5),
        {'level0': 8075, 'level1': 14280, 'level2': 5192, 'level3': 333}, 170),
    ('m8a', 'stochastic', 0): (
        6, (0, 2, 3, 1, 4, 5),
        {'level0': 2513, 'level1': 46369, 'level2': 22648, 'level3': 1815}, 170),
    ('m8a', 'stochastic', 1): (
        6, (0, 2, 3, 1, 4, 5),
        {'level0': 2579, 'level1': 46155, 'level2': 22616, 'level3': 1820}, 170),
    ('m8a', 'stochastic', 2): (
        6, (0, 2, 3, 1, 4, 5),
        {'level0': 2536, 'level1': 46545, 'level2': 22719, 'level3': 1816}, 170),
    ('m8b', 'deterministic', 0): (
        8, (0, 4, 6, 1, 3, 5, 7, 2),
        {'level0': 9310, 'level1': 16310, 'level2': 6110, 'level3': 414}, 196),
    ('m8b', 'stochastic', 0): (
        8, (0, 4, 6, 1, 3, 5, 7, 2),
        {'level0': 9120, 'level1': 59714, 'level2': 28462, 'level3': 2521}, 196),
    ('m8b', 'stochastic', 1): (
        8, (0, 4, 6, 1, 3, 5, 7, 2),
        {'level0': 9288, 'level1': 59597, 'level2': 28604, 'level3': 2529}, 196),
    ('m8b', 'stochastic', 2): (
        8, (0, 4, 6, 1, 3, 5, 7, 2),
        {'level0': 9294, 'level1': 59538, 'level2': 28585, 'level3': 2541}, 196),
    ('m10a', 'deterministic', 0): (
        8, (4, 6, 2, 1, 0, 5, 8, 7),
        {'level0': 58870, 'level1': 320740, 'level2': 20300}, 2610),
    ('m10a', 'stochastic', 0): (
        8, (4, 6, 2, 1, 0, 5, 8, 7),
        {'level0': 5735, 'level1': 439355, 'level2': 90316}, 2610),
    ('m10a', 'stochastic', 1): (
        8, (4, 6, 2, 1, 0, 5, 8, 7),
        {'level0': 5819, 'level1': 440044, 'level2': 90089}, 2610),
    ('m10a', 'stochastic', 2): (
        8, (4, 6, 2, 1, 0, 5, 8, 7),
        {'level0': 5746, 'level1': 439619, 'level2': 90262}, 2610),
    ('m10b', 'deterministic', 0): (
        8, (0, 2, 5, 9, 8, 7, 6, 3),
        {'level0': 52374, 'level1': 285348, 'level2': 18060}, 2322),
    ('m10b', 'stochastic', 0): (
        8, (0, 2, 5, 9, 8, 7, 6, 3),
        {'level0': 10066, 'level1': 442322, 'level2': 84406}, 2322),
    ('m10b', 'stochastic', 1): (
        8, (0, 2, 5, 9, 8, 7, 6, 3),
        {'level0': 9743, 'level1': 442611, 'level2': 84189}, 2322),
    ('m10b', 'stochastic', 2): (
        8, (0, 2, 5, 9, 8, 7, 6, 3),
        {'level0': 9886, 'level1': 442644, 'level2': 84369}, 2322),
    ('m12', 'deterministic', 0): (
        11, (0, 4, 6, 5, 2, 3, 7, 9, 8, 10, 1),
        {'level0': 253134, 'level1': 1975680, 'level2': 244755}, 3234),
    ('m12', 'stochastic', 0): (
        11, (0, 4, 6, 5, 2, 3, 7, 9, 8, 10, 1),
        {'level0': 26715, 'level1': 3861431, 'level2': 950995}, 3234),
    ('m13', 'deterministic', 0): (
        12, (0, 2, 5, 6, 1, 10, 12, 4, 8, 11, 9, 7),
        {'level0': 511830, 'level1': 8439750, 'level2': 190575}, 22110),
}

# (instance, mode) -> row v, column u: (L(E, v, u), rebuilt trail); seed 0
PAIRS = {
    ('m8a', 'deterministic'): [
        [(1, (0,)), (4, (0, 2, 3, 1)), (3, (0, 3, 2)), (3, (0, 2, 3)),
         (5, (0, 2, 3, 1, 4)), (6, (0, 2, 3, 1, 4, 5)), (None, None),
         (4, (0, 3, 2, 7))],
        [(4, (1, 3, 2, 0)), (1, (1,)), (4, (1, 0, 3, 2)), (4, (1, 0, 2, 3)),
         (2, (1, 4)), (3, (1, 4, 5)), (None, None), (4, (1, 3, 0, 7))],
        [(3, (2, 3, 0)), (4, (2, 3, 0, 1)), (1, (2,)), (3, (2, 0, 3)),
         (5, (2, 3, 0, 1, 4)), (6, (2, 3, 0, 1, 4, 5)), (None, None),
         (4, (2, 3, 0, 7))],
        [(3, (3, 2, 0)), (4, (3, 2, 0, 1)), (3, (3, 0, 2)), (1, (3,)),
         (5, (3, 2, 0, 1, 4)), (6, (3, 2, 0, 1, 4, 5)), (None, None),
         (4, (3, 2, 0, 7))],
        [(5, (4, 1, 3, 2, 0)), (2, (4, 1)), (5, (4, 1, 0, 3, 2)), (5, (4, 1, 0, 2, 3)),
         (1, (4,)), (2, (4, 5)), (None, None), (5, (4, 1, 0, 3, 7))],
        [(6, (5, 4, 1, 3, 2, 0)), (3, (5, 4, 1)), (6, (5, 4, 1, 0, 3, 2)),
         (6, (5, 4, 1, 0, 2, 3)), (2, (5, 4)), (1, (5,)), (None, None),
         (6, (5, 4, 1, 0, 3, 7))],
        [(None, None), (None, None), (None, None), (None, None), (None, None),
         (None, None), (1, (6,)), (None, None)],
        [(4, (7, 2, 3, 0)), (4, (7, 0, 3, 1)), (4, (7, 0, 3, 2)), (4, (7, 0, 2, 3)),
         (5, (7, 3, 0, 1, 4)), (6, (7, 3, 0, 1, 4, 5)), (None, None), (1, (7,))],
    ],
    ('m8b', 'deterministic'): [
        [(1, (0,)), (7, (0, 5, 7, 2, 4, 6, 1)), (8, (0, 4, 6, 1, 3, 5, 7, 2)),
         (8, (0, 5, 7, 2, 4, 6, 1, 3)), (8, (0, 2, 6, 1, 3, 5, 7, 4)),
         (8, (0, 3, 1, 6, 2, 4, 7, 5)), (7, (0, 4, 7, 5, 3, 1, 6)),
         (8, (0, 5, 3, 1, 6, 2, 4, 7))],
        [(7, (1, 6, 4, 2, 7, 5, 0)), (1, (1,)), (7, (1, 6, 4, 0, 5, 7, 2)),
         (7, (1, 6, 2, 4, 7, 5, 3)), (7, (1, 6, 2, 0, 5, 7, 4)),
         (6, (1, 6, 2, 4, 7, 5)), (7, (1, 3, 5, 7, 4, 2, 6)), (6, (1, 6, 2, 0, 5, 7))],
        [(8, (2, 7, 5, 3, 1, 6, 4, 0)), (7, (2, 7, 5, 0, 4, 6, 1)), (1, (2,)),
         (8, (2, 4, 0, 5, 7, 6, 1, 3)), (7, (2, 6, 1, 3, 5, 0, 4)),
         (8, (2, 4, 0, 3, 1, 6, 7, 5)), (7, (2, 4, 0, 5, 3, 1, 6)),
         (8, (2, 4, 0, 5, 3, 1, 6, 7))],
        [(8, (3, 1, 6, 4, 2, 7, 5, 0)), (7, (3, 5, 7, 4, 2, 6, 1)),
         (8, (3, 1, 6, 7, 5, 0, 4, 2)), (1, (3,)), (8, (3, 1, 6, 2, 0, 5, 7, 4)),
         (7, (3, 1, 6, 2, 4, 7, 5)), (6, (3, 5, 7, 4, 2, 6)),
         (7, (3, 1, 6, 2, 0, 5, 7))],
        [(8, (4, 7, 5, 3, 1, 6, 2, 0)), (7, (4, 7, 5, 0, 2, 6, 1)),
         (7, (4, 6, 1, 3, 5, 0, 2)), (8, (4, 7, 5, 0, 2, 6, 1, 3)), (1, (4,)),
         (8, (4, 2, 0, 3, 1, 6, 7, 5)), (7, (4, 2, 0, 5, 3, 1, 6)),
         (8, (4, 2, 0, 5, 3, 1, 6, 7))],
        [(8, (5, 7, 4, 2, 6, 1, 3, 0)), (6, (5, 7, 4, 0, 3, 1)),
         (8, (5, 7, 6, 1, 3, 0, 4, 2)), (7, (5, 7, 4, 2, 6, 1, 3)),
         (8, (5, 7, 6, 1, 3, 0, 2, 4)), (1, (5,)), (7, (5, 0, 2, 7, 3, 1, 6)),
         (7, (5, 3, 1, 6, 2, 4, 7))],
        [(7, (6, 1, 3, 5, 7, 4, 0)), (7, (6, 2, 4, 7, 5, 3, 1)),
         (7, (6, 1, 3, 5, 7, 4, 2)), (6, (6, 2, 4, 7, 5, 3)),
         (7, (6, 1, 3, 5, 7, 2, 4)), (7, (6, 1, 3, 7, 2, 0, 5)), (1, (6,)),
         (7, (6, 1, 3, 5, 0, 4, 7))],
        [(8, (7, 4, 2, 6, 1, 3, 5, 0)), (6, (7, 5, 0, 2, 6, 1)),
         (8, (7, 6, 1, 3, 5, 0, 4, 2)), (7, (7, 5, 0, 2, 6, 1, 3)),
         (8, (7, 6, 1, 3, 5, 0, 2, 4)), (7, (7, 3, 1, 6, 2, 0, 5)),
         (7, (7, 4, 0, 5, 3, 1, 6)), (1, (7,))],
    ],
}
# Recorded, and equal to the deterministic pairs: at the default budget
# constant every stochastic search returns its first maximum.
PAIRS.update({(name, "stochastic"): PAIRS[name, "deterministic"] for name in ("m8a", "m8b")})


@pytest.mark.parametrize("key", sorted(REPORTS), ids=lambda key: "-".join(map(str, key)))
def test_report(key):
    name, mode, seed = key
    g = random_graph(*INSTANCES[name])
    res = solve_hybrid(g, HybridConfig(mode=mode, seed=seed))
    got = (res.length, res.trail, dict(res.ledger.per_level), res.classical_entries)
    assert got == REPORTS[key]


@pytest.mark.parametrize("key", sorted(PAIRS), ids="-".join)
def test_every_pair(key):
    name, mode = key
    g = random_graph(*INSTANCES[name])
    ctx = SolveContext.create(g, HybridConfig(mode=mode, seed=0))
    E = g.full_edge_set
    for v, row in enumerate(PAIRS[key]):
        for u, (want_val, want_trail) in enumerate(row):
            val, wit = solve_recursive(ctx, E, v, u)
            trail = None
            if wit is not None:
                trail = tuple(reconstruct_from_witness(wit, ctx.table))
                assert validate_trail(g, trail).ok
            assert (val, trail) == (want_val, want_trail), (v, u)
