"""Hand-computed cases for the benchmark's independent reference.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import families
import reference


def _check(n, edges, expected):
    length, walk = reference.longest_trail(n, edges)
    assert length == expected
    assert len(walk) == length and reference.walk_ok(edges, walk)
    lower, upper = reference.euler_bounds(n, edges)
    assert lower <= length <= upper


def test_star_gives_two():
    _check(5, [(0, 1), (0, 2), (0, 3), (0, 4)], 2)


def test_triangle_gives_three():
    _check(3, [(0, 1), (1, 2), (2, 0)], 3)


def test_loop_bouquet_gives_its_edge_count():
    _check(1, [(0, 0)] * 5, 5)


def test_eulerian_circuit_gives_m():
    # Two triangles sharing vertex 0: every degree is even.
    _check(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], 6)


def test_empty_and_single_edge():
    assert reference.longest_trail(3, []) == (0, [])
    _check(2, [(0, 1)], 1)


def test_walk_checker_rejects_non_walks():
    star = [(0, 1), (0, 2), (0, 3)]
    assert not reference.walk_ok(star, [0, 1, 2])  # pairwise incident only
    assert reference.walk_ok(star, [0, 1])
    assert not reference.walk_ok(star, [0, 0])  # repeated edge
    assert not reference.walk_ok(star, [3])  # out of range


def test_euler_bounds_on_two_components():
    # A triangle (Eulerian) beside a star with four odd vertices.
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (3, 5), (3, 6)]
    assert reference.euler_bounds(7, edges) == (3, 3)


def test_families_match_their_known_lengths():
    for _family, text, known in families.small_mix(7):
        n, edges = reference.read_text(text)
        length, _walk = reference.longest_trail(n, edges)
        assert known in (None, length)
