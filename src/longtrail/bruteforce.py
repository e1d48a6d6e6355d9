"""Exhaustive ground-truth engines for the longest trail.

Deliberately the simplest correct implementation: depth-first extension of
walks over (current head vertex, used-edge bitmask), comparing every maximal
extension.  Used to validate every other engine, so it shares no machinery
with the DP or hybrid solvers.

The only concession to speed is a symmetry prune: edges with identical
endpoint pairs are interchangeable inside a walk, so among unused parallel
copies only the lowest-indexed one is extended.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, check_edge_budget, validate_trail

BRUTE_FORCE_MAX_EDGES = 14


@dataclass(frozen=True)
class OracleResult:
    length: int
    trail: tuple[int, ...]


def _lower_copies(g: Graph) -> list[int]:
    """Per edge, the mask of its lower-indexed parallel copies."""
    seen: dict[tuple[int, int], int] = {}
    lower = []
    for i, (u, v) in enumerate(g.edges):
        key = (u, v) if u <= v else (v, u)
        lower.append(seen.get(key, 0))
        seen[key] = lower[i] | 1 << i
    return lower


def longest_trail_bruteforce(g: Graph) -> OracleResult:
    """Exact longest edge-simple walk by exhaustive DFS."""
    m = g.edge_count
    check_edge_budget(m, BRUTE_FORCE_MAX_EDGES, "brute-force oracle")
    if m == 0:
        return OracleResult(0, ())
    lower = _lower_copies(g)
    edges = g.edges
    vmasks = g.vertex_edge_masks
    best_len = 0
    best: list[int] = []
    path: list[int] = []

    def extend(head: int, used: int) -> None:
        nonlocal best_len, best
        if len(path) > best_len:
            best_len = len(path)
            best = path[:]
        avail = vmasks[head] & ~used
        while avail:
            low = avail & -avail
            e = low.bit_length() - 1
            avail ^= low
            if used & lower[e] != lower[e]:
                continue  # a lower parallel copy is unused
            u, v = edges[e]
            path.append(e)
            extend(v if u == head else u, used | 1 << e)
            path.pop()

    for e in range(m):
        if lower[e]:
            continue  # parallel copies are equivalent as a starting edge
        u, v = edges[e]
        path.append(e)
        heads = (v, u) if u != v else (u,)
        for head in heads:
            extend(head, 1 << e)
        path.pop()
    verdict = validate_trail(g, best)
    if not verdict.ok:
        raise AssertionError(f"oracle produced an invalid trail: {verdict.reason}")
    return OracleResult(best_len, tuple(best))
