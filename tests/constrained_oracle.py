"""The per-state oracle, for tests: the longest walk inside an edge set with
pinned first and last edges, by exhaustive search.  It shares only the
parallel-copy prune with `longtrail.bruteforce`, and no code with the DP."""

from longtrail.bruteforce import BRUTE_FORCE_MAX_EDGES, _lower_copies
from longtrail.graphs import Graph, check_edge_budget


def constrained_longest_bruteforce(g: Graph, S: int, v: int, u: int) -> int | None:
    """Exact length of the longest walk inside edge-set S with first edge v
    and last edge u, or None when no such walk exists.

    "Inside S" is subset semantics: the walk may use any edges of S, not
    necessarily all of them.  Among unused parallel copies only the
    lowest-indexed one is extended, except the pinned final edge u (it may
    not be swapped for a parallel sibling).
    """
    m = g.edge_count
    check_edge_budget(m, BRUTE_FORCE_MAX_EDGES, "brute-force oracle")
    if not (0 <= v < m and 0 <= u < m):
        raise IndexError("edge index out of range")
    if not (S >> v & 1 and S >> u & 1):
        return None
    lower = [mask & S for mask in _lower_copies(g)]
    edges = g.edges
    vmasks = g.vertex_edge_masks
    best: int | None = None
    depth = 0

    def extend(head: int, used: int) -> None:
        nonlocal best, depth
        avail = vmasks[head] & S & ~used
        while avail:
            low = avail & -avail
            e = low.bit_length() - 1
            avail ^= low
            # Parallel-copy prune, except the pinned final edge u.
            if e != u and (used | 1 << u) & lower[e] != lower[e]:
                continue
            a, b = edges[e]
            depth += 1
            if e == u and depth > (best or 0):
                best = depth
            extend(b if a == head else a, used | 1 << e)
            depth -= 1

    a, b = edges[v]
    depth = 1
    if v == u:
        best = 1
    for head in (b, a) if a != b else (a,):
        extend(head, 1 << v)
    return best
