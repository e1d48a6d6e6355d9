"""Independent reference for the longest trail, sharing no code with longtrail.

Three parts, all over a plain edge list ``[(u, v), ...]`` whose index is the
edge's identity:

- ``longest_trail``: breadth-first search over (used-edge set, head vertex).
  Level k holds every edge set that some k-edge walk uses, each with the set
  of vertices such a walk can end on.  Each set sits on exactly one level, so
  the search never revisits a state, and the last non-empty level gives the
  length.  One walk of that length is rebuilt by stepping back through the
  levels.
- ``walk_ok``: checks that a sequence of edge indices is an edge-simple walk,
  without calling ``longtrail.validate_trail``.
- ``euler_bounds``: the Euler-parity bounds.  A connected component with c
  odd-degree vertices needs at least max(1, c/2) trails to cover its edges,
  so no trail inside it is longer than |E_c| - max(0, c/2 - 1); a component
  with at most two odd vertices is one trail (Euler), so its edge count is
  reached.
"""

from __future__ import annotations


def read_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a well-formed instance text."""
    rows = [tuple(map(int, line.split())) for line in text.splitlines() if line.strip()]
    n, m = rows[0]
    if len(rows) != m + 1:
        raise ValueError(f"header says {m} edges, found {len(rows) - 1}")
    return n, [(u, v) for u, v in rows[1:]]


def _incidence(n: int, edges) -> list[list[tuple[int, int]]]:
    """Per vertex, the (edge index, far endpoint) pairs that leave it."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        inc[u].append((i, v))
        if u != v:
            inc[v].append((i, u))
    return inc


def longest_trail(n: int, edges) -> tuple[int, list[int]]:
    """Length of a longest edge-simple walk and one walk of that length."""
    if not edges:
        return 0, []
    inc = _incidence(n, edges)
    level: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        level[1 << i] = level.get(1 << i, 0) | (1 << u) | (1 << v)
    levels = [level]
    while True:
        nxt: dict[int, int] = {}
        for used, heads in level.items():
            while heads:
                low = heads & -heads
                heads ^= low
                for e, w in inc[low.bit_length() - 1]:
                    bit = 1 << e
                    if not used & bit:
                        key = used | bit
                        nxt[key] = nxt.get(key, 0) | (1 << w)
        if not nxt:
            break
        levels.append(nxt)
        level = nxt
    return len(levels), _rebuild(edges, levels)


def _rebuild(edges, levels) -> list[int]:
    """Step back from any final state to one walk that reaches it."""
    used, heads = next(iter(levels[-1].items()))
    head = (heads & -heads).bit_length() - 1
    walk: list[int] = []
    for k in range(len(levels) - 1, 0, -1):
        prev = levels[k - 1]
        for e, (u, v) in enumerate(edges):
            if not used >> e & 1 or head not in (u, v):
                continue
            tail = v if u == head else u
            if prev.get(used ^ (1 << e), 0) >> tail & 1:
                walk.append(e)
                used ^= 1 << e
                head = tail
                break
        else:
            raise RuntimeError("reference levels do not chain back")
    walk.append(used.bit_length() - 1)
    walk.reverse()
    return walk


def walk_ok(edges, trail) -> bool:
    """True when ``trail`` lists distinct valid edge indices that form a walk.

    After the first edge the head vertex forces each step, so trying both
    orientations of the first edge decides the question.
    """
    trail = list(trail)
    if len(set(trail)) != len(trail):
        return False
    if not all(isinstance(e, int) and 0 <= e < len(edges) for e in trail):
        return False
    if len(trail) <= 1:
        return True
    for head in set(edges[trail[0]]):
        for e in trail[1:]:
            u, v = edges[e]
            if head == u:
                head = v
            elif head == v:
                head = u
            else:
                break
        else:
            return True
    return False


def euler_bounds(n: int, edges) -> tuple[int, int]:
    """(lower, upper) bounds on the longest trail from degree parity."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        parent[find(u)] = find(v)
    size: dict[int, int] = {}
    odd: dict[int, int] = {}
    for u, _ in edges:
        root = find(u)
        size[root] = size.get(root, 0) + 1
    for x in range(n):
        if degree[x] % 2:
            odd[find(x)] = odd.get(find(x), 0) + 1
    lower = upper = 0
    for root, count in size.items():
        c = odd.get(root, 0)
        upper = max(upper, count - max(0, c // 2 - 1))
        if c <= 2:
            lower = max(lower, count)
    return lower, upper
