"""Graph representation and trail primitives.

A graph is an undirected multigraph stored as an indexed edge list; parallel
edges and self-loops are allowed, and an edge's identity is its index in that
list.  Edge subsets are plain Python ints used as bitmasks (bit i = edge i),
which keeps subset arithmetic cheap for the subset-DP solvers.

A trail is a sequence of edge indices realizable as a walk: consecutive edges
must attach at the walk's current head vertex and no edge repeats (vertices
may).  Orientation matters; a sequence whose consecutive edges merely share
*some* vertex is not necessarily walkable (e.g. the three edges of a star).

Arcs: each non-loop edge has two directed versions, encoded as
``arc = edge_id * 2 + d`` where ``d`` selects which endpoint is the head
(the vertex the walk sits on after traversing the edge).  A self-loop has a
single arc (d = 0).  Solvers use arcs internally to track walk orientation.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Iterator

MAX_EDGES = 30


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input."""


class SizeLimitError(ValueError):
    """Raised when an instance exceeds a solver's size bound."""


def check_edge_budget(m: int, limit: int, what: str) -> None:
    if m > limit:
        raise SizeLimitError(f"{what} supports at most {limit} edges, got {m}")


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph over vertices 0..n-1 with an indexed edge list.

    The derived structures cover only the vertices that occur in edges, so
    their size is O(m) whatever the vertex count claims.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    # Derived, filled in __post_init__:
    vertex_edge_masks: dict[int, int] = field(init=False, repr=False, compare=False)
    # Per arc b: the arcs whose head is b's tail, i.e. the arcs a walk may
    # traverse just before b, in edge order.
    arcs_before: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    arc_count: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        masks: dict[int, int] = {}
        into: dict[int, list[int]] = {}
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i} endpoint out of range: ({u}, {v})")
            masks[u] = masks.get(u, 0) | 1 << i
            masks[v] = masks.get(v, 0) | 1 << i
            # arc 2i has head u, arc 2i+1 has head v; loops keep one arc
            into.setdefault(u, []).append(2 * i)
            if u != v:
                into.setdefault(v, []).append(2 * i + 1)
        heads = {w: tuple(arcs) for w, arcs in into.items()}
        # arc 2i has tail v and arc 2i+1 tail u; a loop leaves slot 2i+1 empty
        before = []
        for u, v in self.edges:
            before += (heads[v], heads[u] if u != v else ())
        object.__setattr__(self, "vertex_edge_masks", masks)
        object.__setattr__(self, "arcs_before", tuple(before))
        object.__setattr__(
            self,
            "arc_count",
            tuple(1 if u == v else 2 for (u, v) in self.edges),
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_edge_set(self) -> int:
        return (1 << len(self.edges)) - 1

    def arcs_of(self, e: int) -> tuple[int, ...]:
        u, v = self.edges[e]
        return (2 * e,) if u == v else (2 * e, 2 * e + 1)

    def reverse_arc(self, arc: int) -> int:
        e = arc >> 1
        u, v = self.edges[e]
        return arc if u == v else arc ^ 1

    def arc_head(self, arc: int) -> int:
        """The vertex a walk sits on after traversing the arc."""
        return self.edges[arc >> 1][arc & 1]

    def arc_tail(self, arc: int) -> int:
        """The vertex a walk leaves from when it traverses the arc."""
        return self.edges[arc >> 1][~arc & 1]


# ---------------------------------------------------------------------------
# Edge-set helpers (bitmask ints)

def edge_set(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rank_in(mask: int, i: int) -> int:
    """The position of element i among the elements of mask."""
    return (mask & ((1 << i) - 1)).bit_count()


# ---------------------------------------------------------------------------
# Euler-parity bound

class ParityBound:
    """Upper bounds on trail lengths from degree parity (Euler; Hierholzer 1873).

    A trail from vertex x to vertex y inside the connected component c leaves
    behind the rest of E_c, whose odd-degree vertices are odd(E_c) with x and
    y toggled (nothing toggles when x = y).  An edge ends at two vertices, so
    a graph with k odd vertices has at least k/2 edges, and

        L <= |E_c| - |odd(E_c) sym-diff {x, y}| / 2;

    no trail joins two components.  The largest of these over all x, y is
    `whole` = max over c of |E_c| - max(0, odd_c/2 - 1), which is the
    longest trail's exact length when the best component has at most two
    odd vertices.  Everything is sized by the vertices that occur in edges,
    never by the header's vertex count: O(m) to build, O(1) per query.
    """

    def __init__(self, g: Graph):
        root: dict[int, int] = {}

        def find(w: int) -> int:
            while root.setdefault(w, w) != w:
                root[w] = w = root[root[w]]
            return w

        odd: set[int] = set()
        for u, v in g.edges:
            root[find(u)] = find(v)
            odd ^= {u}
            odd ^= {v}
        self._component = {w: find(w) for w in root}
        self._odd = odd
        self._edge_count = Counter(self._component[u] for u, _v in g.edges)
        self._odd_count = Counter(self._component[w] for w in odd)
        self.whole = max(
            (size - max(0, self._odd_count[c] // 2 - 1)
             for c, size in self._edge_count.items()),
            default=0,
        )

    def between(self, x: int, y: int) -> int:
        """Bound on the length of any trail that starts at x and ends at y."""
        c = self._component.get(x)
        if c is None or c != self._component.get(y):
            return 0
        k = self._odd_count[c]
        if x != y:
            k += (-1 if x in self._odd else 1) + (-1 if y in self._odd else 1)
        return self._edge_count[c] - k // 2


# ---------------------------------------------------------------------------
# Trail validation

@dataclass(frozen=True)
class TrailVerdict:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _walk_from(g: Graph, trail: list[int], head: int) -> int:
    """Walk trail[1:] from head; return the position of the first edge that
    does not attach, or len(trail)."""
    for pos, e in enumerate(trail[1:], 1):
        u, v = g.edges[e]
        if u == head:
            head = v
        elif v == head:
            head = u
        else:
            return pos
    return len(trail)


def validate_trail(g: Graph, trail: Iterable[int]) -> TrailVerdict:
    """Check that a sequence of edge indices forms an edge-simple walk.

    The first edge may be traversed in either direction; after that each edge
    must attach at the current head vertex, so the orientation is forced
    (greedy checking with the two first-edge choices is complete).
    """
    seq = []
    seen: set[int] = set()
    for pos, item in enumerate(trail):
        try:
            e = operator.index(item)
        except TypeError:
            e = -1
        if not 0 <= e < g.edge_count:
            return TrailVerdict(False, f"bad edge index {item!r} at position {pos}")
        if e in seen:
            return TrailVerdict(False, f"duplicate edge {e} at position {pos}")
        seen.add(e)
        seq.append(e)
    if len(seq) <= 1:
        return TrailVerdict(True)
    u0, v0 = g.edges[seq[0]]
    # The later break of the two orientations is the one reported.
    pos = 0
    for head in (v0, u0) if u0 != v0 else (u0,):
        end = _walk_from(g, seq, head)
        if end == len(seq):
            return TrailVerdict(True)
        pos = max(pos, end)
    return TrailVerdict(
        False,
        f"edges {seq[pos - 1]} and {seq[pos]} do not attach at the walk head "
        f"(position {pos})",
    )


# ---------------------------------------------------------------------------
# Parsing, serialization, random instances

def parse_graph(text: str | bytes) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v".

    Accepts LF or CRLF and tolerates trailing blank lines.  Errors carry the
    offending 1-based line number.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.split("\n")
    # Strip CR and trailing blank lines.
    lines = [ln.rstrip("\r") for ln in lines]
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise GraphFormatError("empty input, expected 'n m' header at line 1")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"malformed header at line 1: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"non-integer token in header at line 1: {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError("header counts must be non-negative at line 1")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for k in range(m):
        lineno = k + 2
        parts = lines[k + 1].split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed edge line at line {lineno}: {lines[k + 1]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer token at line {lineno}: {lines[k + 1]!r}") from None
        for w in (u, v):
            if not 0 <= w < n:
                raise GraphFormatError(f"vertex {w} out of range at line {lineno}")
        edges.append((u, v))
    return Graph(n, tuple(edges))


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Seeded random multigraph: m edges drawn uniformly over unordered
    vertex pairs (self-loops included, repeats allowed)."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if not 0 <= m <= MAX_EDGES:
        raise ValueError(f"edge count must be in [0, {MAX_EDGES}], got m={m}")
    import random as _random

    rng = _random.Random(seed)
    npairs = n * (n + 1) // 2
    # Pair k lies in row u (pairs (u, u), ..., (u, n - 1)), which starts at
    # u * (b - u) / 2 with b = 2n + 1.  u is the smaller root of start = k,
    # rounded down; isqrt rounds the square root down, which can put u one
    # row too far.
    b = 2 * n + 1
    edges = []
    for _ in range(m):
        k = rng.randrange(npairs)
        u = (b - isqrt(b * b - 8 * k)) // 2
        if u * (b - u) // 2 > k:
            u -= 1
        edges.append((u, u + k - u * (b - u) // 2))
    return Graph(n, tuple(edges))
