"""Seeded generator of small structured instances, emitted as instance text.

Each family has a longest trail known by construction, which the reference
search must reproduce.  Every instance gets a seeded relabelling of its
vertices and a shuffle of its edge order, so the engines see the family
through arbitrary labels.  The program under test only ever receives the
text this module writes.
"""

from __future__ import annotations

import random


def star(rnd: random.Random, m: int):
    """Centre plus m leaves: every two edges meet, yet no walk has three."""
    return m + 1, [(0, i) for i in range(1, m + 1)], 2


def loop_bouquet(rnd: random.Random, m: int):
    """Self-loops on one vertex, half the time with a pendant edge."""
    pendant = rnd.random() < 0.5
    edges = [(0, 0)] * (m - pendant) + [(0, 1)] * pendant
    return 2, edges, m


def parallel_bundle(rnd: random.Random, m: int):
    """m parallel copies of one edge: a walk uses them all."""
    return 2, [(0, 1)] * m, m


def triangle_chain(rnd: random.Random, m: int):
    """m // 3 triangles, each sharing a vertex with the next: Eulerian."""
    t = max(1, m // 3)
    edges = []
    for i in range(t):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (b, c), (c, a)]
    return 2 * t + 1, edges, 3 * t


def circuit_with_pendant(rnd: random.Random, m: int):
    """A cycle of m - 1 edges (two parallel edges when m = 3) with one
    pendant edge: exactly two odd vertices."""
    c = m - 1
    edges = [(i, (i + 1) % c) for i in range(c)]
    edges.append((rnd.randrange(c), c))
    return c + 1, edges, c + 1


def random_pairs(n: int, m: int, rnd: random.Random) -> list[tuple[int, int]]:
    """m edges drawn uniformly over the n(n+1)/2 unordered vertex pairs,
    self-loops included, repeats allowed: the distribution of
    ``longtrail.random_graph``, drawn from the benchmark's own stream so the
    inputs do not move when the program's generator changes."""
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    return [pairs[rnd.randrange(len(pairs))] for _ in range(m)]


def random_with_loops(n: int, m: int, loops: int, rnd: random.Random):
    """Draw ``random_pairs`` until exactly ``loops`` edges are self-loops.

    A self-loop has one orientation where other edges have two, so the loop
    count sets the size of the hybrid's candidate arrays and its charged
    queries.
    """
    while True:
        edges = random_pairs(n, m, rnd)
        if sum(u == v for u, v in edges) == loops:
            return edges


def random_multigraph(rnd: random.Random, m: int):
    """Uniform pairs; length known only to the reference search."""
    n = rnd.randint(2, 6)
    return n, random_pairs(n, m, rnd), None


def disjoint_union(rnd: random.Random, m: int):
    """Two family members of at least three edges each, side by side: the
    longer one wins."""
    m = max(m, 6)
    m1 = rnd.randint(3, m - 3)
    n1, e1, l1 = rnd.choice(_PARTS)(rnd, m1)
    n2, e2, l2 = rnd.choice(_PARTS)(rnd, m - m1)
    edges = e1 + [(u + n1, v + n1) for u, v in e2]
    return n1 + n2, edges, max(l1, l2)


_PARTS = (star, loop_bouquet, parallel_bundle, circuit_with_pendant)

# Edge counts of one family's instances, in order: mostly small, where
# per-call fixed costs dominate, with a thin tail up to m = 9.  Every seed
# gets the same counts, so the cost of a round does not swing with the draw.
SIZES = (3,) * 9 + (4,) * 9 + (5,) * 7 + (6,) * 7 + (7,) * 2 + (8, 9)

FAMILIES = {
    "star": star,
    "loop_bouquet": loop_bouquet,
    "parallel_bundle": parallel_bundle,
    "triangle_chain": triangle_chain,
    "circuit_with_pendant": circuit_with_pendant,
    "random": random_multigraph,
    "disjoint_union": disjoint_union,
}


def relabel(n: int, edges, rnd: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Seeded vertex permutation and edge-order shuffle."""
    perm = list(range(n))
    rnd.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rnd.shuffle(out)
    return n, out


def instance_text(n: int, edges) -> str:
    """The edge-list format the program parses: "n m", then "u v" lines."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def small_mix(seed: int) -> list[tuple[str, str, int | None]]:
    """(family, text, known length or None) for one instance per entry of
    SIZES in every family, in a fixed family order, from one seeded stream."""
    rnd = random.Random(seed)
    out = []
    for name, family in FAMILIES.items():
        for m in SIZES:
            n, edges, known = family(rnd, m)
            n, edges = relabel(n, edges, rnd)
            out.append((name, instance_text(n, edges), known))
    return out
