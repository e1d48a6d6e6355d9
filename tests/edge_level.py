"""The DP's edge-level view, for tests: L(S, v, u) over edges v and u."""

from longtrail.dp import get_len_arc


def edge_len(g, S, v, u, table):
    """The best `get_len_arc` over the arc pairs of edges v and u; None if no walk."""
    vals = (get_len_arc(g, S, a, b, table) for a in g.arcs_of(v) for b in g.arcs_of(u))
    return max((x for x in vals if x is not None), default=None)
