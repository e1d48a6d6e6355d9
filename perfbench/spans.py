"""Spans recorded around the benchmark's calls into the program's modules.

A span is (name, start, end, parent, round): the parent is the index of the
enclosing span or -1, the round is the benchmark round it belongs to
(negative for the set-up passes).  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.round = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.round]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, round_: int) -> dict[str, float]:
        """Seconds per span name in one round, each span less the time its
        child spans cover."""
        totals: dict[str, float] = {}
        child: dict[int, float] = {}
        for name, start, end, parent, r in self.spans:
            if r == round_ and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for i, (name, start, end, parent, r) in enumerate(self.spans):
            if r == round_:
                totals[name] = totals.get(name, 0.0) + (end - start) - child.get(i, 0.0)
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, r in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "round": r}) + "\n")


def traced_hybrid(tracer: Tracer, lt, g, cfg):
    """``solve_hybrid`` rebuilt from its public parts, one span per layer.

    Mirrors the library's order exactly (layer, then the split search over
    every ordered edge pair, then witness expansion, then validation), so the
    stochastic stream is consumed the same way and the result must be
    identical: length, trail, ledger and classical entry count.  Returns
    those, whether the trail validated, and the split search's seconds.
    """
    m = g.edge_count
    with tracer.span("dp.layer"):
        ctx = lt.hybrid.SolveContext.create(g, cfg)
    full = (1 << m) - 1
    best, best_wit = 0, None
    split = len(tracer.spans)
    with tracer.span("hybrid.split"):
        for v in range(m):
            for u in range(m):
                val, wit = lt.hybrid.solve_recursive(ctx, full, v, u, 0)
                if val is not None and val > best:
                    best, best_wit = val, wit
    with tracer.span("hybrid.witness"):
        trail = lt.hybrid.reconstruct_from_witness(best_wit, ctx.table) if best_wit else []
    with tracer.span("graphs.validate"):
        verdict = lt.graphs.validate_trail(g, trail)
    _name, start, end, _parent, _round = tracer.spans[split]
    return best, tuple(trail), ctx.ledger, len(ctx.table), verdict.ok, end - start
