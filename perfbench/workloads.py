"""The four workloads: which instances each builds from the seed, and which
engine calls make up one round.

Every workload builds its instances as edge-list text from the benchmark
seed alone; the program only ever parses that text.  The instance shapes are
pinned: the seed relabels the vertices, shuffles the edge order and draws the
stochastic solve seeds.  Random draws of one (n, m) differ several-fold in
solve time (tenfold for the full DP), which would swamp the run-to-run
spread; a relabelled copy keeps the engine's work, so the spread measures
the program and the machine, not the luck of the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import families

# (n, m, self-loops, base seed): a draw of `families.random_with_loops`.
# The last slot is the m = 13 instance, where the classical layer steps from
# k_pre = 3 to 4.  The loop counts sit at or above random_graph's expected
# count: each self-loop removes an orientation, so these draws are the
# cheaper ones of their size, cheap enough for every call to repeat within
# a run (see `run.py` on why calls repeat).
HYBRID_DET_SLOTS = ((4, 12, 7, 1), (7, 12, 4, 1), (5, 13, 8, 1))
# Acceptance criterion 5's family (m = 12, n from 5 to 7), one solve seed each.
HYBRID_STOCH_SLOTS = ((5, 12, 5, 2), (7, 12, 4, 2))
# (n, m, base seed) of `families.random_pairs`: three dense DP instances and
# one sparse one.
DP_DENSE_BASES = ((4, 15, 1), (5, 15, 0), (6, 16, 3), (10, 18, 3))
# Every CLI_EVERY-th small-mix instance is solved through `longtrail.cli.main`.
CLI_EVERY = 4

ENGINES = ("oracle", "dp", "hybrid-det", "hybrid-stoch")


@dataclass(frozen=True)
class Job:
    """One engine call: engine, instance index, solve seed, and whether it
    goes through the command-line entry point."""

    engine: str
    inst: int
    seed: int = 0
    via_cli: bool = False


@dataclass(frozen=True)
class Workload:
    instances: list[tuple[str, str, int | None]]  # (label, text, known length)
    jobs: list[Job]


def _stream(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _relabelled(n: int, edges, rnd: random.Random) -> tuple[str, str, None]:
    n, edges = families.relabel(n, edges, rnd)
    return f"n{n}m{len(edges)}", families.instance_text(n, edges), None


def hybrid_det(seed: int) -> Workload:
    rnd = _stream("hybrid-det", seed)
    instances = [
        _relabelled(n, families.random_with_loops(n, m, loops, random.Random(base)), rnd)
        for n, m, loops, base in HYBRID_DET_SLOTS
    ]
    return Workload(instances, [Job("hybrid-det", i) for i in range(len(instances))])


def hybrid_stoch(seed: int) -> Workload:
    rnd = _stream("hybrid-stoch", seed)
    instances, jobs = [], []
    for i, (n, m, loops, base) in enumerate(HYBRID_STOCH_SLOTS):
        edges = families.random_with_loops(n, m, loops, random.Random(base))
        instances.append(_relabelled(n, edges, rnd))
        jobs.append(Job("hybrid-stoch", i, rnd.randrange(1 << 30)))
    return Workload(instances, jobs)


def dp_dense(seed: int) -> Workload:
    rnd = _stream("dp-dense", seed)
    instances = [_relabelled(n, families.random_pairs(n, m, random.Random(base)), rnd)
                 for n, m, base in DP_DENSE_BASES]
    return Workload(instances, [Job("dp", i) for i in range(len(instances))])


def small_mix(seed: int) -> Workload:
    rnd = _stream("small-mix", seed)
    instances = families.small_mix(rnd.randrange(1 << 30))
    jobs = []
    for i in range(len(instances)):
        solve_seed = rnd.randrange(1 << 30)
        for engine in ENGINES:
            jobs.append(Job(engine, i, solve_seed, via_cli=i % CLI_EVERY == 0))
    return Workload(instances, jobs)


WORKLOADS = {
    "hybrid-det": hybrid_det,
    "hybrid-stoch": hybrid_stoch,
    "dp-dense": dp_dense,
    "small-mix": small_mix,
}
