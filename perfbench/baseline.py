"""Regenerate the ROADMAP baseline row: single solves on
``random_graph(m // 2 + 1, m, 7)``, dp and hybrid-det at m = 12 and 14,
hybrid-stoch at m = 12.

    python3 perfbench/baseline.py

Prints one markdown table; takes about a minute.
"""

from __future__ import annotations

import time

from run import Program

CASES = (("dp", 12), ("dp", 14), ("hybrid-det", 12), ("hybrid-det", 14), ("hybrid-stoch", 12))


def main() -> None:
    lt = Program().lt
    rows = {}
    for engine, m in CASES:
        g = lt.graphs.random_graph(m // 2 + 1, m, 7)
        start = time.perf_counter()
        if engine == "dp":
            length = lt.dp.full_dp_longest_trail(g).length
        else:
            mode = "deterministic" if engine == "hybrid-det" else "stochastic"
            length = lt.hybrid.solve_hybrid(g, lt.hybrid.HybridConfig(mode=mode)).length
        rows[engine, m] = (time.perf_counter() - start, length)
    print("| engine | m=12 | m=14 |")
    print("|---|---|---|")
    for engine in ("dp", "hybrid-det", "hybrid-stoch"):
        cells = []
        for m in (12, 14):
            if (engine, m) in rows:
                seconds, length = rows[engine, m]
                cells.append(f"{seconds:.3g} s (L={length})")
            else:
                cells.append("—")
        print(f"| {engine} | {' | '.join(cells)} |")


if __name__ == "__main__":
    main()
