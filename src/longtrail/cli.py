"""Command-line front end.

Reports go to standard output as JSON (machine-readable, schema-stable);
human diagnostics go to standard error.  Reports reproduce bit-for-bit, wall
time aside: `gen` and `solve` take `--seed` (default 0), `verify --random
COUNT N M SEED` draws instance i from SEED + i, and `verify` on a file and
`costs` draw nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .bruteforce import BRUTE_FORCE_MAX_EDGES, longest_trail_bruteforce
from .dp import full_dp_longest_trail
from .graphs import (
    Graph,
    GraphFormatError,
    ParityBound,
    SizeLimitError,
    parse_graph,
    random_graph,
    serialize_graph,
    validate_trail,
)
from .hybrid import (
    MODE_DETERMINISTIC,
    MODE_STOCHASTIC,
    HybridConfig,
    solve_hybrid,
    theoretical_costs,
)

_MODES = {"det": MODE_DETERMINISTIC, "stoch": MODE_STOCHASTIC}


def _emit(payload: dict) -> None:
    # Rendered whole first: a value json cannot encode must not leave half a
    # document on stdout.
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def cmd_gen(args) -> int:
    g = random_graph(args.n, args.m, args.seed)
    text = serialize_graph(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _info(f"wrote {args.m}-edge graph to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    g = _load_graph(args.input)
    report = {"engine": args.engine, "n": g.vertex_count, "m": g.edge_count, "queries": None,
              "seed": args.seed, "alpha": None, "mode": None}
    t0 = time.perf_counter()
    if args.engine == "oracle":
        res = longest_trail_bruteforce(g)
    elif args.engine == "dp":
        res = full_dp_longest_trail(g)
    else:
        res = solve_hybrid(g, HybridConfig(
            alpha=args.alpha,
            mode=_MODES[args.mode],
            repeats_per_level=args.repeats,
            seed=args.seed,
            budget_constant=args.budget_constant,
        ))
    report["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    if args.engine == "hybrid":
        report.update(engine=f"hybrid-{args.mode}", queries=res.ledger.as_dict(),
                      alpha=args.alpha, mode=args.mode)
    report.update(length=res.length, trail=list(res.trail))
    _emit(report)
    return 0


def cmd_verify(args) -> int:
    if args.random:
        count, n, m, seed = args.random
        if count < 1:
            raise ValueError(f"verify --random needs COUNT >= 1, got {count}")
        instances = [random_graph(n, m, seed + i) for i in range(count)]
    else:
        instances = [_load_graph(args.input)]
    agreed = 0
    rows = []
    for i, g in enumerate(instances):
        lengths = {}
        trails = {}
        # Past the oracle's ceiling the parity bound below is the only
        # check independent of the DP and the hybrid.
        if g.edge_count <= BRUTE_FORCE_MAX_EDGES:
            res = longest_trail_bruteforce(g)
            lengths["oracle"], trails["oracle"] = res.length, res.trail
        res = full_dp_longest_trail(g)
        lengths["dp"], trails["dp"] = res.length, res.trail
        out = solve_hybrid(g, HybridConfig(alpha=args.alpha, mode=MODE_DETERMINISTIC))
        lengths["hybrid-det"], trails["hybrid-det"] = out.length, out.trail
        valid = all(
            validate_trail(g, t).ok and len(t) == lengths[name]
            for name, t in trails.items()
            if lengths[name] > 0
        )
        # The DP prunes by the Euler-parity bound and the oracle shares no
        # code with it, so every verified instance checks the bound too.
        bound = ParityBound(g).whole
        ok = (valid and len(set(lengths.values())) == 1
              and all(length <= bound for length in lengths.values()))
        agreed += ok
        rows.append({"instance": i, "n": g.vertex_count, "m": g.edge_count,
                     "lengths": lengths, "ok": ok})
        _info(f"instance {i}: " + " ".join(f"{k}={v}" for k, v in lengths.items())
              + ("" if ok else "  MISMATCH"))
    _info(f"{agreed}/{len(instances)} agree")
    _emit({"instances": len(instances), "agreed": agreed,
           "ok": agreed == len(instances), "results": rows})
    return 0 if agreed == len(instances) else 1


def cmd_costs(args) -> int:
    report = theoretical_costs(args.m, args.alpha)
    _emit(dataclasses.asdict(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longtrail",
        description="Longest-trail solvers with quantum-query accounting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--m", type=int, required=True, help="edge count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--engine", choices=["oracle", "dp", "hybrid"], default="hybrid")
    p.add_argument("--mode", choices=["det", "stoch"], default="det")
    p.add_argument("--alpha", type=float, default=0.055)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=None,
                   help="boosting repeats per level (default 2m)")
    p.add_argument("--budget-constant", type=float, default=23.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="cross-check oracle (m <= 14), dp, "
                       "hybrid-det and the parity bound")
    p.add_argument("input", nargs="?", default=None, help="edge-list file")
    p.add_argument("--random", nargs=4, type=int, default=None,
                   metavar=("COUNT", "N", "M", "SEED"),
                   help="verify COUNT random instances instead of a file")
    p.add_argument("--alpha", type=float, default=0.055)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("costs", help="theoretical cost balance report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.055)
    p.set_defaults(func=cmd_costs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and bool(args.input) == bool(args.random):
        parser.error("verify needs exactly one of an input file or --random")
    try:
        return args.func(args)
    except (GraphFormatError, SizeLimitError, ValueError, OverflowError, OSError) as exc:
        _info(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
