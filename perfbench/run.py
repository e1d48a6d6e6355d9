"""Benchmark of the three longtrail engines: wall time, charged queries and
memory, split by module.

One workload per process:

    python3 perfbench/run.py --workload hybrid-det --seed 1 --seconds 20 --trace 0

Without --workload, every workload runs in turn, each in its own process,
and a summary table follows.  Run from anywhere inside a checkout: the
program is imported from the checkout's ``src/``.

A run builds its instances from the seed (set-up), computes the independent
reference for each, then repeats rounds of the workload's engine calls until
the next round would overrun --seconds, with at least MIN_ROUNDS rounds.
Every output is checked; an engine call that raises or fails a check counts
in ``failed``.

Times are taken per call as the median of its repetitions in the run, each
repetition scaled to the reference speed of a probe timed while the call
runs (see calibration.py).  On a shared two-vCPU machine, other tenants
slowed identical work by up to twofold, in phases from a tenth of a second
to minutes.  Over eight back-to-back repetitions of one stochastic hybrid
solve, the wall time ranged over 58% of its median, the scaled time over 6%.

With --trace 1 each round runs once untraced and once traced, and the run
reports the per-layer metrics; spans go to ``perfbench/out/``.

The last line of standard output is the JSON result; a readable summary goes
to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import calibration
import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PASSES = 5
DEFAULT_SECONDS = 20
MIN_ROUNDS = 2
# Times the import in a fresh interpreter, probing the speed there (a module
# imports once per process); prints the seconds as timed and as scaled.
IMPORT_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import calibration; "
                "speed = calibration.Speedometer()\n"
                "with speed.measure() as took: import longtrail, longtrail.cli\n"
                "print(took.wall, took.scaled)")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
LEVELS = ("level0", "level1", "level2")
PER_LAYER = {
    "setup.import_s": "s",
    "graphs.parse_ms": "ms",
    "graphs.validate_ms": "ms",
    "bruteforce.oracle_s": "s",
    "dp.full_s": "s",
    "dp.full_peak_mb": "MB",
    "dp.layer_ms": "ms",
    "dp.layer_entries": "count",
    "hybrid.split_s": "s",
    "hybrid.witness_ms": "ms",
    **{f"hybrid.queries.{level}": "count" for level in LEVELS},
    "queries_charged": "count",
    "qmax.trajectory_s": "s",
    "qmax.queries_det": "count",
    "qmax.queries_stoch": "count",
    "qmax.queries_ratio": "ratio",
    "qmax.exact_solves": "count",
    "cli.solve_ms": "ms",
    "trace.overhead_s": "s",
    "calibration_ms": "ms",
}
# Span name -> (per-layer metric, scale from seconds).
SPAN_METRICS = {
    "graphs.validate": ("graphs.validate_ms", 1e3),
    "bruteforce.oracle": ("bruteforce.oracle_s", 1.0),
    "dp.full": ("dp.full_s", 1.0),
    "dp.layer": ("dp.layer_ms", 1e3),
    "hybrid.split": ("hybrid.split_s", 1.0),
    "hybrid.witness": ("hybrid.witness_ms", 1e3),
    "cli.solve": ("cli.solve_ms", 1e3),
}
CLI_ARGS = {
    "oracle": ["--engine", "oracle"],
    "dp": ["--engine", "dp"],
    "hybrid-det": ["--engine", "hybrid", "--mode", "det"],
    "hybrid-stoch": ["--engine", "hybrid", "--mode", "stoch"],
}


class Program:
    """The longtrail modules imported from the checkout, and their import time."""

    def __init__(self) -> None:
        if not (SRC / "longtrail" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: {SRC / 'longtrail'} not found; "
                             "run from a checkout of the repository")
        # The engines are single-threaded; keep numpy's thread pools idle too.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
        sys.path.insert(0, str(SRC))
        import longtrail
        import longtrail.cli
        if not Path(longtrail.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"perfbench: imported longtrail from {longtrail.__file__}, "
                             f"not from {SRC}")
        self.lt = longtrail
        self.det = longtrail.hybrid.HybridConfig(mode="deterministic")

    def stoch(self, seed: int):
        return self.lt.hybrid.HybridConfig(mode="stochastic", seed=seed)


class Run:
    def __init__(self, name: str, seed: int, seconds: float, traced: bool):
        self.prog = Program()
        self.lt = self.prog.lt
        self.name, self.seed, self.seconds, self.traced = name, seed, seconds, traced
        self.tracer = spans.Tracer()
        self.speed = calibration.Speedometer()
        self.attempted = 0
        self.failed = 0
        self.correct = True

    # -- set-up and reference -------------------------------------------------

    def setup(self) -> None:
        """Build the instances as text and parse them, SETUP_PASSES times,
        and time the import in SETUP_PASSES fresh interpreters, one after
        the other.  Times are kept as measured and at reference speed."""
        self.import_times, self.import_scaled = [], []
        for _ in range(SETUP_PASSES):
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                                   stdout=subprocess.PIPE, text=True, check=True)
            wall, scaled = map(float, probe.stdout.split())
            self.import_times.append(wall)
            self.import_scaled.append(scaled)
        build = workloads.WORKLOADS[self.name]
        parse = self.lt.graphs.parse_graph
        self.setup_times = []
        for p in range(SETUP_PASSES):
            self.tracer.round = -1 - p
            with self.speed.measure() as took:
                wl = build(self.seed)
                graphs = []
                for _label, text, _known in wl.instances:
                    if self.traced:
                        with self.tracer.span("graphs.parse"):
                            graphs.append(parse(text))
                    else:
                        graphs.append(parse(text))
            self.setup_times.append(took)
        self.wl, self.graphs = wl, graphs

    def references(self) -> None:
        """Independent reference per instance, and the deterministic ledger
        prediction for every instance a hybrid job solves."""
        self.refs = []
        for (label, text, known), g in zip(self.wl.instances, self.graphs):
            n, edges = reference.read_text(text)
            length, walk = reference.longest_trail(n, edges)
            lower, upper = reference.euler_bounds(n, edges)
            ok = (reference.walk_ok(edges, walk) and len(walk) == length
                  and lower <= length <= upper and known in (None, length)
                  and g.vertex_count == n and list(g.edges) == edges)
            if not ok:
                self.correct = False
                print(f"perfbench: reference or parse check failed on {label}", file=sys.stderr)
            self.refs.append((edges, length))
        hybrid_insts = {j.inst for j in self.wl.jobs if j.engine.startswith("hybrid")}
        predict = self.lt.hybrid.predict_deterministic_queries
        self.predicted = {i: predict(self.graphs[i]) for i in sorted(hybrid_insts)}

    # -- engine calls ---------------------------------------------------------

    def call(self, job: workloads.Job, path: str | None):
        """Run one engine call and return its raw output."""
        g = self.graphs[job.inst]
        if job.via_cli:
            argv = ["solve", path, *CLI_ARGS[job.engine], "--seed", str(job.seed)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.lt.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli exited with {code}")
            return buf
        if job.engine == "oracle":
            return self.lt.bruteforce.longest_trail_bruteforce(g)
        if job.engine == "dp":
            return self.lt.dp.full_dp_longest_trail(g)
        cfg = self.prog.det if job.engine == "hybrid-det" else self.prog.stoch(job.seed)
        return self.lt.hybrid.solve_hybrid(g, cfg)

    @staticmethod
    def normalise(job: workloads.Job, out):
        if job.via_cli:
            report = json.loads(out.getvalue())
            queries = report["queries"]
            return (report["length"], tuple(report["trail"]),
                    queries["per_level"] if queries else None, None)
        if job.engine.startswith("hybrid"):
            return out.length, out.trail, dict(out.ledger.per_level), out.classical_entries
        return out.length, out.trail, None, None

    def check(self, job: workloads.Job, res) -> bool:
        """The acceptance checks against the independent reference."""
        length, trail, per_level, _entries = res
        edges, ref_len = self.refs[job.inst]
        ok = reference.walk_ok(edges, trail) and len(trail) == length
        if job.engine == "hybrid-stoch":
            ok = ok and length <= ref_len
        else:
            ok = ok and length == ref_len
        if job.engine == "hybrid-det":
            ok = ok and per_level == self.predicted[job.inst]
        return ok

    def record(self, job: workloads.Job, res, error: str | None) -> bool:
        self.attempted += 1
        ok = error is None and self.check(job, res)
        if not ok:
            self.failed += 1
            print(f"perfbench: {job.engine} on {self.wl.instances[job.inst][0]} "
                  f"(instance {job.inst}, seed {job.seed}) failed: "
                  f"{error or 'output check'}", file=sys.stderr)
        return ok

    def untraced_job(self, job: workloads.Job, path: str | None):
        """Time one engine call; return (its `Took`, normalised result or None)."""
        res, error = None, None
        with self.speed.measure() as took:
            try:
                out = self.call(job, path)
            except Exception as exc:  # a failing engine call is a counted failure
                error = f"{type(exc).__name__}: {exc}"
        if error is None:
            try:
                res = self.normalise(job, out)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                error = f"unreadable output: {exc}"
        self.record(job, res, error)
        return took, res

    # -- traced pass ------------------------------------------------------------

    def traced_job(self, job, path, untraced_res) -> float | None:
        """Run one job under spans and check it; a library hybrid job is
        rebuilt from its parts and must reproduce ``untraced_res``.  Returns
        the split search's seconds for those, else None."""
        span = self.tracer.span
        res, error, split_s = None, None, None
        try:
            with span("solve"):
                if job.via_cli or job.engine in ("oracle", "dp"):
                    name = ("cli.solve" if job.via_cli else
                            "bruteforce.oracle" if job.engine == "oracle" else "dp.full")
                    with span(name):
                        out = self.call(job, path)
                else:
                    cfg = (self.prog.det if job.engine == "hybrid-det"
                           else self.prog.stoch(job.seed))
                    got = spans.traced_hybrid(self.tracer, self.lt, self.graphs[job.inst], cfg)
            if job.via_cli or job.engine in ("oracle", "dp"):
                res = self.normalise(job, out)
            else:
                length, trail, ledger, entries, valid, split_s = got
                res = (length, trail, dict(ledger.per_level), entries)
                if not valid:
                    error = "rebuilt solve returned an invalid trail"
                elif res != untraced_res:
                    error = "rebuilt solve differs from solve_hybrid"
        except Exception as exc:  # a failing engine call is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        self.record(job, res, error)
        return split_s

    def det_split(self, inst: int) -> float | None:
        """Split seconds of a deterministic rebuild of one instance, on a
        tracer of its own so the workload's layer totals do not include it;
        None when the rebuild fails."""
        job = workloads.Job("hybrid-det", inst)
        try:
            got = spans.traced_hybrid(spans.Tracer(), self.lt, self.graphs[inst], self.prog.det)
        except Exception as exc:  # a failing engine call is a counted failure
            self.record(job, None, f"{type(exc).__name__}: {exc}")
            return None
        length, trail, ledger, entries, valid, split_s = got
        ok = self.record(job, (length, trail, dict(ledger.per_level), entries),
                         None if valid else "rebuilt solve returned an invalid trail")
        return split_s if ok else None

    def run_round(self, paths, round_: int):
        """One round: every job untraced and, when tracing, straight after it
        the same job under spans, so drift in machine speed falls on both.
        Returns the untraced calls' `Took`s and, when tracing, the layer figures."""
        self.tracer.round = round_
        times, results = [], []
        det_splits: dict[int, float] = {}
        stoch_splits = []
        for job in self.wl.jobs:
            took, res = self.untraced_job(job, paths.get(job.inst))
            times.append(took)
            results.append(res)
            if not self.traced:
                continue
            split_s = self.traced_job(job, paths.get(job.inst), res)
            if split_s is None:
                continue
            if job.engine == "hybrid-det":
                det_splits[job.inst] = split_s
            else:
                stoch_splits.append((job.inst, split_s))
        if not self.traced:
            return times, None
        layer = {metric: 0.0 for metric, _ in SPAN_METRICS.values()}
        for name, seconds in self.tracer.self_times(round_).items():
            if name in SPAN_METRICS:
                metric, scale = SPAN_METRICS[name]
                layer[metric] = seconds * scale
        traced = sum(end - start for name, start, end, parent, r in self.tracer.spans
                     if r == round_ and parent == -1)
        layer["trace.overhead_s"] = traced - sum(took.wall for took in times)
        trajectory = 0.0
        for inst, split_s in stoch_splits:
            if inst not in det_splits:
                det_splits[inst] = self.det_split(inst)
            if det_splits[inst] is not None:
                trajectory += split_s - det_splits[inst]
        layer["qmax.trajectory_s"] = trajectory
        layer.update(self.counts(results))
        return times, layer

    # -- the run ----------------------------------------------------------------

    def counts(self, results) -> dict:
        """Ledger and classical-layer counts of one round's results."""
        out = {f"hybrid.queries.{level}": 0 for level in LEVELS}
        out.update({"queries_charged": 0, "dp.layer_entries": 0, "qmax.queries_det": 0,
                    "qmax.queries_stoch": 0, "qmax.exact_solves": 0})
        for job, res in zip(self.wl.jobs, results):
            if res is None or res[2] is None:
                continue
            length, _trail, per_level, entries = res
            for level, count in per_level.items():
                if level in LEVELS:
                    out[f"hybrid.queries.{level}"] += count
                out["queries_charged"] += count
            out["dp.layer_entries"] += entries or 0
            if job.engine == "hybrid-stoch":
                out["qmax.queries_stoch"] += sum(per_level.values())
                out["qmax.queries_det"] += sum(self.predicted[job.inst].values())
                out["qmax.exact_solves"] += length == self.refs[job.inst][1]
        det = out["qmax.queries_det"]
        out["qmax.queries_ratio"] = out["qmax.queries_stoch"] / det if det else 0.0
        return out

    def dp_peak_mb(self, round_: int) -> float:
        """tracemalloc peak of the slowest library DP call of the last round."""
        slowest, inst = 0.0, None
        dp_jobs = iter(j for j in self.wl.jobs if j.engine == "dp" and not j.via_cli)
        for name, start, end, parent, r in self.tracer.spans:
            if r == round_ and name == "dp.full":
                job = next(dp_jobs)
                if end - start > slowest:
                    slowest, inst = end - start, job.inst
        if inst is None:
            return 0.0
        tracemalloc.start()
        try:
            self.lt.dp.full_dp_longest_trail(self.graphs[inst])
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def execute(self) -> dict:
        start = time.perf_counter()
        self.setup()
        self.references()
        prepared = time.perf_counter()
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            paths = {}
            for job in self.wl.jobs:
                if job.via_cli and job.inst not in paths:
                    paths[job.inst] = os.path.join(tmp, f"instance{job.inst}.txt")
                    with open(paths[job.inst], "w") as fh:
                        fh.write(self.wl.instances[job.inst][1])
            round_times, layers = [], []
            begin = time.perf_counter()
            round_ = 0
            while True:
                started = time.perf_counter()
                times, layer = self.run_round(paths, round_)
                round_times.append(times)
                layers.append(layer)
                round_ += 1
                now = time.perf_counter()
                if round_ >= MIN_ROUNDS and now - begin + (now - started) > self.seconds:
                    break
        per_call = list(zip(*round_times))
        wall = [statistics.median(took.wall for took in call) for call in per_call]
        scaled = [statistics.median(took.scaled for took in call) for call in per_call]
        setup_wall = (statistics.median(self.import_times)
                      + statistics.median(took.wall for took in self.setup_times))
        print(f"{self.name}: set-up and reference {prepared - start:.1f} s, "
              f"{round_} rounds in {now - begin:.1f} s; unscaled setup {setup_wall:.4f} s, "
              f"solve {sum(wall):.4f} s, p50 {statistics.median(wall) * 1e3:.4f} ms; "
              f"probe median {self.speed.median_probe_s() * 1e3:.4f} ms over "
              f"{len(self.speed.probe_times)} probes", file=sys.stderr)
        if not self.traced:
            metrics = {
                "setup_s": (statistics.median(self.import_scaled)
                            + statistics.median(took.scaled for took in self.setup_times)),
                "solve_s": sum(scaled),
                "solve_ms_p50": middle(scaled) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        else:
            metrics = {key: statistics.median(layer[key] for layer in layers)
                       for key in layers[0]}
            metrics["setup.import_s"] = statistics.median(self.import_times)
            metrics["graphs.parse_ms"] = 1e3 * statistics.median(
                self.tracer.self_times(-1 - p).get("graphs.parse", 0.0)
                for p in range(SETUP_PASSES))
            metrics["dp.full_peak_mb"] = self.dp_peak_mb(round_ - 1)
            metrics["calibration_ms"] = self.speed.median_probe_s() * 1e3
            units = PER_LAYER
            self.tracer.write(OUT / f"spans-{self.name}-seed{self.seed}.jsonl")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }


def middle(values, share: float = 0.1) -> float:
    """The median, taken as the mean of the middle `share` of the sorted
    values.  Up to ten values this is the median itself.  Over small-mix's
    thousand calls, whose times spread over four decades, the plain median
    sits where calls are sparse and jumps by a tenth when one call near it
    jitters; the mean of the middle hundred does not."""
    values = sorted(values)
    last = len(values) - 1
    lo, hi = round((0.5 - share / 2) * last), round((0.5 + share / 2) * last)
    return statistics.fmean(values[lo:hi + 1])


def summary(name: str, result: dict) -> str:
    lines = [f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {result['correct']}"]
    for key, metric in result["metrics"].items():
        lines.append(f"  {key:24s} {metric['value']:14.4f} {metric['unit']}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(summary(name, result))
        if result["failed"] or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        Program()  # fail fast outside a checkout
        return run_all(args)
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print(summary(args.workload, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
