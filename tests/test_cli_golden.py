"""Golden `longtrail solve` reports: the exact JSON document, wall time aside,
of every engine on small instances, the null fields of the oracle and the DP
included.  The literals are recorded outputs, not derived ones."""

import json

import pytest

from longtrail.cli import main

INSTANCES = {
    "triangle": "3 3\n0 1\n1 2\n2 0\n",
    "k4": "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "loops": "3 6\n0 0\n0 1\n1 1\n1 2\n0 1\n2 2\n",
    "empty": "2 0\n",
}

RUNS = {
    "oracle": ["--engine", "oracle", "--seed", "5"],
    "dp": ["--engine", "dp"],
    "hybrid-det": ["--engine", "hybrid"],
    "hybrid-stoch": ["--engine", "hybrid", "--mode", "stoch", "--seed", "3", "--repeats", "2"],
}

NULLS = {"queries": None, "alpha": None, "mode": None}


def _levels(*counts):
    per_level = {f"level{d}": c for d, c in enumerate(counts)}
    return {"per_level": per_level, "total": sum(counts)}


REPORTS = {
    ("triangle", "oracle"): {
        "engine": "oracle", "n": 3, "m": 3, "length": 3, "trail": [0, 1, 2], "seed": 5, **NULLS},
    ("triangle", "dp"): {
        "engine": "dp", "n": 3, "m": 3, "length": 3, "trail": [0, 2, 1], "seed": 0, **NULLS},
    ("triangle", "hybrid-det"): {
        "engine": "hybrid-det", "n": 3, "m": 3, "length": 3, "trail": [0, 2, 1],
        "queries": _levels(36), "seed": 0, "alpha": 0.055, "mode": "det"},
    ("triangle", "hybrid-stoch"): {
        "engine": "hybrid-stoch", "n": 3, "m": 3, "length": 3, "trail": [0, 2, 1],
        "queries": _levels(33), "seed": 3, "alpha": 0.055, "mode": "stoch"},
    ("k4", "oracle"): {
        "engine": "oracle", "n": 4, "m": 6, "length": 5, "trail": [0, 3, 1, 2, 4], "seed": 5,
        **NULLS},
    ("k4", "dp"): {
        "engine": "dp", "n": 4, "m": 6, "length": 5, "trail": [0, 2, 4, 3, 1], "seed": 0,
        **NULLS},
    ("k4", "hybrid-det"): {
        "engine": "hybrid-det", "n": 4, "m": 6, "length": 5, "trail": [0, 2, 4, 3, 1],
        "queries": _levels(1320, 2088, 432), "seed": 0, "alpha": 0.055, "mode": "det"},
    ("k4", "hybrid-stoch"): {
        "engine": "hybrid-stoch", "n": 4, "m": 6, "length": 5, "trail": [0, 2, 4, 3, 1],
        "queries": _levels(483, 1348, 341), "seed": 3, "alpha": 0.055, "mode": "stoch"},
    ("loops", "oracle"): {
        "engine": "oracle", "n": 3, "m": 6, "length": 6, "trail": [1, 0, 4, 2, 3, 5],
        "seed": 5, **NULLS},
    ("loops", "dp"): {
        "engine": "dp", "n": 3, "m": 6, "length": 6, "trail": [1, 0, 4, 2, 3, 5], "seed": 0,
        **NULLS},
    ("loops", "hybrid-det"): {
        "engine": "hybrid-det", "n": 3, "m": 6, "length": 6, "trail": [1, 0, 4, 2, 3, 5],
        "queries": _levels(726, 1122, 264), "seed": 0, "alpha": 0.055, "mode": "det"},
    ("loops", "hybrid-stoch"): {
        "engine": "hybrid-stoch", "n": 3, "m": 6, "length": 6, "trail": [1, 0, 4, 2, 3, 5],
        "queries": _levels(164, 736, 231), "seed": 3, "alpha": 0.055, "mode": "stoch"},
    ("empty", "oracle"): {
        "engine": "oracle", "n": 2, "m": 0, "length": 0, "trail": [], "seed": 5, **NULLS},
    ("empty", "dp"): {
        "engine": "dp", "n": 2, "m": 0, "length": 0, "trail": [], "seed": 0, **NULLS},
    ("empty", "hybrid-det"): {
        "engine": "hybrid-det", "n": 2, "m": 0, "length": 0, "trail": [],
        "queries": _levels(), "seed": 0, "alpha": 0.055, "mode": "det"},
    ("empty", "hybrid-stoch"): {
        "engine": "hybrid-stoch", "n": 2, "m": 0, "length": 0, "trail": [],
        "queries": _levels(), "seed": 3, "alpha": 0.055, "mode": "stoch"},
}


@pytest.mark.parametrize("key", sorted(REPORTS), ids="-".join)
def test_solve_report(key, capsys, tmp_path):
    name, run = key
    path = tmp_path / f"{name}.txt"
    path.write_text(INSTANCES[name])
    assert main(["solve", str(path), *RUNS[run]]) == 0
    out = capsys.readouterr().out
    wall_ms = json.loads(out)["wall_ms"]
    assert isinstance(wall_ms, float) and wall_ms >= 0
    # Byte for byte: key order, indentation and number formatting included.
    want = dict(REPORTS[key], wall_ms=wall_ms)
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"
