import ast
import os
import subprocess
import sys
from pathlib import Path

import longtrail


def test_all_names_resolve():
    # The public surface, spelled out so that removing a name is a deliberate edit.
    assert set(longtrail.__all__) == {
        "Graph", "GraphFormatError", "HybridConfig", "OracleResult", "QueryLedger",
        "SizeLimitError", "SolveResult", "TrailVerdict", "boosted",
        "exhaustive", "full_dp_longest_trail",
        "longest_trail_bruteforce", "parse_graph", "predict_deterministic_queries",
        "random_graph", "serialize_graph", "solve_hybrid", "theoretical_costs",
        "validate_trail",
    }
    for name in longtrail.__all__:
        assert getattr(longtrail, name) is not None, name
    namespace: dict = {}
    exec("from longtrail import *", namespace)
    assert set(longtrail.__all__) <= namespace.keys()
    assert "validate_trail" in longtrail.__all__
    for module in ("bruteforce", "dp", "graphs", "hybrid", "qmax"):
        assert hasattr(longtrail, module), module


_REJECTING_RUN = """
import sys
from longtrail import bruteforce, dp, hybrid
from longtrail.graphs import Graph, TrailVerdict

assert sys.flags.optimize
reject = lambda g, trail: TrailVerdict(False, "rejected")
bruteforce.validate_trail = reject
dp.validate_trail = reject
hybrid.validate_trail = reject
g = Graph(3, ((0, 1), (1, 2), (2, 0)))
solve = lambda g: hybrid.solve_hybrid(g, hybrid.HybridConfig())
for engine in (bruteforce.longest_trail_bruteforce, dp.full_dp_longest_trail, solve):
    try:
        engine(g)
    except AssertionError:
        print("raised")
    else:
        print("returned")
"""


def test_engines_check_trails_under_optimize():
    # `python -O` strips assert statements; the engines' trail checks must
    # still raise there.
    src = str(Path(longtrail.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", _REJECTING_RUN], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == ["raised", "raised", "raised"]


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no check in the package may be one.
    paths = sorted(Path(longtrail.__file__).parent.glob("*.py"))
    assert {p.stem for p in paths} >= {"bruteforce", "cli", "dp", "graphs", "hybrid", "qmax"}
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, `from __future__` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in used]


def test_unused_import_check_finds_a_dead_name():
    assert _unused_imports("import os\nfrom array import array\nos.sep\n") == ["array:2"]
    assert _unused_imports("import os.path\nfrom a import b as c\nos.path, c\n") == []


def test_no_unused_imports_in_the_package():
    # `__init__.py` imports to re-export; every other module uses what it imports.
    paths = sorted(Path(longtrail.__file__).parent.glob("*.py"))
    found = {path.name: _unused_imports(path.read_text())
             for path in paths if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports from (`from .x import ...` or
    `from . import x`), by relative name."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_hybrid_and_dp_do_not_import_each_other():
    # The classical layer is the hybrid's alone (its size rule, its guard and
    # its count), and the DP's per-arc memo serves the DP alone.
    package = Path(longtrail.__file__).parent
    assert "dp" not in _package_imports(package / "hybrid.py")
    assert "hybrid" not in _package_imports(package / "dp.py")
    assert "graphs" in _package_imports(package / "hybrid.py")
