import json

import pytest

from longtrail import cli
from longtrail.cli import main
from longtrail.dp import full_dp_longest_trail
from longtrail.hybrid import SolveResult
from longtrail.qmax import QueryLedger

TRIANGLE_TEXT = "3 3\n0 1\n1 2\n2 0\n"
K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

REPORT_KEYS = {
    "engine", "n", "m", "length", "trail", "queries", "seed", "alpha",
    "mode", "wall_ms",
}


ROW_KEYS = {"instance", "n", "m", "lengths", "ok"}


class LowBound:
    """Stands in for ParityBound with a bound one below a full Euler trail."""

    def __init__(self, g):
        self.whole = g.edge_count - 1


def dp_backed_hybrid(g, cfg):
    res = full_dp_longest_trail(g)
    return SolveResult(res.length, res.trail, QueryLedger(), 0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic_output(self, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert run_cli(capsys, "gen", "--n", "4", "--m", "6", "--seed", "1",
                       "--out", str(out1))[0] == 0
        assert run_cli(capsys, "gen", "--n", "4", "--m", "6", "--seed", "1",
                       "--out", str(out2))[0] == 0
        assert out1.read_text() == out2.read_text()
        assert out1.read_text().splitlines()[0] == "4 6"

    def test_empty_instance(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--n", "1", "--m", "0")
        assert code == 0 and out == "1 0\n"

    def test_size_cap(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--n", "2", "--m", "31")
        assert code == 2 and "error" in err


class TestSolve:
    def _write(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        return str(path)

    def test_dp_triangle(self, capsys, tmp_path):
        path = self._write(tmp_path, TRIANGLE_TEXT)
        code, out, _ = run_cli(capsys, "solve", path, "--engine", "dp")
        assert code == 0
        report = json.loads(out)
        assert report["length"] == 3
        assert set(report) == REPORT_KEYS
        assert report["queries"] is None and report["mode"] is None

    def test_hybrid_det_k4(self, capsys, tmp_path):
        path = self._write(tmp_path, K4_TEXT)
        code, out, _ = run_cli(capsys, "solve", path, "--engine", "hybrid",
                               "--mode", "det")
        assert code == 0
        report = json.loads(out)
        assert report["length"] == 5
        assert report["queries"]["total"] > 0
        assert "level0" in report["queries"]["per_level"]
        assert set(report) == REPORT_KEYS

    def test_hybrid_stoch_reproducible(self, capsys, tmp_path):
        path = self._write(tmp_path, K4_TEXT)
        reports = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "solve", path, "--engine", "hybrid",
                                   "--mode", "stoch", "--seed", "5")
            assert code == 0
            rep = json.loads(out)
            rep.pop("wall_ms")
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_oracle_bound(self, capsys, tmp_path):
        edges = "\n".join("0 1" for _ in range(15))
        path = self._write(tmp_path, f"2 15\n{edges}\n")
        code, _, err = run_cli(capsys, "solve", path, "--engine", "oracle")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_budget_constant_must_be_positive(self, capsys, tmp_path, value):
        # nan compares false with everything: a budget of nan would never
        # stop a trajectory.
        path = self._write(tmp_path, K4_TEXT)
        code, out, err = run_cli(capsys, "solve", path, "--mode", "stoch",
                                 "--budget-constant", value)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "budget_constant must be positive" in err

    def test_parse_error(self, capsys, tmp_path):
        path = self._write(tmp_path, "2 1\n0 7\n")
        code, _, err = run_cli(capsys, "solve", path, "--engine", "dp")
        assert code == 2 and "out of range" in err


class TestVerify:
    def test_random_instances(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--random", "5", "4", "8", "123")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["agreed"] == 5
        assert "5/5 agree" in err

    def test_single_edge_file(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("2 1\n0 1\n")
        code, out, _ = run_cli(capsys, "verify", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["results"][0]["lengths"] == {
            "oracle": 1, "dp": 1, "hybrid-det": 1,
        }

    def test_empty_graph(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("3 0\n")
        code, out, _ = run_cli(capsys, "verify", str(path))
        payload = json.loads(out)
        assert code == 0
        assert set(payload["results"][0]["lengths"].values()) == {0}

    def test_length_above_the_parity_bound_fails(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE_TEXT)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and json.loads(out)["ok"]

        monkeypatch.setattr(cli, "ParityBound", LowBound)
        code, out, err = run_cli(capsys, "verify", str(path))
        payload = json.loads(out)
        assert code == 1 and not payload["ok"] and payload["agreed"] == 0
        assert set(payload["results"][0]) == ROW_KEYS
        assert payload["results"][0]["lengths"] == {"oracle": 3, "dp": 3, "hybrid-det": 3}
        assert "MISMATCH" in err

    # Past the oracle's m <= 14 ceiling: the DP runs for real, and the
    # hybrid is a DP-backed stub because a real hybrid-det solve at m = 16
    # takes minutes.  random_graph(5, 16, 1) has an Euler trail of all 16
    # edges, so its parity bound is tight.
    def test_past_the_oracle_ceiling(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve_hybrid", dp_backed_hybrid)
        code, out, err = run_cli(capsys, "verify", "--random", "1", "5", "16", "1")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] and payload["agreed"] == 1
        assert set(payload["results"][0]) == ROW_KEYS
        assert payload["results"][0]["lengths"] == {"dp": 16, "hybrid-det": 16}
        assert "1/1 agree" in err

    def test_past_the_oracle_ceiling_above_the_parity_bound_fails(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "solve_hybrid", dp_backed_hybrid)
        monkeypatch.setattr(cli, "ParityBound", LowBound)
        code, out, err = run_cli(capsys, "verify", "--random", "1", "5", "16", "1")
        payload = json.loads(out)
        assert code == 1 and not payload["ok"] and payload["agreed"] == 0
        assert set(payload["results"][0]) == ROW_KEYS
        assert payload["results"][0]["lengths"] == {"dp": 16, "hybrid-det": 16}
        assert "MISMATCH" in err

    def test_requires_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify"])

    def test_zero_random_instances_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--random", "0", "5", "8", "1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "COUNT" in err


class TestCosts:
    def test_m20(self, capsys):
        code, out, _ = run_cli(capsys, "costs", "--m", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["classical_count"] == 15504

    def test_m2000_exponents(self, capsys):
        code, out, _ = run_cli(capsys, "costs", "--m", "2000")
        payload = json.loads(out)
        assert abs(payload["exponent_classical"] - 0.78899) < 0.02
        assert abs(payload["exponent_quantum"] - 0.78899) < 0.02

    def test_too_small(self, capsys):
        code, _, err = run_cli(capsys, "costs", "--m", "3")
        assert code == 2 and "error" in err

    def test_unencodable_report_writes_nothing(self, capsys):
        # classical_count at these m has more digits than int -> str allows;
        # at m = 20,000,000 building it would take minutes, and 10**310 does
        # not convert to a float.
        for m in ("20000", "20000000", "1" + "0" * 310):
            code, out, err = run_cli(capsys, "costs", "--m", m)
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:")
