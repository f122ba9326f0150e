import json
import re

import pytest

from dist_alm.cli import main


def run_cli(args):
    return main(args)


class TestSolve:
    def test_small_instance_converges(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = run_cli(["solve", "--n", "2", "--d", "1", "--seed", "1",
                        "--eta", "1e-6", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        feas = float(re.search(r"feasibility_inf=([0-9.e+-]+)", captured).group(1))
        assert feas <= 1e-6
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and rows[0]["k"] == 0

    def test_unsolvable_budget_returns_one(self, capsys):
        code = run_cli(["solve", "--n", "2", "--d", "1", "--seed", "1",
                        "--eta", "1e-6", "--max-outer", "1", "--max-sweeps", "1"])
        assert code == 1


class TestBench:
    def test_csv_output_and_determinism(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["bench", "--n", "4", "--d", "2", "--r", "2", "--instances", "2",
                "--seed", "7", "--budgets", "5,10", "--tolerances", "1e-2,1e-3"]
        assert run_cli(base + ["--out", str(out_a)]) == 0
        assert run_cli(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().split("\n")
        assert lines[0] == "budget,tolerance,fraction,instances"
        assert len(lines) == 1 + 2 * 2

    def test_paper_style_invocation(self, tmp_path):
        out = tmp_path / "stats.csv"
        code = run_cli(["bench", "--n", "6", "--d", "3", "--r", "2",
                        "--rho0", "0.1", "--beta", "100", "--instances", "3",
                        "--seed", "7", "--budgets", "10,30",
                        "--tolerances", "1e-3,1e-4,1e-6", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("budget,tolerance,fraction,instances\n")

    @pytest.mark.parametrize("budgets", ["10.7,20", "0.5", "0", "inf", "nan"])
    def test_budget_not_a_positive_integer_exits_two(self, tmp_path, capsys, budgets):
        code = run_cli(["bench", "--n", "2", "--d", "1", "--instances", "1",
                        "--budgets", budgets, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "config error: budgets must be positive integers" in capsys.readouterr().err

    def test_budget_in_exponent_form(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["bench", "--n", "2", "--d", "1", "--instances", "1",
                        "--budgets", "1e1", "--tolerances", "1e-2", "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].startswith("10,")


class TestVerify:
    def test_fresh_checkout_passes(self, capsys):
        assert run_cli(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4 and "[FAIL]" not in out
        assert "[PASS] polytope projection vs enumeration oracle at M=3e8 I" in out


class TestConfigHandling:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "d": 1, "seed": 1, "eta": 1e-6}))
        assert run_cli(["solve", "--config", str(cfg)]) == 0

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"instances": 3, "n": 4, "d": 2,
                                   "budgets": "5", "tolerances": "1e-2"}))
        out = tmp_path / "s.csv"
        assert run_cli(["bench", "--config", str(cfg), "--instances", "2",
                        "--out", str(out)]) == 0
        assert out.read_text().strip().endswith(",2")

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert run_cli(["solve", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{\n  broken\n}")
        assert run_cli(["solve", "--config", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, values", [
        ("solve", {"eta": "1e-6"}),
        ("solve", {"n": True}),
        ("solve", {"max_sweeps": 2.5}),
        ("solve", {"out": 3}),
        ("bench", {"instances": 2.5}),
        ("bench", {"budgets": [10, 25]}),
        ("verify", {"seed": None}),
    ], ids=["eta-str", "n-bool", "max_sweeps-float", "out-int", "instances-float",
            "budgets-list", "seed-null"])
    def test_config_value_of_the_wrong_type_exits_two(self, tmp_path, capsys, mode,
                                                      values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        assert run_cli([mode, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"config key {next(iter(values))} " in err

    def test_unknown_flag_exits_two(self, capsys):
        assert run_cli(["solve", "--nope"]) == 2

    @pytest.mark.parametrize("mode", ["solve", "bench"])
    @pytest.mark.parametrize("scale", ["nan", "-1", "0", "inf"])
    def test_invalid_curvature_scale_exits_two(self, capsys, tmp_path, mode, scale):
        args = ["--n", "2", "--d", "1", f"--b-scale={scale}"]
        if mode == "bench":
            args += ["--instances", "1", "--out", str(tmp_path / "s.csv")]
        assert run_cli([mode, *args]) == 2
        assert "config error: scale must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["solve", "bench"])
    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_instance_scale_exits_two(self, capsys, tmp_path, mode, scale):
        args = ["--n", "2", "--d", "1", "--r", scale]
        if mode == "bench":
            args += ["--instances", "1", "--out", str(tmp_path / "s.csv")]
        assert run_cli([mode, *args]) == 2
        assert ("config error: scale R must be finite and > 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("tolerances", ["nan", "-1", "inf", "1e-3,nan"])
    def test_invalid_tolerance_exits_two(self, capsys, tmp_path, tolerances):
        out = tmp_path / "s.csv"
        assert run_cli(["bench", "--n", "2", "--d", "1", "--instances", "1",
                        f"--tolerances={tolerances}", "--out", str(out)]) == 2
        assert "config error: tolerances must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--rho0", "--beta"])
    def test_infinite_penalty_schedule_exits_two(self, capsys, flag):
        assert run_cli(["solve", "--n", "2", "--d", "1", flag, "inf"]) == 2
        assert f"config error: {flag[2:]} must " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--eps0", "--eta", "--tau"])
    def test_infinite_tolerance_exits_two(self, capsys, flag):
        assert run_cli(["solve", "--seed", "1", flag, "inf"]) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag[2:]} must be " in err and "finite" in err

    @pytest.mark.parametrize("mode", ["solve", "bench"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, mode):
        extra = ["--instances", "1"] if mode == "bench" else []
        code = run_cli([mode, "--seed", "-3", "--n", "2", "--d", "1",
                        "--out", str(tmp_path / "out"), *extra])
        assert code == 2
        assert "config error: seed must be an integer >= 0" in capsys.readouterr().err

    def test_invalid_numeric_field_exits_two(self, capsys):
        assert run_cli(["solve", "--beta", "0.5"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_overflowing_penalty_exits_two(self, capsys):
        # the second inner call once ran at rho = inf, and the exit status was 1
        assert run_cli(["solve", "--rho0", "1e100", "--beta", "1e300", "--eta", "0",
                        "--max-outer", "3"]) == 2
        assert "config error: the penalty overflows" in capsys.readouterr().err

    def test_penalty_that_overflows_the_arithmetic_exits_one(self, capsys):
        # finite at every outer iteration, but its residual overflows
        assert run_cli(["solve", "--rho0", "1e200", "--eta", "0", "--max-outer", "1"]) == 1
        assert "solver error: the penalty rho = 1e+200 overflows" in capsys.readouterr().err
