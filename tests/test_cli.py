import json
import os
import subprocess
import sys

import pytest

import stocklab
from stocklab.cli import build_parser, main, parse_policy
from stocklab.core import BaseStock, Dataset, NonStationary, SsPolicy, write_demands_csv


@pytest.fixture()
def demand_csv(tmp_path):
    path = tmp_path / "demands.csv"
    write_demands_csv(Dataset.from_matrix([[3.0, 7.0], [2.0, 5.0]]), str(path))
    return str(path)


class TestPolicyGrammar:
    def test_parse(self):
        assert parse_policy("base-stock:5") == BaseStock(5.0)
        assert parse_policy("ss:-2,7") == SsPolicy(-2.0, 7.0)
        assert parse_policy("st:3,7,5") == NonStationary((3.0, 7.0, 5.0))

    def test_rejects_garbage(self):
        for text in ("nope:1", "base-stock:", "ss:1", "st:", "base-stock:a"):
            with pytest.raises(ValueError, match="--policy"):
                parse_policy(text)


class TestSimulate:
    def test_worked_example(self, capsys):
        code = main(["simulate", "--policy", "base-stock:5", "--demands", "3,7",
                     "--h", "1", "--b", "9", "--K", "0", "--L", "0", "--T", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "avgLoss 10"

    def test_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--policy", "ss:0,5", "--demands", "3,7",
                     "--T", "2", "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["rng"] == "numpy-PCG64"

    def test_validation_exit_code(self, capsys):
        assert main(["simulate", "--policy", "bogus:1", "--demands", "1", "--T", "1"]) == 1
        assert main(["simulate", "--policy", "base-stock:5", "--demands", "1,2,3",
                     "--T", "1"]) == 1
        err = capsys.readouterr().err
        assert "demand length" in err

    @pytest.mark.parametrize("demands,message", [
        ("3,nan", "demands must be finite numbers"),
        ("3,-7", "demands must be nonnegative"),
        ("1e-12,0", "demands must be 0 or larger than ORDER_EPS = 1e-12"),
    ])
    def test_invalid_demands_rejected(self, capsys, demands, message):
        assert main(["simulate", "--policy", "base-stock:5", "--demands", demands,
                     "--T", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("policy,message", [
        ("ss:nan,5", "(s, S) must be finite, got (nan, 5.0)"),
        ("base-stock:nan", "base-stock level must be finite, got nan"),
        ("st:nan,1", "order-up-to levels must be finite, got (nan, 1.0)"),
        ("st:inf,1", "order-up-to levels must be finite, got (inf, 1.0)"),
    ])
    def test_non_finite_policy_rejected(self, capsys, policy, message):
        # --unchecked skips the class bounds, not the policy's own checks
        assert main(["simulate", "--policy", policy, "--demands", "1,2", "--T", "2",
                     "--unchecked"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: --policy {policy!r}: {message}"]

    def test_unknown_flag_rejected(self):
        assert main(["simulate", "--policy", "base-stock:5", "--demands", "1",
                     "--T", "1", "--frobnicate"]) == 1


class TestFit:
    def test_fit_base_stock(self, demand_csv, capsys, tmp_path):
        out = tmp_path / "fit"
        code = main(["fit", "--class", "base-stock", "--data", demand_csv,
                     "--T", "2", "--U", "10", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("policy base-stock:")
        record = json.loads((out / "fit.json").read_text())
        assert record["class"] == "base-stock"
        assert record["in_sample_risk"] > 0

    def test_fit_all_classes(self, demand_csv):
        for cls in ("base-stock", "eoq", "ss", "st"):
            assert main(["fit", "--class", cls, "--data", demand_csv,
                         "--T", "2", "--U", "10"]) == 0

    def test_missing_file(self, capsys):
        assert main(["fit", "--class", "base-stock", "--data", "/nope.csv",
                     "--T", "2"]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_demand_rejected(self, tmp_path, capsys, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"t1,t2\n3.0,{value}\n2.0,5.0\n")
        assert main(["fit", "--class", "base-stock", "--data", str(path), "--T", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: demands must be finite numbers"

    def test_dust_demand_rejected(self, tmp_path, capsys):
        # simulate drops a dust order, which the base-stock closed form would charge
        path = tmp_path / "dust.csv"
        path.write_text("t1,t2\n1e-12,0\n")
        assert main(["fit", "--class", "base-stock", "--data", str(path), "--T", "2",
                     "--h", "0", "--b", "1", "--K", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error: demands must be 0 or larger than ORDER_EPS = 1e-12"
        ]

    @pytest.mark.parametrize("flag,value", [("--h", "nan"), ("--b", "inf"),
                                            ("--K", "nan"), ("--x1", "nan")])
    def test_non_finite_parameter_rejected(self, demand_csv, capsys, flag, value):
        assert main(["fit", "--class", "base-stock", "--data", demand_csv,
                     "--T", "2", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag[2:]} must be ")

    @pytest.mark.parametrize("argv", [
        pytest.param(["fit", "--class", "base-stock"], id="base-stock"),
        pytest.param(["fit", "--class", "eoq"], id="eoq"),
        pytest.param(["fit", "--class", "st"], id="st"),
        pytest.param(["fit", "--class", "ss"], id="ss"),
        pytest.param(["fit", "--class", "ss", "--mode", "integer-grid"], id="ss-integer-grid"),
        pytest.param(["fit", "--class", "ss", "--grid-oracle", "1"], id="ss-grid-oracle"),
        pytest.param(["perm", "--class", "ss"], id="perm-ss"),
    ])
    def test_infinite_level_cap_rejected(self, demand_csv, capsys, argv):
        assert main(argv + ["--data", demand_csv, "--T", "2", "--H", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: fitting needs a finite level cap H >= 0, got inf"

    @pytest.mark.parametrize("argv", [
        pytest.param(["fit", "--class", "base-stock"], id="fit"),
        pytest.param(["rademacher", "--draws", "5"], id="rademacher"),
    ])
    def test_positive_x1_rejected_by_base_stock_closed_form(self, tmp_path, capsys, argv):
        path = tmp_path / "demands.csv"
        path.write_text("t1,t2,t3\n1,0,0\n")
        assert main(argv + ["--data", str(path), "--T", "3", "--x1", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the base-stock closed form needs x1 <= 0, got x1=1.0"
        ]
        # the per-period class still fits from positive initial stock
        assert main(["fit", "--class", "st", "--data", str(path), "--T", "3", "--x1", "1"]) == 0

    def test_empty_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["fit", "--class", "base-stock", "--data", str(path), "--T", "2"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "is empty" in err[0]

    @pytest.mark.parametrize("cls", ["base-stock", "eoq", "ss", "st"])
    def test_width_mismatch_rejected(self, demand_csv, capsys, cls):
        assert main(["fit", "--class", cls, "--data", demand_csv, "--T", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "error: dataset has 2 periods per sequence, expected T + L = 5"
        )


class TestPerm:
    def test_perm_st(self, demand_csv, capsys):
        code = main(["perm", "--class", "st", "--data", demand_csv, "--T", "2",
                     "--U", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "productRisk" in out

    def test_nonstationary_ss_warning_is_one_line(self, tmp_path):
        path = tmp_path / "demands.csv"
        path.write_text("t1,t2\n3,7\n2,5\n4,1\n")
        root = os.path.dirname(os.path.dirname(stocklab.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        out = subprocess.run(
            [sys.executable, "-m", "stocklab.cli", "perm", "--class", "ss", "--data",
             str(path), "--T", "2", "--U", "10"],
            capture_output=True, text=True, cwd=tmp_path, env={**env, "PYTHONPATH": root},
        )
        assert out.returncode == 0
        assert out.stdout.startswith("policy ss:")
        assert out.stderr == (
            "warning: fitting a stationary (s, S) policy against non-stationary marginals\n"
        )

    @pytest.mark.parametrize("policy_class", ["st", "ss"])
    def test_fractional_demands_rejected(self, tmp_path, capsys, policy_class):
        path = tmp_path / "fractional.csv"
        path.write_text("t1,t2\n3.0,7.5\n2.0,5.0\n")
        assert main(["perm", "--class", policy_class, "--data", str(path), "--T", "2",
                     "--U", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "error: product fitting requires integer demands"
        ]


class TestShatter:
    def test_verify_ok(self, capsys):
        assert main(["shatter", "--construction", "st", "--T", "8", "--verify"]) == 0
        assert capsys.readouterr().out.strip() == "ok (256 subsets)"

    def test_verify_failure_exit(self, capsys):
        # the fixed-cost construction fails exactly at margin K/T
        assert main(["shatter", "--construction", "st-k", "--T", "9", "--K", "1",
                     "--gamma", str(1 / 9), "--verify"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_budget_exit(self):
        assert main(["shatter", "--construction", "st", "--T", "17", "--verify"]) == 2

    def test_prime_instance(self, capsys, tmp_path):
        out = tmp_path / "inst"
        assert main(["shatter", "--construction", "ss-prime", "--m", "2",
                     "--b", "0.5", "--verify", "--out", str(out)]) == 0
        assert (out / "instance.csv").exists()

    def test_missing_required_flag(self, capsys):
        assert main(["shatter", "--construction", "st", "--verify"]) == 1
        assert "--T" in capsys.readouterr().err


class TestRademacherAndGap:
    def test_rademacher(self, demand_csv, capsys):
        assert main(["rademacher", "--data", demand_csv, "--T", "2", "--U", "10",
                     "--draws", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("estimate ")

    def test_ge_mode(self, capsys):
        assert main(["rademacher", "--ge", "--T", "2", "--U", "20",
                     "--n-train", "5", "--reps", "3", "--eval-samples", "100",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("meanGE ")

    def test_gap(self, capsys):
        assert main(["gap", "--M", "2"]) == 0
        out = capsys.readouterr().out
        assert "continuousRisk 0.0625" in out


class TestIntrospectionFlags:
    def test_schedule_and_breakpoints(self, capsys):
        assert main(["simulate", "--policy", "ss:0,5", "--demands", "4,3,1",
                     "--T", "3", "--schedule", "5", "--breakpoints",
                     "--x1", "-5", "--Hlo", "-5"]) == 0
        out = capsys.readouterr().out
        assert "reorderPeriods 1,3" in out
        assert "gapBreakpoints 3,4,7" in out

    @pytest.mark.parametrize("gap", ["nan", "-1"])
    def test_bad_schedule_gap_prints_only_the_error(self, gap, capsys):
        assert main(["simulate", "--policy", "ss:0,5", "--demands", "4,3,1",
                     "--T", "3", "--x1", "-5", "--Hlo", "-5", f"--schedule={gap}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    def test_grid_oracle_fit(self, demand_csv, capsys):
        assert main(["fit", "--class", "base-stock", "--data", demand_csv,
                     "--T", "2", "--U", "10", "--grid-oracle", "0.5"]) == 0
        assert "grid-oracle" not in capsys.readouterr().err

    def test_partition_print(self, demand_csv, capsys):
        assert main(["perm", "--class", "st", "--data", demand_csv, "--T", "2",
                     "--U", "10", "--partition"]) == 0
        out = capsys.readouterr().out
        assert out.count("group ") == 2  # N=2, periods=2 -> 2 groups


class TestExperiment:
    def test_run_and_idempotent(self, tmp_path, capsys):
        cfg = {
            "kind": "ee-vs-T",
            "sweep": [2],
            "system": {"T": 2, "L": 0, "h": 1.0, "b": 9.0, "K": 0.0, "U": 20.0},
            "instance_count": 1,
            "dataset_reps": 2,
            "n_train": 4,
            "seed": 11,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "results"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
        first = (out / "results.csv").read_bytes()
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "results.csv").read_bytes() == first
        assert (out / "metadata.json").exists()

    def test_bad_config_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path)]) == 1
        path.write_text(json.dumps({"kind": "nope", "sweep": [1], "system": {"T": 1}}))
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path)]) == 1
        good = {"kind": "ee-vs-T", "sweep": [2], "system": {"T": 2}}
        capsys.readouterr()
        for bad in ({**good, "sweep": 5}, {**good, "system": [1, 2]}, {**good, "hyper": 5},
                    [1, 2], {**good, "classes": "st"},
                    {**good, "kind": "erm-vs-perm-corr", "sweep": ["a"]},
                    {**good, "instance_count": 1.5}, {**good, "seed": 1.5},
                    {**good, "sweep": [2.5]},
                    {"kind": "oos-vs-N-sS", "sweep": [2], "system": {"T": 2, "bogus": 1}},
                    {**good, "hyper": {"mu0": "x"}}, {**good, "hyper": {"sigma0": -5}},
                    {**good, "kind": "erm-vs-perm-corr", "sweep": [0.5],
                     "hyper": {"support_size": 2.5}},
                    {**good, "hyper": {"cap": 0}}, {**good, "hyper": {"nonst": 1.5}},
                    {**good, "hyper": {"mu0": float("inf")}}, {**good, "hyper": {"rho": 2}},
                    {**good, "hyper": {"cap": True}}, {**good, "hyper": {"integerize": 1}},
                    {**good, "hyper": {"support_form": "grid"}},
                    {"kind": "oos-vs-N-sS", "sweep": [2], "system": {"T": 2},
                     "hyper": {"p_cycle": 0}},
                    {"kind": "oos-vs-N-sS", "sweep": [2], "system": {"T": 2},
                     "hyper": {"p_cycle": "x"}}):
            path.write_text(json.dumps(bad))
            assert main(["experiment", "--config", str(path), "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


class TestHelpAudit:
    # maps every public library operation to the subcommand + help markers
    # that reach it
    OPERATION_COVERAGE = {
        "simulate": ("simulate", ["--policy", "--demands"]),
        "base_stock_loss": ("simulate", ["--policy"]),
        "reorder_schedule": ("simulate", ["--schedule"]),
        "delta_breakpoints": ("simulate", ["--breakpoints"]),
        "erm_base_stock": ("fit", ["base-stock"]),
        "erm_eoq_base_stock": ("fit", ["eoq"]),
        "erm_sS": ("fit", ["integer-grid"]),
        "erm_St": ("fit", ["--restarts"]),
        "grid_oracle": ("fit", ["--grid-oracle"]),
        "build_marginals": ("perm", ["--data"]),
        "perm_fit": ("perm", ["--class"]),
        "product_partition": ("perm", ["--partition"]),
        "solve_dp": ("experiment", ["ee-vs-T"]),
        "sample_instance": ("experiment", ["--config"]),
        "draw": ("experiment", ["--config"]),
        "verify_shattering": ("shatter", ["--verify"]),
        "gen_st_shatter": ("shatter", ["st"]),
        "gen_st_K_shatter": ("shatter", ["st-k"]),
        "gen_sS_prime_shatter": ("shatter", ["ss-prime"]),
        "discretization_gap": ("gap", ["--M"]),
        "rademacher_estimate": ("rademacher", ["--draws"]),
        "ge_estimate": ("rademacher", ["--ge"]),
        "run_ee_vs_T": ("experiment", ["ee-vs-T"]),
        "run_oos_vs_N": ("experiment", ["oos-vs-N-sS", "oos-vs-N-St"]),
        "run_erm_vs_perm": ("experiment", ["erm-vs-perm-ind", "erm-vs-perm-corr"]),
        "emit_results": ("experiment", ["--out"]),
    }

    def test_every_operation_reachable(self, capsys):
        assert main(["--help"]) == 0
        top = capsys.readouterr().out
        for sub in ("simulate", "fit", "perm", "shatter", "rademacher", "gap",
                    "experiment"):
            assert sub in top
        parser = build_parser()
        texts = {}
        for name, sub in parser._subparsers._group_actions[0].choices.items():
            texts[name] = sub.format_help().replace("\n", "").replace("  ", " ")
        for op, (sub, markers) in self.OPERATION_COVERAGE.items():
            assert sub in texts, f"{op}: no subcommand {sub}"
            for marker in markers:
                assert marker in texts[sub], f"{op}: {marker!r} not in {sub} help"

    def test_version(self, capsys):
        assert main(["--version"]) == 0
