import csv
import json
import re

import pytest

from ampso import cli, harness
from ampso.cli import main
from conftest import column_sphere, half_inf_sphere, scaling_sphere, sphere_with, total_sphere


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BUDGET_ARGS = ["--fe-budget", "2000"]
# an objective that writes into its input is named as the culprit
READ_ONLY_BREACH = r"objective wrote into its read-only input: output array is read-only"


class TestRunCommand:
    def test_summary_line_and_exit_code(self, capsys):
        code, out, _ = run_cli(
            ["run", "--algo", "ampso", "--function", "rastrigin", "--dim", "10", "--seed", "7"]
            + BUDGET_ARGS,
            capsys,
        )
        assert code == 0
        assert re.fullmatch(
            r"ampso rastrigin dim=10 seed=7 best_error=\d\.\d{6}e[+-]\d+ fe_used=\d+\n", out
        )

    def test_repeat_invocations_write_identical_traces(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                ["run", "--function", "ackley", "--dim", "2", "--seed", "3", "--out", str(path)]
                + BUDGET_ARGS,
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unknown_function_exits_2_and_lists_names(self, capsys):
        code, _, err = run_cli(["run", "--function", "nosuch"], capsys)
        assert code == 2
        for name in ("sphere", "rastrigin", "ackley", "griewank", "rosenbrock", "schwefel_226"):
            assert name in err

    def test_unknown_algorithm_exits_2(self, capsys):
        code, _, err = run_cli(["run", "--algo", "annealing"], capsys)
        assert code == 2
        assert "gpso" in err

    def test_unknown_algorithm_in_list_named(self, capsys):
        code, _, err = run_cli(["bench", "--algo", "ampso,nope"] + BUDGET_ARGS, capsys)
        assert code == 2
        assert "'nope'" in err and "'ampso,nope'" not in err

    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, command, seed):
        path = tmp_path / "trace.csv"
        argv = [command, "--function", "sphere", "--dim", "2", "--seed", seed, "--out", str(path)]
        code, out, err = run_cli(argv + ["--fe-budget", "100"], capsys)
        assert code == 2
        assert "64-bit" in err
        assert not out and not path.exists()

    @pytest.mark.parametrize("algo", ["ampso", "gpso"])
    def test_budget_below_first_swarm_exits_2(self, capsys, algo):
        code, out, err = run_cli(["run", "--algo", algo, "--fe-budget", "25"], capsys)
        assert code == 2
        assert "fe_budget" in err and not out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algo", ["ampso", "gpso"])
    def test_infinite_objective_exits_1(self, capsys, monkeypatch, algo):
        monkeypatch.setattr(cli, "make_spec", lambda function, dim: half_inf_sphere(dim))
        args = ["run", "--algo", algo, "--function", "sphere", "--dim", "2"]
        code, out, err = run_cli(args + BUDGET_ARGS, capsys)
        assert code == 1 and not out
        assert re.fullmatch(r"error: objective returned an infinite value for \d+ of \d+ points\n", err)

    @pytest.mark.parametrize("algo", ["ampso", "gpso"])
    @pytest.mark.parametrize(
        "objective, message",
        [
            pytest.param(scaling_sphere, READ_ONLY_BREACH, id="scaling_sphere-output array is read-only"),
            (total_sphere, r"objective returned shape \(\) for \d+ points; expected \(\d+,\)"),
            (column_sphere, r"objective returned shape \(\d+, 1\) for \d+ points; expected \(\d+,\)"),
        ],
    )
    def test_objective_contract_breach_exits_1(self, capsys, monkeypatch, algo, objective, message):
        monkeypatch.setattr(cli, "make_spec", lambda function, dim: sphere_with(dim, objective))
        args = ["run", "--algo", algo, "--function", "sphere", "--dim", "2"]
        code, out, err = run_cli(args + BUDGET_ARGS, capsys)
        assert code == 1 and not out
        assert re.fullmatch(rf"error: {message}\n", err)

    def test_gpso_selectable(self, capsys):
        code, out, _ = run_cli(
            ["run", "--algo", "gpso", "--function", "sphere", "--dim", "2"] + BUDGET_ARGS, capsys
        )
        assert code == 0
        assert out.startswith("gpso sphere")


class TestConfigHandling:
    def test_config_file_applies(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"entropy_bins": 12, "fe_budget": 1500}))
        code, out, _ = run_cli(
            ["run", "--function", "sphere", "--dim", "2", "--config", str(config_path)], capsys
        )
        assert code == 0
        assert "fe_used=1" in out  # budget 1500 -> fe_used in the 1400s

    def test_env_overrides_config_file(self, tmp_path, capsys, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"fe_budget": 9999}))
        monkeypatch.setenv("AMPSO_FE_BUDGET", "1200")
        code, out, _ = run_cli(
            ["run", "--function", "sphere", "--dim", "2", "--config", str(config_path)], capsys
        )
        assert code == 0
        fe_used = int(out.rsplit("fe_used=", 1)[1])
        assert fe_used <= 1200

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("AMPSO_FE_BUDGET", "9999")
        code, out, _ = run_cli(
            ["run", "--function", "sphere", "--dim", "2", "--fe-budget", "1200"], capsys
        )
        assert code == 0
        fe_used = int(out.rsplit("fe_used=", 1)[1])
        assert fe_used <= 1200

    @pytest.mark.parametrize(
        "name, raw", [("ENTROPY_BINS", "12.5"), ("FE_BUDGET", "abc"), ("RATE_WINDOW", "true"), ("C1", "nan")]
    )
    def test_mistyped_env_value_exits_2(self, capsys, monkeypatch, name, raw):
        monkeypatch.setenv("AMPSO_" + name, raw)
        code, _, err = run_cli(["run", "--function", "sphere", "--dim", "2"], capsys)
        assert code == 2
        assert name.lower() in err

    def test_env_values_read_as_json_scalars(self, capsys, monkeypatch):
        monkeypatch.setenv("AMPSO_C1", "1.5")
        monkeypatch.setenv("AMPSO_ENTROPY_BINS", "12")
        code, _, _ = run_cli(["run", "--function", "sphere", "--dim", "2"] + BUDGET_ARGS, capsys)
        assert code == 0

    def test_invalid_config_value_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"sub_swarm_size": 3}))
        code, _, err = run_cli(
            ["run", "--function", "sphere", "--config", str(config_path)], capsys
        )
        assert code == 2
        assert "sub_swarm_size" in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"swarmsize": 10}))
        code, _, err = run_cli(["run", "--config", str(config_path)], capsys)
        assert code == 2

    def test_mistyped_config_value_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"exploitation_size": "forty"}))
        code, _, _ = run_cli(["run", "--config", str(config_path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("key, value", [("entropy_bins", 12.5), ("rate_window", True)])
    def test_non_integer_config_value_exits_2(self, tmp_path, capsys, key, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value}))
        code, _, err = run_cli(["run", "--config", str(config_path)] + BUDGET_ARGS, capsys)
        assert code == 2
        assert key in err

    def test_bad_usage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_clock_seed_accepted_and_reported(self, capsys):
        code, out, _ = run_cli(
            ["run", "--function", "sphere", "--dim", "2", "--seed", "clock"] + BUDGET_ARGS, capsys
        )
        assert code == 0
        reported = int(re.search(r"seed=(\d+)", out).group(1))
        # the reported seed re-derives the exact same run
        code2, out2, _ = run_cli(
            ["run", "--function", "sphere", "--dim", "2", "--seed", str(reported)] + BUDGET_ARGS,
            capsys,
        )
        assert code2 == 0
        assert out2 == out

    def test_non_numeric_seed_exits_2(self, capsys):
        code, _, err = run_cli(["run", "--seed", "yesterday"], capsys)
        assert code == 2
        assert "clock" in err

    def test_config_file_seed_used_when_flag_absent(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 314, "fe_budget": 1500}))
        code, out, _ = run_cli(
            ["run", "--function", "sphere", "--dim", "2", "--config", str(config_path)], capsys
        )
        assert code == 0
        assert "seed=314" in out


class TestTraceCommand:
    def test_trace_schema_and_grammar(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            ["trace", "--function", "rastrigin", "--dim", "2", "--seed", "1", "--out", str(path)]
            + BUDGET_ARGS,
            capsys,
        )
        assert code == 0
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert tuple(rows[0].keys()) == ("fe", "iteration", "phase", "best_error", "diversity", "omega", "er")
        fes = [int(r["fe"]) for r in rows]
        assert all(b > a for a, b in zip(fes, fes[1:]))
        errors = [float(r["best_error"]) for r in rows]
        assert all(b <= a for a, b in zip(errors, errors[1:]))
        word = "".join({"exploration": "R", "exploitation": "X", "convergence": "C"}[r["phase"]] for r in rows)
        assert re.fullmatch(r"(R+X+)+C+", word)

    def test_stride_flag(self, tmp_path, capsys):
        dense, sparse = tmp_path / "dense.csv", tmp_path / "sparse.csv"
        base = ["trace", "--function", "sphere", "--dim", "2", "--seed", "2"] + BUDGET_ARGS
        run_cli(base + ["--out", str(dense)], capsys)
        run_cli(base + ["--out", str(sparse), "--stride", "300"], capsys)
        assert len(sparse.read_text().splitlines()) < len(dense.read_text().splitlines())

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["trace", "--function", "sphere", "--dim", "2", "--out", str(tmp_path / "missing" / "t.csv")]
            + BUDGET_ARGS,
            capsys,
        )
        assert code == 1
        assert err


class TestBenchCommand:
    def test_single_run_statistics_degenerate(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, out, _ = run_cli(
            [
                "bench",
                "--algo",
                "ampso",
                "--function",
                "sphere",
                "--dim",
                "2",
                "--runs",
                "1",
                "--seed",
                "11",
                "--out",
                str(out_dir),
            ]
            + BUDGET_ARGS,
            capsys,
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        (cell,) = summary["cells"]
        assert cell["mean"] == cell["best"] == cell["worst"] == cell["median"]
        assert cell["std"] == 0.0

    def test_two_algorithms_aligned_rows(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, _, _ = run_cli(
            [
                "bench",
                "--algo",
                "ampso,gpso",
                "--function",
                "sphere,griewank",
                "--dim",
                "2",
                "--runs",
                "2",
                "--out",
                str(out_dir),
            ]
            + BUDGET_ARGS,
            capsys,
        )
        assert code == 0
        with open(out_dir / "summary.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["algorithm"], r["function"]) for r in rows] == [
            ("ampso", "sphere"),
            ("ampso", "griewank"),
            ("gpso", "sphere"),
            ("gpso", "griewank"),
        ]

    def test_run_seeds_beyond_64_bits_exit_2(self, tmp_path, capsys):
        args = ["bench", "--function", "sphere", "--dim", "2", "--runs", "2", "--out", str(tmp_path / "b")]
        code, _, err = run_cli(args + ["--seed", str(2**64 - 1)] + BUDGET_ARGS, capsys)
        assert code == 2
        assert "64-bit" in err
        assert not (tmp_path / "b").exists()
        code, _, _ = run_cli(args + ["--seed", str(2**64 - 2)] + BUDGET_ARGS, capsys)
        assert code == 0

    def test_empty_grid_entry_exits_2(self, tmp_path, capsys):
        args = ["bench", "--algo", ",", "--function", "sphere", "--dim", "2", "--runs", "1"]
        code, out, err = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        assert code == 2
        assert "algorithms must not be empty" in err
        assert not out and not (tmp_path / "b").exists()

    def test_repeated_grid_entry_exits_2(self, tmp_path, capsys):
        args = ["bench", "--algo", "gpso", "--function", "sphere,sphere", "--dim", "2", "--runs", "2"]
        code, out, err = run_cli(args + ["--fe-budget", "100", "--out", str(tmp_path / "b")], capsys)
        assert code == 2
        assert "'sphere'" in err
        assert not out and not (tmp_path / "b").exists()

    def test_failed_run_reason_printed(self, tmp_path, capsys, monkeypatch):
        def crash(config, spec, seed=None):
            raise RuntimeError("objective blew up")

        monkeypatch.setitem(harness.ALGORITHMS, "gpso", crash)
        args = ["bench", "--algo", "gpso", "--function", "sphere", "--dim", "2", "--runs", "2", "--seed", "3"]
        code, out, _ = run_cli(args + ["--out", str(tmp_path / "b")] + BUDGET_ARGS, capsys)
        assert code == 1
        assert "FAILED (run 0 (seed 3) failed: RuntimeError: objective blew up)" in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algo", ["ampso", "gpso"])
    def test_infinite_objective_fails_its_cell(self, tmp_path, capsys, monkeypatch, algo):
        monkeypatch.setattr(harness, "make_spec", lambda function, dim: half_inf_sphere(dim))
        args = ["bench", "--algo", algo, "--function", "sphere", "--dim", "2", "--runs", "2", "--seed", "3"]
        code, out, _ = run_cli(args + ["--out", str(tmp_path / "b")] + BUDGET_ARGS, capsys)
        assert code == 1
        reason = r"run 0 \(seed 3\) failed: ValueError: objective returned an infinite value for \d+ of \d+ points"
        assert re.search(rf"FAILED \({reason}\)", out)

    @pytest.mark.parametrize("algo", ["ampso", "gpso"])
    @pytest.mark.parametrize(
        "objective, message",
        [
            pytest.param(scaling_sphere, READ_ONLY_BREACH, id="scaling_sphere-output array is read-only"),
            (column_sphere, r"objective returned shape \(\d+, 1\)"),
        ],
    )
    def test_objective_contract_breach_fails_its_cell(self, tmp_path, capsys, monkeypatch, algo, objective, message):
        monkeypatch.setattr(harness, "make_spec", lambda function, dim: sphere_with(dim, objective))
        args = ["bench", "--algo", algo, "--function", "sphere", "--dim", "2", "--runs", "2", "--seed", "3"]
        code, out, _ = run_cli(args + ["--out", str(tmp_path / "b")] + BUDGET_ARGS, capsys)
        assert code == 1
        assert re.search(rf"FAILED \(run 0 \(seed 3\) failed: ValueError: {message}", out)

    def test_campaign_reproducibility(self, tmp_path, capsys):
        args = [
            "bench",
            "--function",
            "rastrigin",
            "--dim",
            "2",
            "--runs",
            "2",
            "--seed",
            "21",
        ] + BUDGET_ARGS
        run_cli(args + ["--out", str(tmp_path / "x")], capsys)
        run_cli(args + ["--out", str(tmp_path / "y")], capsys)
        for name in ("runs.csv", "summary.csv", "summary.json"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
