import csv
import json
import re

import pytest

from ampso import cli, harness
from ampso.benchmarks import make_spec
from ampso.cli import main
from ampso.harness import write_trace_csv
from ampso.optimizer import AmpsoConfig, run_ampso
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

    @pytest.mark.parametrize("command", ["run"])
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

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("algo, size", [("ampso", "EXPLORATION_SIZE"), ("gpso", "CONVERGENCE_SIZE")])
    def test_default_budget_below_first_swarm_exits_2(self, tmp_path, capsys, monkeypatch, command, algo, size):
        # no --fe-budget: the budget resolves to 10000 x dim, below a first swarm of 20000
        monkeypatch.setenv("AMPSO_" + size, "20000")
        out_dir = tmp_path / "out"
        code, out, err = run_cli([command, "--algo", algo, "--dim", "1", "--out", str(out_dir)], capsys)
        assert code == 2
        assert "fe_budget" in err and "got 10000" in err
        assert not out and not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_gpso_is_held_only_to_its_own_first_swarm(self, tmp_path, capsys, monkeypatch, command):
        # gpso builds no exploration swarm, so an exploration_size above the
        # default budget of 10000 x dim does not refuse it
        monkeypatch.setenv("AMPSO_EXPLORATION_SIZE", "20000")
        argv = [command, "--algo", "gpso", "--function", "sphere", "--dim", "1", "--out", str(tmp_path / "out")]
        code, out, err = run_cli(argv + (["--runs", "2"] if command == "bench" else []), capsys)
        assert code == 0, err
        assert not err and "gpso sphere dim=1" in out

    @pytest.mark.parametrize("command, algo", [("run", "ampso"), ("bench", "ampso,gpso"), ("bench", "gpso,ampso")])
    def test_ampso_in_the_grid_holds_it_to_ampsos_first_swarm(self, tmp_path, capsys, monkeypatch, command, algo):
        monkeypatch.setenv("AMPSO_EXPLORATION_SIZE", "20000")
        out_dir = tmp_path / "out"
        code, out, err = run_cli([command, "--algo", algo, "--function", "sphere", "--dim", "1", "--out", str(out_dir)], capsys)
        assert code == 2
        assert "at least 20000 evaluations, got 10000" in err
        assert not out and not out_dir.exists()

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

    def test_config_value_past_the_float_range_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"c1": 10**401}))
        code, out, err = run_cli(["run", "--config", str(config_path)] + BUDGET_ARGS, capsys)
        assert code == 2 and not out
        assert err.startswith("error: c1 must be a finite real number")

    def test_environment_value_past_the_float_range_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("AMPSO_VMAX_FACTOR", str(10**401))
        code, out, err = run_cli(["run"] + BUDGET_ARGS, capsys)
        assert code == 2 and not out
        assert err.startswith("error: vmax_factor must be a finite real number")

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b'{"c1": 1' + b"0" * 4999 + b"}", id="5000-digit integer"),
            pytest.param(bytes([0xFF, 0xFE, 0x7B, 0x7D]), id="not utf-8"),
        ],
    )
    def test_unreadable_config_value_exits_2(self, tmp_path, capsys, content):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(content)
        code, out, err = run_cli(["run", "--config", str(config_path)] + BUDGET_ARGS, capsys)
        assert code == 2 and not out
        assert err.startswith("error: config file is not valid JSON: ")

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
            ["run", "--function", "rastrigin", "--dim", "2", "--seed", "1", "--out", str(path)]
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
        base = ["run", "--function", "sphere", "--dim", "2", "--seed", "2"] + BUDGET_ARGS
        run_cli(base + ["--out", str(dense)], capsys)
        run_cli(base + ["--out", str(sparse), "--stride", "300"], capsys)
        assert len(sparse.read_text().splitlines()) < len(dense.read_text().splitlines())

    def test_out_writes_what_write_trace_csv_writes(self, tmp_path, capsys):
        args = ["run", "--function", "rastrigin", "--dim", "2", "--seed", "5"] + BUDGET_ARGS
        code, out, _ = run_cli(args + ["--out", str(tmp_path / "cli.csv"), "--stride", "40"], capsys)
        assert code == 0
        result = run_ampso(AmpsoConfig(fe_budget=2000, seed=5), make_spec("rastrigin", 2))
        write_trace_csv(str(tmp_path / "api.csv"), result, stride=40)
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "api.csv").read_bytes()
        # --out adds a file, not a word, to the summary line
        assert run_cli(args, capsys)[1] == out

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--stride", "5"], "--stride needs --out"),
            (["--out", "trace.csv", "--stride", "0"], "--stride must be at least 1"),
            (["--out", "trace.csv", "--stride", "-3"], "--stride must be at least 1"),
        ],
    )
    def test_stride_misuse_exits_2(self, tmp_path, capsys, monkeypatch, extra, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["run", "--function", "sphere", "--dim", "2"] + BUDGET_ARGS + extra, capsys)
        assert code == 2 and not out
        assert err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_trace_is_not_a_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace", "--function", "sphere", "--dim", "2", "--out", str(tmp_path / "t.csv")])
        assert err.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "--function", "sphere", "--dim", "2", "--out", str(tmp_path / "missing" / "t.csv")]
            + BUDGET_ARGS,
            capsys,
        )
        assert code == 1
        assert err

    def test_missing_output_directory_names_the_given_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "run.csv"
        args = ["run", "--algo", "gpso", "--function", "sphere", "--dim", "1", "--fe-budget", "100"]
        code, stdout, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 1
        assert not stdout
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "out, message",
        [
            ("missing/t.csv", "[Errno 2] No such file or directory"),
            ("afile/t.csv", "[Errno 20] Not a directory"),
            ("adir", "[Errno 21] Is a directory"),
        ],
    )
    def test_unwritable_trace_path_fails_before_the_run(self, tmp_path, capsys, monkeypatch, out, message):
        runs, run = [], harness.ALGORITHMS["gpso"]
        monkeypatch.setitem(harness.ALGORITHMS, "gpso", lambda *args, **kwargs: runs.append(args) or run(*args, **kwargs))
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        path = tmp_path / out
        args = ["run", "--algo", "gpso", "--function", "sphere", "--dim", "2", "--out", str(path)] + BUDGET_ARGS
        code, stdout, err = run_cli(args, capsys)
        assert (code, stdout, err) == (1, "", f"error: {message}: '{path}'\n")
        assert runs == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"] and not any((tmp_path / "adir").iterdir())

    def test_a_run_keeps_a_trace_only_to_write_it(self, tmp_path, capsys, monkeypatch):
        kept, run = [], harness.ALGORITHMS["ampso"]

        def spy(*args, **kwargs):
            result = run(*args, **kwargs)
            kept.append(bool(result.trace))
            return result

        monkeypatch.setitem(harness.ALGORITHMS, "ampso", spy)
        args = ["run", "--function", "sphere", "--dim", "2"] + BUDGET_ARGS
        lines = [run_cli(args, capsys)[1], run_cli(args + ["--out", str(tmp_path / "t.csv")], capsys)[1]]
        assert kept == [False, True] and lines[0] == lines[1]

    def test_directory_as_output_names_the_given_path(self, tmp_path, capsys):
        out = tmp_path / "adir"
        out.mkdir()
        args = ["run", "--algo", "gpso", "--function", "sphere", "--dim", "2", "--fe-budget", "200"]
        code, stdout, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 1
        assert not stdout
        assert err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
        assert not any(out.iterdir())


class TestBenchCommand:
    def test_file_as_output_directory_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        tasks, execute_run = [], harness.execute_run
        monkeypatch.setattr(harness, "execute_run", lambda task: tasks.append(task) or execute_run(task))
        out = tmp_path / "taken"
        out.write_text("kept")
        args = ["bench", "--algo", "ampso,gpso", "--function", "sphere", "--dim", "2", "--runs", "2"]
        code, stdout, err = run_cli(args + ["--out", str(out)] + BUDGET_ARGS, capsys)
        assert (code, stdout, err) == (1, "", f"error: [Errno 17] File exists: '{out}'\n")
        assert tasks == [] and out.read_text() == "kept"

    def test_missing_output_directory_made_before_the_runs(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "new" / "bench"
        made, execute_run = [], harness.execute_run
        monkeypatch.setattr(harness, "execute_run", lambda task: made.append(out.is_dir()) or execute_run(task))
        args = ["bench", "--algo", "gpso", "--function", "sphere", "--dim", "2", "--runs", "2", "--out", str(out)]
        assert run_cli(args + BUDGET_ARGS, capsys)[0] == 0
        assert made == [True] and (out / "runs.csv").exists()

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
        # a gpso cell steps its runs together; its crash sends them through ALGORITHMS one by one
        monkeypatch.setitem(harness.LOCKSTEP, "gpso", lambda config, spec, seeds: crash(config, spec))
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
