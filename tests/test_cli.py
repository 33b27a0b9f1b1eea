import csv
import itertools
import json

import numpy as np
import pytest

from speclab.cli import main
from speclab.harness import RunConfig
from speclab.models import ModelPair, blend_model, generate_pair, load_model, random_model, save_model
from speclab.oracle import BATTERY_CELLS, BATTERY_SEED, BATTERY_SIMILARITY, exact_output_distribution


class TestGenModel:
    def test_writes_loadable_model(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["gen-model", "--gen", "4,1,7,0.9", "--out", str(out)]) == 0
        m = load_model(out)
        assert np.array_equal(m.table, random_model(4, 1, 7, 0.9).table)

    def test_blended_target_with_lambda(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["gen-model", "--gen", "4,1,7,0.9,1.0", "--out", str(out)]) == 0
        # similarity 1.0 blends fully toward the draft implied by the seed
        assert np.allclose(load_model(out).table, random_model(4, 1, 7, 0.9).table)

    def test_lambda_writes_the_generated_target(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["gen-model", "--gen", "4,1,7,0.9,0.3", "--out", str(out)]) == 0
        assert np.array_equal(load_model(out).table, generate_pair(4, 1, 7, 0.9, 0.3).target.table)

    @pytest.mark.parametrize("lam", ["1.5", "-0.1"])
    def test_out_of_range_lambda_is_a_usage_error(self, tmp_path, capsys, lam):
        out = tmp_path / "t.json"
        assert main(["gen-model", "--gen", f"4,1,7,0.9,{lam}", "--out", str(out)]) == 1
        assert "similarity must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    # a one-row run with no --algo, --L or --out, for config files to set
    CELL = ["--gen", "4,0,2,1.0,0.7", "--prompts", "1", "--max-tokens", "8", "--trials", "1"]

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main([
            "run", "--algo", "spectr-gbv", "--K", "2", "--L", "3",
            "--gen", "5,1,3,1.0,0.6", "--prompts", "2", "--max-tokens", "12",
            "--seed", "4", "--trials", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("algo,K,L,T,seed,prompt_id,")
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "run", "--algo", "sd", "--gen", "4,0,2,1.0,0.7", "--L", "2",
            "--prompts", "2", "--max-tokens", "10", "--seed", "1", "--trials", "2",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "# experiment cell\n"
            "algo = sd\n"
            "L = 2\n"
            "gen = 4,0,2,1.0,0.7\n"
            "prompts = 1\n"
            "max-tokens = 8\n"
            "seed = 3\n"
            "trials = 1\n"
        )
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].startswith("sd,1,2,")
        # the --flag=value spelling argparse also accepts reads the same file
        out_eq = tmp_path / "o_eq.csv"
        assert main(["run", f"--config={cfg}", "--out", str(out_eq)]) == 0
        assert out_eq.read_bytes() == out.read_bytes()
        out2 = tmp_path / "o2.csv"
        assert main(["run", "--config", str(cfg), "--algo", "gbv", "--out", str(out2)]) == 0
        assert out2.read_text().splitlines()[1].startswith("gbv,1,2,")

    # every prefix of --config, in the FLAG PATH and FLAG=PATH forms
    @pytest.mark.parametrize("flag", ["--config"[:n] + eq for n in range(3, 9) for eq in ("", "=")])
    def test_config_abbreviation_reads_the_file(self, flag, tmp_path):
        # argparse takes any unambiguous prefix of --config as --config
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("algo = sd\nL = 2\ngen = 4,0,2,1.0,0.7\nprompts = 1\nmax-tokens = 8\ntrials = 1\n")
        out = tmp_path / "o.csv"
        argv = [flag + str(cfg)] if flag.endswith("=") else [flag, str(cfg)]
        assert main(["run", *argv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("sd,1,2,")

    def test_config_file_naming_a_config_is_a_usage_error(self, tmp_path, capsys):
        inner = tmp_path / "inner.txt"
        inner.write_text("algo = sd\n")
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "o.csv"
        # "conf" would reach argparse as --conf, an abbreviation of --config
        for key in ("config", "conf", "c", "co", "con", "confi"):
            cfg.write_text(f"{key} = {inner}\nL = 2\n")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
            assert "cfg.txt:1: a config file cannot name another" in capsys.readouterr().err
            assert not out.exists()

    def test_repeated_config_is_a_usage_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("L = 2\nprompts = 1\ntrials = 1\n")
        b.write_text("algo = sd\nK = 2\n")
        out = tmp_path / "o.csv"
        for argv in (["--config", str(a), "--config", str(b)], [f"--config={a}", f"--config={b}"],
                     ["--conf", str(a), "--config", str(b)]):
            assert main(["run", *argv, "--out", str(out)]) == 1
            assert "--config may be given once" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("line", ["bogus = 1", "t = 1", "foo = 1", "foo = --timings", "L = x", "seed = 1.5"])
    def test_config_key_that_names_no_option_is_a_usage_error(self, line, tmp_path, capsys):
        # an unknown key, a prefix of several options (--timings, --temperature,
        # ...), or a value the option's type refuses: each names its line,
        # without argparse's usage text
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"L = 2\n{line}\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cfg.txt:2: " in err and "usage:" not in err
        assert not out.exists()

    def test_config_line_without_equals_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("L = 2\nalgo sd\n")
        out = tmp_path / "o.csv"
        assert main(["run", *self.CELL, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"{cfg}:2: expected key = value\n"
        assert not out.exists()

    def test_unreadable_config_is_an_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "missing.txt"
        out = tmp_path / "o.csv"
        assert main(["run", *self.CELL, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cannot read config: ") and str(cfg) in err
        assert not out.exists()

    def test_config_without_a_path_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["run", "--out", str(out), "--config"]) == 1
        assert "argument --config: expected one argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["help", "h", "he"])
    def test_config_asking_for_help_is_a_usage_error(self, key, tmp_path, capsys):
        # argparse's help action prints and exits 0, which would skip the run
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"L = 2\n{key} = 1\n")
        out = tmp_path / "o.csv"
        assert main(["run", *self.CELL, "--config", str(cfg), "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert "cfg.txt:2: a config file cannot ask for help" in printed.err
        assert printed.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value, on", [("yes", True), ("ON", True), ("1", True),
                                           ("no", False), ("off", False), ("0", False)])
    def test_config_timings_switch(self, value, on, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"timings = {value}\n")
        out = tmp_path / "o.csv"
        assert main(["run", *self.CELL, "--config", str(cfg), "--out", str(out)]) == 0
        [row] = csv.DictReader(out.open())
        assert (float(row["wall_ms"]) > 0.0) == on

    @pytest.mark.parametrize("value", ["ture", "2", ""])
    def test_config_timings_other_value_is_a_usage_error(self, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"L = 2\ntimings = {value}\n")
        out = tmp_path / "o.csv"
        assert main(["run", *self.CELL, "--config", str(cfg), "--out", str(out)]) == 1
        assert "cfg.txt:2: timings must be 1/true/yes/on or 0/false/no/off" in capsys.readouterr().err
        assert not out.exists()

    def test_config_hash_starts_a_comment_only_after_a_space(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "o#2.csv"
        cfg.write_text(f"# a comment line\n  # an indented one\nL = 2  # a trailing one\n"
                       f"algo = sd\t# after a tab\nout = {out}\n")
        assert main(["run", *self.CELL, "--config", str(cfg)]) == 0
        assert out.read_text().splitlines()[1].startswith("sd,1,2,")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("temperature", ["inf", "nan", "0"])
    def test_non_finite_or_non_positive_temperature_is_a_usage_error(self, temperature, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run", "--temperature", temperature, "--out", str(out)]) == 1
        assert "invalid arguments: temperature must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_low_temperature_run_succeeds(self, tmp_path):
        # at T = 0.0005 every row's d^(1/T) underflows; (d / max d)^(1/T) keeps the argmax at 1
        out = tmp_path / "r.csv"
        code = main(["run", "--algo", "sd", "--temperature", "0.0005", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) > 1
        pair = RunConfig(temperature=0.0005).build_pair()  # the run's default model pair
        for model in (pair.draft, pair.target):
            for row in range(model.table.shape[0]):
                cold = model.conditional([row]).mass
                assert cold[int(model.table[row].argmax())] > 1.0 - 1e-9

    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "--algo", "nonsense"]) == 1

    @pytest.mark.parametrize("algo", ["sd", "gbv", "spectr-gbv"])
    def test_K_below_one_is_a_usage_error(self, algo, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run", "--algo", algo, "--K", "0", "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_model_file_is_io_error(self, tmp_path, capsys):
        code = main([
            "run", "--draft-model", str(tmp_path / "nope.json"),
            "--target-model", str(tmp_path / "nope2.json"), "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3


class TestGrid:
    """``run`` takes comma lists for --K, --L and --temperature; the grid's
    report is the single-cell reports, K outermost, under one header."""

    CELL = ["--algo", "spectr-gbv", "--gen", "4,0,5,1.0,0.6", "--prompts", "1",
            "--max-tokens", "8", "--trials", "1"]

    @pytest.mark.parametrize("grid", [
        {"--K": "1,2", "--L": "2,3"},
        {"--K": "2", "--L": "3", "--temperature": "0.5,2"},
    ], ids=["K-L", "temperature"])
    def test_grid_is_the_single_cell_runs_in_order(self, tmp_path, capsys, grid):
        out = tmp_path / "grid.csv"
        flags = [tok for flag, values in grid.items() for tok in (flag, values)]
        assert main(["run", *self.CELL, *flags, "--out", str(out)]) == 0
        want: list[bytes] = []
        for values in itertools.product(*(v.split(",") for v in grid.values())):
            cell = tmp_path / "cell.csv"
            flags = [tok for flag, value in zip(grid, values) for tok in (flag, value)]
            assert main(["run", *self.CELL, *flags, "--out", str(cell)]) == 0
            rows = cell.read_bytes().splitlines(keepends=True)
            want.extend(rows if not want else rows[1:])
        assert out.read_bytes() == b"".join(want)

    def test_K_below_one_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["run", *self.CELL, "--algo", "gbv", "--K", "0,2", "--L", "2", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_single_draft_K_grid_is_one_cell(self, tmp_path, capsys):
        # sd forces every K to 1, so K = 1 and K = 3 are the same cell
        out = tmp_path / "sd.csv"
        assert main(["run", *self.CELL, "--algo", "sd", "--K", "1,3", "--L", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [["sd", "1", "2"]]

    def test_config_file_lists_form_a_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("algo = spectr\nK = 1,3\nL = 2\ngen = 4,0,2,1.0,0.7\n"
                       "prompts = 1\nmax-tokens = 8\ntrials = 1\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [["spectr", "1", "2"], ["spectr", "3", "2"]]


# a V = 2, K = 1, L = 2 instance on which oracle-check and verify-demo exit 0
SMALL = ["--gen", "2,1,5,1.0,0.5", "--K", "1", "--L", "2"]


class TestOptions:
    """Each subcommand accepts only the options it reads."""

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--prompts", "1"],
        ["oracle-check", "--max-tokens", "8"],
        ["oracle-check", "--seed", "3"],
        ["oracle-check", "--trials", "1"],
        ["oracle-check", "--format", "csv"],
        ["verify-demo", "--prompts", "1"],
        ["verify-demo", "--max-tokens", "8"],
        ["verify-demo", "--trials", "1"],
        ["verify-demo", "--format", "json"],
    ])
    def test_unread_option_is_refused(self, argv, capsys):
        assert main([argv[0], *SMALL]) == 0
        assert main(argv + SMALL) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_demo_refuses_out(self, tmp_path, capsys):
        out = tmp_path / "demo.txt"
        assert main(["verify-demo", *SMALL, "--out", str(out)]) == 1
        assert not out.exists()

    def test_sweep_is_gone(self, capsys):
        assert main(["sweep", *SMALL]) == 1

    @pytest.mark.parametrize("command", ["run", "oracle-check", "verify-demo"])
    @pytest.mark.parametrize("flag", ["--draft-model", "--target-model"])
    def test_lone_model_path_is_a_usage_error(self, command, flag, tmp_path, capsys):
        model = tmp_path / "m.json"
        save_model(random_model(2, 1, 5, 1.0), model)
        out = tmp_path / "out"
        argv = [command, flag, str(model), "--K", "1", "--L", "2"]
        assert main(argv + (["--out", str(out)] if command != "verify-demo" else [])) == 1
        assert "model path" in capsys.readouterr().err
        assert not out.exists()

    # only run reads a config file
    @pytest.mark.parametrize("command, in_config", [
        ("run", False), ("oracle-check", False), ("verify-demo", False), ("run", True),
    ])
    def test_gen_beside_model_files_is_a_usage_error(self, command, in_config, tmp_path, capsys):
        model, cfg, out = tmp_path / "m.json", tmp_path / "cfg.txt", tmp_path / "out"
        save_model(random_model(4, 1, 5, 1.0), model)
        cfg.write_text("gen = 16,1,0,1.0\n")
        gen = ["--config", str(cfg)] if in_config else ["--gen", "16,1,0,1.0"]
        argv = [command, "--draft-model", str(model), "--target-model", str(model), *gen, "--L", "2"]
        assert main(argv + (["--out", str(out)] if command != "verify-demo" else [])) == 1
        printed = capsys.readouterr()
        assert "invalid arguments: --gen and model files each name the pair; give one" in printed.err
        assert printed.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--gen", "4,1"],
        ["gen-model", "--gen", "4,1,7"],
        ["run", "--gen", "4,x,7,1.0"],
    ])
    def test_malformed_gen_is_a_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "argument --gen" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, form", [
        (["run", "--L", "x"], "expected a comma list of integers, got 'x'"),
        (["run", "--K", "2,,3"], "expected a comma list of integers, got '2,,3'"),
        (["run", "--temperature", "1,b"], "expected a comma list of numbers, got '1,b'"),
        (["run", "--gen", "4,x,7,1.0"], "expected V,ORDER,SEED,CONC[,LAMBDA], the first three integers"),
        (["gen-model", "--gen", "4,1,7"], "expected V,ORDER,SEED,CONC[,LAMBDA], the first three integers"),
    ], ids=["L", "K", "temperature", "run-gen", "gen-model-gen"])
    def test_malformed_value_names_the_expected_form(self, argv, form, tmp_path, capsys):
        # no message names a private converter (_ints, _floats, _parse_gen)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert form in err and "invalid _" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle-check", "verify-demo", "gen-model"])
    def test_negative_order_is_a_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, "--gen", "8,-1,0,1.0"] + (["--out", str(out)] if command != "verify-demo" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "invalid arguments: order must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("concentration", ["nan", "inf"])
    def test_non_finite_concentration_is_a_usage_error(self, concentration, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["gen-model", "--gen", f"4,1,0,{concentration}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "invalid arguments: concentration must be finite and > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("header", [
        {"vocab_size": 2, "order": 0.7},
        {"vocab_size": 2, "order": -1},
        {"vocab_size": 1, "order": 0},
    ])
    def test_malformed_model_header_is_a_file_error(self, header, tmp_path, capsys):
        model, out = tmp_path / "m.json", tmp_path / "out.csv"
        model.write_text(json.dumps({**header, "table": [[0.5, 0.5]]}))
        argv = ["run", "--draft-model", str(model), "--target-model", str(model), "--out", str(out)]
        assert main(argv) == 3
        assert "model file error" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCheck:
    def test_single_draft_instance_passes(self, tmp_path, capsys):
        out = tmp_path / "oc.json"
        code = main([
            "oracle-check", "--gen", "2,1,5,1.0,0.5", "--K", "1", "--L", "2",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(c["passed"] for c in payload["checks"])

    def test_multi_draft_instance_reports_failure(self, tmp_path, capsys):
        # the sequential scan does not meet the exactness checks at K >= 2;
        # the checker is expected to say so via its exit code
        code = main([
            "oracle-check", "--gen", "2,1,5,1.0,0.5", "--K", "2", "--L", "2",
            "--out", str(tmp_path / "oc2.json"),
        ])
        assert code == 2

    def test_defaults_run(self, tmp_path, capsys):
        # the default V = 8, K = 3 pair at its own default L fits the guard;
        # K = 3 fails the exactness checks, so the exit code is 2
        out = tmp_path / "oc.json"
        assert main(["oracle-check", "--out", str(out)]) in (0, 2)
        assert json.loads(out.read_text())["instance"]["L"] == 3

    def test_verify_demo_keeps_its_default_L(self, capsys):
        assert main(["verify-demo"]) == 0
        assert "K=3  L=8  V=8" in capsys.readouterr().out

    def test_too_large_is_usage_error(self, capsys):
        assert main(["oracle-check", "--gen", "8,1,5,1.0,0.5", "--K", "3", "--L", "8"]) == 1


class TestBattery:
    """battery runs oracle-check's checks over every cell of oracle.BATTERY_CELLS."""

    def test_oracle_battery_writes_its_grid(self, tmp_path, capsys):
        out = tmp_path / "battery.json"
        # the K >= 2 cells miss their exactness checks, so the battery exits 2
        assert main(["battery", "--out", str(out)]) == 2
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert len(rows) == 18
        assert all(row["passed"] for row in rows if row["K"] == 1)
        [two_iter] = [row for row in rows if (row["V"], row["L"], row["K"]) == (2, 2, 2)]
        assert two_iter["iterations"] == 2

    def test_prints_one_line_per_cell(self, tmp_path, capsys):
        out = tmp_path / "battery.json"
        assert main(["battery", "--out", str(out)]) == 2
        *lines, last = capsys.readouterr().out.splitlines()
        assert last == f"wrote {out}"
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert len(lines) == len(rows) == len(BATTERY_CELLS)
        for line, row, (V, L, K, iterations) in zip(lines, rows, BATTERY_CELLS):
            assert (row["V"], row["L"], row["K"], row["iterations"]) == (V, L, K, iterations)
            assert line.startswith(f"V={V} L={L} K={K}: marginal_dev=")
            assert line.endswith(" -> ok" if row["passed"] else " -> MISS")

    def test_two_iteration_cell_is_oracle_check_on_its_pair(self, tmp_path, capsys):
        # cell 4 is (2, 2, 2), on seed BATTERY_SEED + 4
        battery, check = tmp_path / "battery.json", tmp_path / "check.json"
        assert (BATTERY_CELLS[4], BATTERY_SEED, BATTERY_SIMILARITY) == ((2, 2, 2, 2), 1000, 0.5)
        assert main(["battery", "--out", str(battery)]) == 2
        argv = ["oracle-check", "--gen", "2,1,1004,1.0,0.5", "--K", "2", "--L", "2", "--iterations", "2"]
        assert main(argv + ["--out", str(check)]) == 2
        row = json.loads(battery.read_text(encoding="utf-8"))[4]
        report = json.loads(check.read_text(encoding="utf-8"))["report"]
        # the report names L and K itself; V and the verdict are the row's own
        assert (row.pop("V"), row.pop("passed")) == (2, False)
        for r in (row, report):
            r.pop("runtime_s")
        assert row == report

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--similarity", "0.5"]])
    def test_grid_options_are_usage_errors(self, option, tmp_path, capsys):
        out = tmp_path / "battery.json"
        assert main(["battery", *option, "--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "battery.json"
        assert main(["battery", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "io error" in err and "Traceback" not in err
        assert not out.parent.exists()


class TestVerifyDemo:
    def test_trace_prints(self, capsys):
        code = main([
            "verify-demo", "--algo", "spectr-gbv", "--K", "2", "--L", "3",
            "--gen", "4,1,9,1.0,0.6", "--seed", "2",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "draft row 0" in text
        assert "outcome:" in text

    def test_ar_is_refused_before_drafting(self, capsys):
        # ar never drafts, so the parser rejects it instead of printing rows first
        assert main(["verify-demo", "--algo", "ar", "--K", "1"]) != 0
        assert "draft row" not in capsys.readouterr().out


# verify-demo output for each way of naming the model pair, as printed when
# oracle-check and verify-demo built their pair with a helper of their own
DEMO_OUTPUT = {
    "default": """\
algo=spectr-gbv  K=2  L=2  V=8  prompt=[2, 6, 7, 2, 5, 0, 7, 3]
  draft row 0: [0, 5]
  draft row 1: [4, 4]
  ('subblock', 0, (0,), 0.14051506435189912, True)
  ('full', 0, (0, 5), 0.2723912742325363, True)
outcome: tau=2 f=0 t=[0, 5] y=4
""",
    "gen": """\
algo=spectr-gbv  K=2  L=2  V=4  prompt=[1, 3, 3, 1, 2, 0, 3, 1]
  draft row 0: [1, 1]
  draft row 1: [1, 1]
  ('subblock', 0, (1,), 0.22289066942460037, True)
  ('full', 0, (1, 1), 0.13941633030794234, True)
outcome: tau=2 f=0 t=[1, 1] y=1
""",
    "files": """\
algo=spectr-gbv  K=2  L=2  V=3  prompt=[0, 2, 2, 0, 1, 0, 2, 1]
  draft row 0: [0, 1]
  draft row 1: [1, 1]
  ('subblock', 0, (0,), 0.11587197629775103, True)
  ('full', 0, (0, 1), 0.7276415706492997, True)
outcome: tau=2 f=0 t=[0, 1] y=1
""",
}
DEMO_COUNTERS = (
    "counters: Counters(vocab_scans=1, h_partial_evals=1, "
    "residual_evals=0, warnings=0)\n"
)


# verify-demo output of the token-level verifiers, at L = 4 and seed 5, for
# the same three pair sources: sd (K forced to 1) and spectr at K = 3
KSEQ_DEMO_ARGS = {"sd": ["--algo", "sd"], "spectr": ["--algo", "spectr", "--K", "3"]}
KSEQ_DEMO_OUTPUT = {
    ("sd", "default"): """\
algo=sd  K=1  L=4  V=8  prompt=[2, 6, 7, 2, 5, 0, 7, 3]
  draft row 0: [0, 5, 4, 4]
  ('candidate', 1, 0, 0, 0.6650520157614, True)
  ('candidate', 2, 0, 5, 0.7917309751987737, True)
  ('candidate', 3, 0, 4, 1.0, True)
  ('candidate', 4, 0, 4, 0.6980850733612999, True)
outcome: tau=4 f=0 t=[0, 5, 4, 4] y=7
counters: Counters(vocab_scans=0, h_partial_evals=0, residual_evals=0, warnings=0)
""",
    ("sd", "gen"): """\
algo=sd  K=1  L=4  V=4  prompt=[1, 3, 3, 1, 2, 0, 3, 1]
  draft row 0: [1, 1, 1, 1]
  ('candidate', 1, 0, 1, 0.4668830895113458, True)
  ('candidate', 2, 0, 1, 0.4668830895113458, True)
  ('candidate', 3, 0, 1, 0.4668830895113458, False)
outcome: tau=2 f=0 t=[1, 1] y=0
counters: Counters(vocab_scans=1, h_partial_evals=0, residual_evals=1, warnings=0)
""",
    ("sd", "files"): """\
algo=sd  K=1  L=4  V=3  prompt=[0, 2, 2, 0, 1, 0, 2, 1]
  draft row 0: [0, 1, 1, 1]
  ('candidate', 1, 0, 0, 1.0, True)
  ('candidate', 2, 0, 1, 1.0, True)
  ('candidate', 3, 0, 1, 0.34182005284145467, False)
outcome: tau=2 f=0 t=[0, 1] y=2
counters: Counters(vocab_scans=1, h_partial_evals=0, residual_evals=1, warnings=0)
""",
    ("spectr", "default"): """\
algo=spectr  K=3  L=4  V=8  prompt=[2, 6, 7, 2, 5, 0, 7, 3]
  draft row 0: [0, 5, 4, 4]
  draft row 1: [0, 0, 5, 0]
  draft row 2: [7, 2, 3, 3]
  ('candidate', 1, 0, 0, 0.41838350997225227, True)
  ('candidate', 2, 0, 5, 0.5176597440937969, True)
  ('candidate', 3, 0, 4, 1.0, True)
  ('candidate', 4, 0, 4, 0.6980850733612999, True)
outcome: tau=4 f=0 t=[0, 5, 4, 4] y=4
counters: Counters(vocab_scans=2, h_partial_evals=0, residual_evals=0, warnings=0)
""",
    ("spectr", "gen"): """\
algo=spectr  K=3  L=4  V=4  prompt=[1, 3, 3, 1, 2, 0, 3, 1]
  draft row 0: [1, 1, 1, 1]
  draft row 1: [1, 1, 1, 1]
  draft row 2: [3, 0, 2, 2]
  ('candidate', 1, 0, 1, 0.18711282213802408, False)
  ('candidate', 1, 1, 1, 0.18711282213802408, True)
  ('candidate', 2, 0, 1, 0.26689900715542314, False)
  ('candidate', 2, 1, 1, 0.26689900715542314, False)
outcome: tau=1 f=0 t=[1] y=0
counters: Counters(vocab_scans=3, h_partial_evals=0, residual_evals=1, warnings=0)
""",
    ("spectr", "files"): """\
algo=spectr  K=3  L=4  V=3  prompt=[0, 2, 2, 0, 1, 0, 2, 1]
  draft row 0: [0, 1, 1, 1]
  draft row 1: [0, 0, 0, 0]
  draft row 2: [2, 0, 1, 0]
  ('candidate', 1, 0, 0, 0.5459206664803467, True)
  ('candidate', 2, 0, 1, 1.0, True)
  ('candidate', 3, 0, 1, 0.34182005284145467, True)
  ('candidate', 4, 0, 1, 0.34182005284145467, False)
outcome: tau=3 f=0 t=[0, 1, 1] y=2
counters: Counters(vocab_scans=3, h_partial_evals=0, residual_evals=1, warnings=0)
""",
}


# verify-demo output of the block verifiers, for the same three pair sources:
# gbv at L = 4, seed 3 (a rejected sub-block and a residual at tau < L on the
# default pair) and spectr-gbv at K = 3, L = 4, seed 6 (a skip, rejected rows,
# a later row winning, and tau = 0 on the file pair)
BLOCK_DEMO_ARGS = {
    "gbv": ["--algo", "gbv", "--L", "4", "--seed", "3"],
    "spectr-gbv": ["--algo", "spectr-gbv", "--K", "3", "--L", "4", "--seed", "6"],
}
BLOCK_DEMO_OUTPUT = {
    ("gbv", "default"): """\
algo=gbv  K=1  L=4  V=8  prompt=[2, 7, 5, 4, 5, 1, 7, 5]
  draft row 0: [7, 7, 5, 7]
  ('subblock', 0, (7,), 0.8342775067283362, False)
  ('subblock', 0, (7, 7), 0.4020770590935899, True)
  ('subblock', 0, (7, 7, 5), 0.0856248191140308, False)
  ('full', 0, (7, 7, 5, 7), 0.5721829643095039, False)
outcome: tau=2 f=0 t=[7, 7] y=6
counters: Counters(vocab_scans=3, h_partial_evals=3, residual_evals=0, warnings=0)
""",
    ("gbv", "gen"): """\
algo=gbv  K=1  L=4  V=4  prompt=[1, 3, 2, 2, 2, 0, 3, 2]
  draft row 0: [3, 3, 3, 3]
  ('subblock', 0, (3,), 1.0, True)
  ('subblock', 0, (3, 3), 1.0, True)
  ('subblock', 0, (3, 3, 3), 1.0, True)
  ('full', 0, (3, 3, 3, 3), 1.0, True)
outcome: tau=4 f=0 t=[3, 3, 3, 3] y=3
counters: Counters(vocab_scans=3, h_partial_evals=3, residual_evals=0, warnings=0)
""",
    ("gbv", "files"): """\
algo=gbv  K=1  L=4  V=3  prompt=[0, 2, 2, 1, 1, 0, 2, 1]
  draft row 0: [1, 2, 1, 1]
  ('subblock', 0, (1,), 0.06217102921028664, False)
  ('subblock', 0, (1, 2), 1.0, True)
  ('subblock', 0, (1, 2, 1), 0.36128091215004743, True)
  ('full', 0, (1, 2, 1, 1), 0.23529042348083534, False)
outcome: tau=3 f=0 t=[1, 2, 1] y=2
counters: Counters(vocab_scans=3, h_partial_evals=3, residual_evals=0, warnings=0)
""",
    ("spectr-gbv", "default"): """\
algo=spectr-gbv  K=3  L=4  V=8  prompt=[5, 3, 0, 1, 0, 0, 5, 5]
  draft row 0: [0, 5, 4, 3]
  draft row 1: [7, 2, 0, 4]
  draft row 2: [7, 5, 0, 7]
  ('subblock', 0, (0,), 0.11409012705027566, False)
  ('subblock', 0, (0, 5), 0.007049788196103832, False)
  ('subblock', 0, (0, 5, 4), 0.01025798215732881, False)
  ('full', 0, (0, 5, 4, 3), 0.29718436519124497, False)
  ('subblock', 1, (7,), 0.056331833255356366, False)
  ('subblock', 1, (7, 2), 0.006477904190548775, False)
  ('subblock', 1, (7, 2, 0), 0.028962662873182977, False)
  ('full', 1, (7, 2, 0, 4), 0.057177746780510116, False)
  ('skip', 2, (7,))
  ('subblock', 2, (7, 5), 0.013592668086479843, False)
  ('subblock', 2, (7, 5, 0), 0.05591744450941646, True)
  ('full', 2, (7, 5, 0, 7), 0.12553691313049012, False)
outcome: tau=3 f=2 t=[7, 5, 0] y=3
counters: Counters(vocab_scans=8, h_partial_evals=8, residual_evals=0, warnings=0)
""",
    ("spectr-gbv", "gen"): """\
algo=spectr-gbv  K=3  L=4  V=4  prompt=[2, 1, 0, 0, 0, 0, 2, 2]
  draft row 0: [1, 1, 1, 1]
  draft row 1: [2, 1, 1, 1]
  draft row 2: [2, 2, 0, 3]
  ('subblock', 0, (1,), 0.31982766756217623, True)
  ('subblock', 0, (1, 1), 0.12189813369973361, False)
  ('subblock', 0, (1, 1, 1), 0.047369759578350136, False)
  ('full', 0, (1, 1, 1, 1), 0.04352351033932455, False)
  ('subblock', 1, (2, 1), 0.1530418041811224, False)
  ('subblock', 1, (2, 1, 1), 0.06003297488038387, False)
  ('full', 1, (2, 1, 1, 1), 0.05284885481312787, False)
  ('subblock', 2, (2, 2), 0.0, False)
  ('subblock', 2, (2, 2, 0), 0.0, False)
  ('full', 2, (2, 2, 0, 3), 0.03279771910204543, False)
outcome: tau=1 f=0 t=[1] y=0
counters: Counters(vocab_scans=7, h_partial_evals=7, residual_evals=0, warnings=0)
""",
    ("spectr-gbv", "files"): """\
algo=spectr-gbv  K=3  L=4  V=3  prompt=[2, 1, 0, 0, 0, 0, 2, 2]
  draft row 0: [0, 1, 1, 0]
  draft row 1: [1, 0, 0, 0]
  draft row 2: [1, 1, 0, 2]
  ('subblock', 0, (0,), 0.051615684884042674, False)
  ('subblock', 0, (0, 1), 0.25137392154836435, False)
  ('subblock', 0, (0, 1, 1), 0.023954878587736723, False)
  ('full', 0, (0, 1, 1, 0), 0.2183555809647479, False)
  ('subblock', 1, (1,), 0.015567997719039668, False)
  ('subblock', 1, (1, 0), 0.0, False)
  ('subblock', 1, (1, 0, 0), 0.0, False)
  ('full', 1, (1, 0, 0, 0), 0.24149175456622546, False)
  ('skip', 2, (1,))
  ('subblock', 2, (1, 1), 0.0, False)
  ('subblock', 2, (1, 1, 0), 0.0, False)
  ('full', 2, (1, 1, 0, 2), 0.019011847844759046, False)
outcome: tau=0 f=0 t=[] y=2
counters: Counters(vocab_scans=9, h_partial_evals=8, residual_evals=1, warnings=0)
""",
}

class TestPairSources:
    """oracle-check and verify-demo build their model pair from the run config:
    the CLI default pair, ``--gen`` with a similarity, or two model files."""

    @pytest.fixture(params=["default", "gen", "files"])
    def source(self, request, tmp_path):
        if request.param == "default":
            return "default", [], generate_pair(8, 1, 0, 1.0, 0.5)
        if request.param == "gen":
            return "gen", ["--gen", "4,1,9,0.7,0.3"], generate_pair(4, 1, 9, 0.7, 0.3)
        draft, target = tmp_path / "d.json", tmp_path / "t.json"
        save_model(random_model(3, 1, 4, 0.8), draft)
        save_model(blend_model(random_model(3, 1, 4, 0.8), random_model(3, 1, 5, 0.8), 0.3), target)
        args = ["--draft-model", str(draft), "--target-model", str(target)]
        return "files", args, ModelPair(load_model(draft), load_model(target))

    def test_verify_demo_output_unchanged(self, source, capsys):
        name, args, _pair = source
        assert main(["verify-demo", "--K", "2", "--L", "2", "--seed", "5"] + args) == 0
        assert capsys.readouterr().out == DEMO_OUTPUT[name] + DEMO_COUNTERS

    @pytest.mark.parametrize("algo", ["sd", "spectr"])
    def test_kseq_verify_demo_output_unchanged(self, algo, source, capsys):
        name, args, _pair = source
        assert main(["verify-demo", *KSEQ_DEMO_ARGS[algo], "--L", "4", "--seed", "5"] + args) == 0
        assert capsys.readouterr().out == KSEQ_DEMO_OUTPUT[algo, name]

    @pytest.mark.parametrize("algo", ["gbv", "spectr-gbv"])
    def test_block_verify_demo_output_unchanged(self, algo, source, capsys):
        name, args, _pair = source
        assert main(["verify-demo", *BLOCK_DEMO_ARGS[algo]] + args) == 0
        assert capsys.readouterr().out == BLOCK_DEMO_OUTPUT[algo, name]

    def test_oracle_check_runs_on_that_pair(self, source, capsys):
        _name, args, pair = source
        assert main(["oracle-check", "--K", "1", "--L", "2"] + args) == 0
        payload = json.loads(capsys.readouterr().out)
        want = json.loads(json.dumps(exact_output_distribution(pair, 2, 1).to_jsonable()))
        for report in (payload["report"], want):
            report.pop("runtime_s")
        assert payload["report"] == want
        assert payload["instance"]["vocab_size"] == pair.vocab_size
