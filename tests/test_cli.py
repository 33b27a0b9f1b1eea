import json

import numpy as np
import pytest

from speclab.cli import main
from speclab.harness import RunConfig
from speclab.models import ModelPair, blend_model, generate_pair, load_model, random_model, save_model
from speclab.oracle import exact_output_distribution


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


class TestRun:
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
        out2 = tmp_path / "o2.csv"
        assert main(["run", "--config", str(cfg), "--algo", "gbv", "--out", str(out2)]) == 0
        assert out2.read_text().splitlines()[1].startswith("gbv,1,2,")

    def test_low_temperature_run_succeeds(self, tmp_path):
        # at T = 0.0005 every row's d^(1/T) underflows; (d / max d)^(1/T) keeps the argmax at 1
        out = tmp_path / "r.csv"
        code = main(["run", "--algo", "sd", "--temperature", "0.0005", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) > 1
        pair = RunConfig(temperature=0.0005).build_pair()  # the run's default model pair
        for model in (pair.draft, pair.target):
            for row in range(model.table.shape[0]):
                cold = model.conditional([row], 0.0005).mass
                assert cold[int(model.table[row].argmax())] > 1.0 - 1e-9

    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "--algo", "nonsense"]) == 1

    def test_missing_model_file_is_io_error(self, tmp_path, capsys):
        code = main([
            "run", "--draft-model", str(tmp_path / "nope.json"),
            "--target-model", str(tmp_path / "nope2.json"), "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3


class TestSweep:
    def test_grid(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--algo", "spectr-gbv", "--K", "1,2", "--L", "2,3",
            "--gen", "4,0,5,1.0,0.6", "--prompts", "1", "--max-tokens", "8",
            "--trials", "1", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 4


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

    def test_too_large_is_usage_error(self, capsys):
        assert main(["oracle-check", "--gen", "8,1,5,1.0,0.5", "--K", "3", "--L", "8"]) == 1


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
    "counters: Counters(target_calls=0, draft_calls=0, vocab_scans=1, h_partial_evals=1, "
    "residual_evals=0, warnings=0)\n"
)


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

    def test_oracle_check_runs_on_that_pair(self, source, capsys):
        _name, args, pair = source
        assert main(["oracle-check", "--K", "1", "--L", "2"] + args) == 0
        payload = json.loads(capsys.readouterr().out)
        want = json.loads(json.dumps(exact_output_distribution(pair, 2, 1).to_jsonable()))
        for report in (payload["report"], want):
            report.pop("runtime_s")
        assert payload["report"] == want
        assert payload["instance"]["vocab_size"] == pair.vocab_size
