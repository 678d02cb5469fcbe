import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_corpus
from trustquant import scaling
from trustquant.cli import _load_config, _quant_overrides, build_parser, main
from trustquant.quantizer import FORMATS, QuantConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "trustquant.cli", *args],
        capture_output=True, text=True,
    )
    return proc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = write_corpus(root / "corpus.txt", 40_000, seed=31)
    config = {
        "model": {
            "num_blocks": 1, "hidden_size": 32, "num_heads": 2,
            "max_seq_len": 32,
            "quant": {"format": "int8", "hadamard": True},
        },
        "train": {
            "peak_lr": 2e-3, "total_steps": 30, "batch_tokens": 128,
            "data_path": str(corpus), "seed": 17,
        },
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return root, cfg_path, corpus


class TestAlphaTable:
    def test_analytic_one_bit_row(self, capsys):
        assert main(["alpha-table"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "grid,alpha_star,mse"
        assert out[1].startswith("1,0.79788")
        assert any(line.startswith("fp4,") for line in out)


class TestPlanRuns:
    def test_hundred_x_rule_rows(self, capsys):
        assert main(["plan-runs", "--sizes", "30e6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4  # header + 3 ratios
        tokens = [int(line.split(",")[3]) for line in lines[1:]]
        assert tokens == [750_000_000, 1_500_000_000, 3_000_000_000]

    def test_precision_matrix(self, capsys):
        assert main(["plan-runs", "--sizes", "30e6,50e6", "--precisions", "1,4,16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 * 3 * 3

    @pytest.mark.parametrize("flag,value", [
        ("--sizes", "0"), ("--sizes", "-5e6"), ("--sizes", "30e6,nan"), ("--sizes", "inf"),
        ("--ratios", "0"), ("--ratios", "25,-50"),
    ])
    def test_rejects_values_that_are_not_finite_positive(self, flag, value, capsys):
        args = ["--sizes", "30e6", f"{flag}={value}"]
        with pytest.raises(SystemExit) as exit_:
            main(["plan-runs", *args])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "must be finite and positive" in err


class TestFitScaling:
    def test_fit_writes_params_and_efficiency(self, tmp_path, capsys):
        true = scaling.ScalingLawParams(a=math.log(406.4), b=math.log(410.7), e=math.log(1.69),
                                        alpha=0.34, beta=0.28, eff={4: 0.7, 16: 1.0})
        rng = np.random.default_rng(12)
        records = [scaling.RunRecord(n, r * n, p, scaling.predict_loss(true, n, r * n, p)
                                     * math.exp(0.01 * rng.standard_normal()))
                   for n in (30e6, 100e6, 300e6) for p in (4, 16) for r in (25, 100)]
        scaling.write_records_csv(tmp_path / "runs.csv", records)
        out = tmp_path / "fit"
        assert main(["fit-scaling", "--records", str(tmp_path / "runs.csv"), "--out", str(out)]) == 0
        assert "scaling_params.json" in capsys.readouterr().out
        fitted = scaling.ScalingLawParams.from_json((out / "scaling_params.json").read_text())
        assert fitted.objective <= scaling.fit_objective(true, records)
        assert fitted.objective == pytest.approx(scaling.fit_objective(fitted, records), rel=1e-9)
        lines = (out / "efficiency.csv").read_text().splitlines()
        assert lines[0] == "precision,eff,eff_per_bit"
        assert [line.split(",")[0] for line in lines[1:]] == ["4", "16"]


class TestTrainEval:
    def test_artifacts_exist(self, workspace):
        root, _, _ = workspace
        assert (root / "run" / "model.ckpt").exists()
        lines = (root / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 30
        row = json.loads(lines[0])
        assert set(row) >= {"step", "lr", "loss", "grad_norm", "untrusted_fraction"}

    def test_eval_close_to_final_train_loss(self, workspace, capsys):
        root, _, corpus = workspace
        final = json.loads(
            (root / "run" / "metrics.jsonl").read_text().splitlines()[-1]
        )["loss"]
        assert main(["eval", "--checkpoint", str(root / "run" / "model.ckpt"),
                     "--data", str(corpus)]) == 0
        out = capsys.readouterr().out
        import math

        loss = float(out.splitlines()[0].split()[1])
        ppl = float(out.splitlines()[1].split()[1])
        assert loss == pytest.approx(final, rel=0.05)
        assert ppl == pytest.approx(math.exp(loss), rel=1e-4)

    def test_quant_flag_overrides(self, workspace, tmp_path):
        root, cfg_path, _ = workspace
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "w2"),
                     "--format", "int2", "--no-hadamard",
                     "--trust-scale", "1.25"]) == 0
        from trustquant.model import load_checkpoint

        model = load_checkpoint(tmp_path / "w2" / "model.ckpt")
        assert model.cfg.quant.format == "int2"
        assert not model.cfg.quant.hadamard
        assert model.cfg.quant.outer_trust_scale == 1.25

    def test_determinism_given_seed(self, workspace, tmp_path):
        root, cfg_path, _ = workspace
        for out in ("a", "b"):
            assert main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / out), "--seed", "99"]) == 0
        a = (tmp_path / "a" / "metrics.jsonl").read_text()
        b = (tmp_path / "b" / "metrics.jsonl").read_text()
        assert a == b


class TestFormatFlag:
    @given(st.sampled_from(FORMATS))
    @settings(max_examples=50, deadline=None)
    def test_every_format_name_passes_through(self, fmt):
        args = build_parser().parse_args(["train", "--config", "c.json", "--out", "o",
                                          "--format", fmt])
        assert _quant_overrides(args, QuantConfig()).format == fmt

    def test_bits_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["train", "--config", "c.json", "--out", "o",
                                       "--bits", "2"])
        assert exit_.value.code == 2
        assert "--bits" in capsys.readouterr().err


class TestSeedPrecedence:
    @pytest.fixture()
    def train_metrics(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "c.txt", 16_000, seed=33)
        config = {
            "model": {"num_blocks": 1, "hidden_size": 32, "num_heads": 2, "max_seq_len": 32,
                      "quant": {"format": "none", "hadamard": False}},
            "train": {"peak_lr": 2e-3, "total_steps": 5, "batch_tokens": 128,
                      "data_path": str(corpus), "seed": 21},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))

        def run(out, *flags, env=None):
            if env is None:
                monkeypatch.delenv("QUEST_SEED", raising=False)
            else:
                monkeypatch.setenv("QUEST_SEED", env)
            assert main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / out), *flags]) == 0
            return (tmp_path / out / "metrics.jsonl").read_text()

        return run

    def test_env_beats_seed_flag(self, train_metrics):
        assert train_metrics("env", "--seed", "5", env="99") == train_metrics("flag", "--seed", "99")

    def test_seed_flag_beats_config(self, train_metrics):
        config = train_metrics("config")
        assert train_metrics("flag", "--seed", "5") != config
        assert train_metrics("explicit", "--seed", "21") == config


class TestDiagnosticsCommands:
    def test_align_csv(self, workspace, tmp_path):
        root, _, corpus = workspace
        assert main(["align", "--checkpoint", str(root / "run" / "model.ckpt"),
                     "--data", str(corpus), "--out", str(tmp_path),
                     "--batches", "2", "--batch-size", "2", "--seed", "3"]) == 0
        lines = (tmp_path / "alignment.csv").read_text().splitlines()
        assert lines[0] == "block,tag,xi,sample"
        assert len(lines) == 1 + 2 * 3 * 1  # batches x tags x blocks

    def test_mask_stats_csv(self, workspace, tmp_path):
        root, _, corpus = workspace
        assert main(["mask-stats", "--checkpoint", str(root / "run" / "model.ckpt"),
                     "--data", str(corpus), "--out", str(tmp_path),
                     "--steps", "6", "--interval", "3", "--batch-tokens", "128",
                     "--seed", "4"]) == 0
        lines = (tmp_path / "masks.csv").read_text().splitlines()
        assert lines[0] == "step,layer,masked_fraction,persistence"
        assert len(lines) == 1 + 2 * 7  # 2 samples x 7 layers (1 block)


    @pytest.mark.parametrize("command,flag", [
        ("mask-stats", "--steps"), ("mask-stats", "--interval"), ("bench", "--reps"),
        ("align", "--batches"), ("align", "--batch-size"),
    ], ids=["--steps", "--interval", "bench--reps", "align--batches", "align--batch-size"])
    def test_mask_stats_rejects_counts_below_one(self, command, flag, tmp_path):
        paths = [] if command == "bench" else [
            "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--data", str(tmp_path / "missing.txt"), "--out", str(tmp_path)]
        proc = run_cli([command, *paths, flag, "0"])
        assert proc.returncode != 0
        assert flag in proc.stderr and "must be at least 1" in proc.stderr


class TestBench:
    def test_smoke_csv(self, tmp_path, capsys):
        assert main(["bench", "--hidden", "128", "--batch", "16", "--reps", "2",
                     "--out", str(tmp_path / "bench.csv")]) == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "shape,dense_ms,quant_pack_ms,ht_ms,int_gemm_ms,speedup"
        assert len(lines) == 8  # 7 layers

    def test_csv_to_stdout_without_out(self, capsys):
        assert main(["bench", "--hidden", "128", "--batch", "16", "--reps", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "shape,dense_ms,quant_pack_ms,ht_ms,int_gemm_ms,speedup"
        assert len(lines) == 8  # 7 layers


class TestSweepS:
    def test_emits_loss_vs_s(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 20_000, seed=32)
        config = {
            "model": {
                "num_blocks": 1, "hidden_size": 32, "num_heads": 2,
                "max_seq_len": 32,
                "quant": {"format": "int1", "hadamard": True},
            },
            "train": {
                "peak_lr": 2e-3, "total_steps": 10, "batch_tokens": 128,
                "data_path": str(tmp_path / "c.txt"), "seed": 5,
            },
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["sweep-s", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
                     "--s-grid", "1.0,1.3"]) == 0
        lines = (tmp_path / "sweep" / "sweep_s.csv").read_text().splitlines()
        assert lines[0] == "s,final_loss"
        assert len(lines) == 3
        assert lines[1].startswith("1.0,") and lines[2].startswith("1.3,")


class TestConfigFile:
    @pytest.mark.parametrize("section, key", [
        ("model", "dropout"), ("train", "lr"), ("quant", "bits"), (None, "model"),
    ])
    def test_bad_config_exits_with_one_line(self, section, key, tmp_path):
        config = {"model": {"num_blocks": 1, "hidden_size": 32, "num_heads": 2, "quant": {}},
                  "train": {"peak_lr": 2e-3, "total_steps": 2, "batch_tokens": 64}}
        if section is None:
            del config[key]
        else:
            (config["model"] if section == "quant" else config)[section][key] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        proc = run_cli(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode != 0
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert str(path) in proc.stderr and repr(key) in proc.stderr


class TestReadme:
    """README's CLI block and config example stay in step with the parser."""

    @staticmethod
    def block(heading, lang):
        section = README.read_text().split(heading, 1)[1]
        return re.findall(rf"```{lang}\n(.*?)```", section, re.S)[0]

    def test_cli_lines_parse(self):
        lines = [line for line in self.block("## CLI", "sh").splitlines()
                 if line.startswith("trustquant ")]
        assert len(lines) == 9
        parser = build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line)[1:])
            assert args.command == line.split()[1]

    def test_config_example_loads(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(self.block("## CLI", "json"))
        model_cfg, train_cfg = _load_config(path)
        assert model_cfg.quant.format == "int4" and train_cfg.total_steps == 300


class TestDispatch:
    def test_unknown_subcommand_usage_nonzero(self):
        proc = run_cli(["frobnicate"])
        assert proc.returncode != 0
        assert "usage" in (proc.stderr + proc.stdout).lower()

    def test_unknown_flag_nonzero(self):
        proc = run_cli(["alpha-table", "--bogus"])
        assert proc.returncode != 0

    def test_entry_point_help(self):
        proc = run_cli(["--help"])
        assert proc.returncode == 0
        for name in ("train", "eval", "align", "mask-stats", "alpha-table",
                     "fit-scaling", "plan-runs", "bench", "sweep-s"):
            assert name in proc.stdout
