import argparse
import contextlib
import csv
import io
import json
import math
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import write_corpus
from trustquant import scaling
from trustquant.cli import _cell, _load_config, _quant_overrides, _write_rows, build_parser, main
from trustquant.model import ModelConfig, build, save_checkpoint
from trustquant.quantizer import FORMATS, QuantConfig
from trustquant.tensor import Rng

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


class TestWriteRows:
    """The one table writer: the cells cmd_align and cmd_mask_stats build."""

    def test_alignment_rows(self, tmp_path):
        path = tmp_path / "alignment.csv"
        _write_rows(path, ["block", "tag", "xi", "sample"],
                    [(0, "quest", _cell(0.9876543, ".6f"), 0), (1, "ste", _cell(None, ".6f"), 0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "block,tag,xi,sample"
        assert lines[1] == "0,quest,0.987654,0"
        assert lines[2] == "1,ste,,0"

    def test_mask_rows(self, tmp_path):
        path = tmp_path / "masks.csv"
        _write_rows(path, ["step", "layer", "masked_fraction", "persistence"],
                    [(0, "block0.wq", _cell(0.125, ".6f"), _cell(None, ".6f")),
                     (500, "block0.wq", _cell(0.1, ".6f"), _cell(0.75, ".6f"))])
        lines = path.read_text().splitlines()
        assert lines[0] == "step,layer,masked_fraction,persistence"
        assert lines[1] == "0,block0.wq,0.125000,"
        assert lines[2] == "500,block0.wq,0.100000,0.750000"

    def test_crlf_to_file_and_stdout(self, tmp_path, capsys):
        _write_rows(tmp_path / "t.csv", ["a", "b"], [(1, "x,y")])
        _write_rows(None, ["a", "b"], [(1, "x,y")])
        assert (tmp_path / "t.csv").read_bytes() == b'a,b\r\n1,"x,y"\r\n'
        assert capsys.readouterr().out == 'a,b\r\n1,"x,y"\r\n'


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
        with open(tmp_path / "runs.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["n_params", "tokens", "precision", "loss"])
            writer.writerows([r.n_params, r.tokens, r.precision, r.loss] for r in records)
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
    def train_metrics(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 16_000, seed=33)
        config = {
            "model": {"num_blocks": 1, "hidden_size": 32, "num_heads": 2, "max_seq_len": 32,
                      "quant": {"format": "none", "hadamard": False}},
            "train": {"peak_lr": 2e-3, "total_steps": 5, "batch_tokens": 128,
                      "data_path": str(corpus), "seed": 21},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))

        def run(out, *flags):
            assert main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / out), *flags]) == 0
            return (tmp_path / out / "metrics.jsonl").read_text()

        return run

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
        for line in lines[1:]:
            assert re.fullmatch(r"0,(quest|quest-no-ht|ste),(-?\d\.\d{6})?,[01]", line), line

    def test_mask_stats_csv(self, workspace, tmp_path):
        root, _, corpus = workspace
        assert main(["mask-stats", "--checkpoint", str(root / "run" / "model.ckpt"),
                     "--data", str(corpus), "--out", str(tmp_path),
                     "--steps", "6", "--interval", "3", "--batch-tokens", "128",
                     "--seed", "4"]) == 0
        lines = (tmp_path / "masks.csv").read_text().splitlines()
        assert lines[0] == "step,layer,masked_fraction,persistence"
        assert len(lines) == 1 + 2 * 7  # 2 samples x 7 layers (1 block)
        for line in lines[1:]:  # persistence: empty at the first sample or when none masked
            step, layer, fraction, persistence = line.split(",")
            assert step in ("0", "3") and layer.startswith("block0.w")
            assert re.fullmatch(r"[01]\.\d{6}", fraction)
            assert re.fullmatch(r"([01]\.\d{6})?" if step == "3" else "", persistence)

    @pytest.mark.parametrize("command,flag,value,message", [
        ("mask-stats", "--steps", "0", "must be at least 1"),
        ("mask-stats", "--interval", "0", "must be at least 1"),
        ("bench", "--reps", "0", "must be at least 1"),
        ("align", "--batches", "0", "must be at least 1"),
        ("align", "--batch-size", "0", "must be at least 1"),
        ("mask-stats", "--batch-tokens", "0", "must be at least 1"),
        ("mask-stats", "--lr", "nan", "must be finite and at least 0"),
        ("mask-stats", "--lr", "-1e-3", "must be finite and at least 0"),
        ("train", "--trust-scale", "-1", "must be finite and positive"),
        ("sweep-s", "--s-grid", "1.0,nan", "must be finite and positive"),
        ("bench", "--hidden", "0", "must be at least 1"),
        ("bench", "--batch", "0", "must be at least 1"),
    ], ids=["--steps", "--interval", "bench--reps", "align--batches", "align--batch-size",
            "--batch-tokens", "--lr-nan", "--lr-negative", "train--trust-scale",
            "sweep-s--s-grid", "bench--hidden", "bench--batch"])
    def test_mask_stats_rejects_counts_below_one(self, command, flag, value, message, tmp_path):
        paths = {
            "bench": [],
            "train": ["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)],
            "sweep-s": ["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)],
        }.get(command, ["--checkpoint", str(tmp_path / "missing.ckpt"),
                        "--data", str(tmp_path / "missing.txt"), "--out", str(tmp_path)])
        proc = run_cli([command, *paths, f"{flag}={value}"])
        assert proc.returncode == 2
        assert f"argument {flag}" in proc.stderr and message in proc.stderr

    def test_mask_stats_divergence_is_one_line(self, workspace, tmp_path):
        root, _, corpus = workspace
        with pytest.raises(SystemExit) as exit_, np.errstate(all="ignore"):
            main(["mask-stats", "--checkpoint", str(root / "run" / "model.ckpt"),
                  "--data", str(corpus), "--out", str(tmp_path), "--steps", "8",
                  "--batch-tokens", "128", "--lr", "1e30"])
        assert re.fullmatch(r"trustquant: non-finite (loss|gradient norm) \S+ at optimizer "
                            r"step \d+", exit_.value.code)

    def test_divergence_prints_no_warnings(self, workspace, tmp_path):
        """Outside pytest, which captures them, numpy's overflow warnings
        would reach stderr ahead of the one line."""
        root, _, corpus = workspace
        proc = run_cli(["mask-stats", "--checkpoint", str(root / "run" / "model.ckpt"),
                        "--data", str(corpus), "--out", str(tmp_path), "--steps", "8",
                        "--batch-tokens", "128", "--lr", "1e30"])
        assert proc.returncode == 1
        assert re.fullmatch(r"trustquant: non-finite (loss|gradient norm) \S+ at optimizer "
                            r"step \d+\n", proc.stderr), proc.stderr

    def test_mask_stats_takes_zero_lr(self, workspace, tmp_path):
        root, _, corpus = workspace
        assert main(["mask-stats", "--checkpoint", str(root / "run" / "model.ckpt"),
                     "--data", str(corpus), "--out", str(tmp_path), "--steps", "1",
                     "--interval", "1", "--batch-tokens", "128", "--lr", "0"]) == 0


class TestBadInputFile:
    """A file that does not parse ends its command with one line naming it."""

    @pytest.mark.parametrize("command", ["eval", "align", "mask-stats"])
    def test_truncated_checkpoint(self, command, workspace, tmp_path):
        root, _, corpus = workspace
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes((root / "run" / "model.ckpt").read_bytes()[:4096])
        out = [] if command == "eval" else ["--out", str(tmp_path / "out")]
        proc = run_cli([command, "--checkpoint", str(ckpt), "--data", str(corpus), *out])
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith(f"trustquant: {ckpt}: not a model checkpoint")

    @pytest.mark.parametrize("command", ["eval", "align", "mask-stats"])
    @pytest.mark.parametrize("missing, problem", [
        ("checkpoint", "No such file or directory"),
        ("data", "No such file or directory"),
        ("short-data", "corpus shorter than one 32-token window"),
    ])
    def test_missing_or_short_input(self, command, missing, problem, workspace, tmp_path):
        root, _, corpus = workspace
        paths = {"checkpoint": root / "run" / "model.ckpt", "data": corpus}
        if missing == "short-data":
            bad = paths["data"] = tmp_path / "short.txt"
            bad.write_bytes(corpus.read_bytes()[:31])
        else:
            bad = paths[missing] = tmp_path / "absent"
        out = [] if command == "eval" else ["--out", str(tmp_path / "out")]
        proc = run_cli([command, "--checkpoint", str(paths["checkpoint"]),
                        "--data", str(paths["data"]), *out])
        assert proc.returncode == 1
        assert proc.stderr == f"trustquant: {bad}: {problem}\n"

    @pytest.mark.parametrize("text, where", [
        ("n_params,tokens,loss\n3e7,3e9,3.21\n", "line 2, column 'precision'"),
        ("n_params,tokens,precision,loss\n3e7,3e9,4,3.21\n5e7,5e9,16,low\n",
         "line 3, column 'loss'"),
        ("n_params,tokens,precision,loss\n3e7,3e9,4,3.21\n5e7,5e9,16,nan\n",
         "line 3, column 'loss'"),
    ], ids=["missing-column", "not-a-number", "not-finite"])
    def test_bad_records_csv(self, text, where, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(text)
        proc = run_cli(["fit-scaling", "--records", str(path), "--out", str(tmp_path / "fit")])
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith(f"trustquant: {path}: {path}, {where}: ")


class TestBench:
    def test_smoke_csv(self, tmp_path, capsys):
        assert main(["bench", "--hidden", "128", "--batch", "16", "--reps", "2",
                     "--out", str(tmp_path / "bench.csv")]) == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "shape,dense_ms,quant_pack_ms,ht_ms,int_gemm_ms,speedup"
        assert len(lines) == 8  # 7 layers
        assert lines[1].startswith("wq:16x128x128,")
        for line in lines[1:]:
            assert all(re.fullmatch(r"\d+\.\d{4}|inf", cell) for cell in line.split(",")[1:])

    def test_odd_hidden_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--hidden", "65"])
        assert exc.value.code == 2
        assert "argument --hidden: must be even, got 65" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, batch_tokens, eval_interval, batch, usable", [
        ("train", 32, 0, 0, 62),  # below one window
        ("train", 64 * 63, 0, 63, 62),  # more windows than the corpus holds
        ("train", 64 * 60, 5, 60, 54),  # more than it holds beside the held-out ones
        ("sweep-s", 32, 0, 0, 62),
    ], ids=["zero", "too-many", "held-out", "sweep-s"])
    def test_batch_the_corpus_cannot_fill_is_one_line(self, command, batch_tokens,
                                                      eval_interval, batch, usable, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 4_000, seed=33)  # 62 windows of 64
        config = {"model": {"num_blocks": 1, "hidden_size": 16, "num_heads": 2,
                            "max_seq_len": 64, "quant": {"format": "int4"}},
                  "train": {"peak_lr": 2e-3, "total_steps": 2, "batch_tokens": batch_tokens,
                            "data_path": str(corpus), "eval_interval": eval_interval}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"trustquant: {path}: batch_tokens {batch_tokens} gives batches of {batch} "
            f"64-token windows, not between 1 and the {usable} training windows of {corpus}")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, flags, problem", [
        ({"max_seq_len": 1}, [], "max_seq_len 1 is below 2: a window predicts its next token"),
        ({"quant": {"format": "int4", "group_size": 3}}, [],
         "quant.group_size 3 does not divide the projected width 8"),
        ({"hidden_size": 10, "num_heads": 1, "quant": {"format": "int4-sparse-2of4"}}, [],
         "2:4 sparsity needs scale groups of a multiple of 4, got 10 at width 10"),
        ({"hidden_size": 10, "num_heads": 1}, ["--format", "int4-sparse-2of4"],
         "2:4 sparsity needs scale groups of a multiple of 4, got 10 at width 10"),
    ], ids=["seq-1", "group-3", "sparse-hidden-10", "sparse-flag-hidden-10"])
    def test_config_the_model_cannot_run_is_one_line(self, model, flags, problem, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 400, seed=34)
        config = {"model": {"num_blocks": 1, "hidden_size": 8, "num_heads": 2,
                            "max_seq_len": 8, "quant": {"format": "int4"}, **model},
                  "train": {"peak_lr": 2e-3, "total_steps": 2, "batch_tokens": 16,
                            "data_path": str(corpus)}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli(["train", "--config", str(path), "--out", str(tmp_path / "out"), *flags])
        assert proc.returncode == 1
        assert proc.stderr == f"trustquant: {path}: {problem}\n"
        assert not (tmp_path / "out").exists()


class TestCorpusCheck:
    """Every command that reads a corpus checks it against the model first:
    a byte at or above vocab_size, or a batch the corpus cannot fill, ends
    the command in one line before it writes anything."""

    @pytest.fixture(scope="class")
    def vocab16(self, tmp_path_factory):
        """A vocab-16, hidden-8 config and checkpoint over a corpus of
        letters and spaces, every byte of which is 32 or more."""
        root = tmp_path_factory.mktemp("vocab16")
        corpus = write_corpus(root / "c.txt", 4_000, seed=5)  # 125 windows of 32
        model = {"num_blocks": 1, "hidden_size": 8, "num_heads": 2, "max_seq_len": 32,
                 "vocab_size": 16, "quant": {"format": "int4"}}
        (root / "config.json").write_text(json.dumps({"model": model, "train": {
            "peak_lr": 2e-3, "total_steps": 2, "batch_tokens": 64, "data_path": str(corpus)}}))
        save_checkpoint(build(ModelConfig.from_json(json.dumps(model)), Rng(0)), root / "m.ckpt")
        return root, corpus

    @staticmethod
    def exit_line(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code

    @pytest.mark.parametrize("command", ["train", "sweep-s", "eval", "align", "mask-stats"])
    def test_byte_outside_vocabulary_is_one_line(self, command, vocab16, tmp_path):
        root, corpus = vocab16
        out = [] if command == "eval" else ["--out", str(tmp_path / "out")]
        if command in ("train", "sweep-s"):
            argv = [command, "--config", str(root / "config.json"), *out]
        else:
            argv = [command, "--checkpoint", str(root / "m.ckpt"), "--data", str(corpus), *out]
        top = max(corpus.read_bytes()[: 125 * 32])
        assert top >= 16
        assert self.exit_line(argv) == f"trustquant: {corpus}: byte {top} is not below vocab_size 16"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value, batch", [
        ("align", "--batch-size", "9", 9), ("mask-stats", "--batch-tokens", "288", 9),
    ])
    def test_batch_the_data_cannot_fill_is_one_line(self, command, flag, value, batch,
                                                    workspace, tmp_path):
        root, _, corpus = workspace
        data = tmp_path / "eight.txt"
        data.write_bytes(corpus.read_bytes()[: 8 * 32])  # eight 32-token windows
        assert self.exit_line([command, "--checkpoint", str(root / "run" / "model.ckpt"),
                               "--data", str(data), "--out", str(tmp_path / "out"),
                               flag, value]) == (
            f"trustquant: {data}: {flag} {value} gives batches of {batch} 32-token windows, "
            f"not between 1 and the 8 training windows of {data}")
        assert not (tmp_path / "out").exists()


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


# The robustness property gives every flag a value from its good pool but
# for at most one, which it leaves out or draws from everything it knows. A
# path flag's good value is the right file for its dest; "records.csv"
# parses but holds one model size, which the fit rejects: a records CSV that
# fits would take seconds per draw, and TestFitScaling covers it.
INPUT_FILES = ["corpus.txt", "short.txt", "empty", "random.bin", "config.json",
               "short-config.json", "cut-config.json", "seq1-config.json",
               "group3-config.json", "sparse-hidden10-config.json", "vocab16-config.json",
               "model.ckpt", "cut.ckpt", "vocab16.ckpt", "records.csv", "cut-records.csv", "dir",
               "missing"]
GOOD_TEXT = {"config": "config.json", "checkpoint": "model.ckpt", "data": "corpus.txt",
             "records": "records.csv", "out": "out", "precisions": "4,16"}
SMALL = ["1", "2", "16"]  # numbers every flag takes and runs in milliseconds
BAD = ["0", "-1", "nan", "inf", "1e30", "x", "", "1,2", "2,nan"]


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """A directory holding one file of each kind in INPUT_FILES but "missing".
    The configs train a 1-block, hidden-8, 2-token model for 2 steps of 2
    windows, and the corpus holds 12, fewer than a 16-window batch. Three
    configs give a model that cannot run: 1-token windows, scale groups of 3,
    and 2:4 sparsity at hidden 10, which runs under another --format. The
    vocab16 config and checkpoint take 16 token ids, below every byte of
    the corpus."""
    root = tmp_path_factory.mktemp("inputs")
    write_corpus(root / "corpus.txt", 24, seed=35)
    (root / "short.txt").write_bytes(b"a")  # shorter than one window
    (root / "empty").write_bytes(b"")
    (root / "random.bin").write_bytes(np.random.default_rng(36).bytes(3_000))
    config = {"model": {"num_blocks": 1, "hidden_size": 8, "num_heads": 2, "max_seq_len": 2,
                        "quant": {"format": "int4"}},
              "train": {"peak_lr": 2e-3, "total_steps": 2, "batch_tokens": 4,
                        "data_path": "corpus.txt", "seed": 3}}
    (root / "config.json").write_text(json.dumps(config))
    config["train"]["data_path"] = "short.txt"
    (root / "short-config.json").write_text(json.dumps(config))
    (root / "cut-config.json").write_text(json.dumps(config)[:60])
    config["train"]["data_path"] = "corpus.txt"
    for name, model in [("seq1", {"max_seq_len": 1}),
                        ("group3", {"quant": {"format": "int4", "group_size": 3}}),
                        ("sparse-hidden10", {"hidden_size": 10, "num_heads": 1,
                                             "quant": {"format": "int4-sparse-2of4"}})]:
        unrunnable = {**config, "model": {**config["model"], **model}}
        (root / f"{name}-config.json").write_text(json.dumps(unrunnable))
    vocab16 = {**config["model"], "vocab_size": 16}
    (root / "vocab16-config.json").write_text(json.dumps({**config, "model": vocab16}))
    save_checkpoint(build(ModelConfig.from_json(json.dumps(vocab16)), Rng(3)), root / "vocab16.ckpt")
    with contextlib.chdir(root):
        assert main(["train", "--config", "config.json", "--out", "run"]) == 0
    ckpt = (root / "run" / "model.ckpt").read_bytes()
    shutil.rmtree(root / "run")
    (root / "model.ckpt").write_bytes(ckpt)
    (root / "cut.ckpt").write_bytes(ckpt[: len(ckpt) // 2])
    header = "n_params,tokens,precision,loss\n"
    (root / "records.csv").write_text(header + "3e7,3e9,16,3.2\n3e7,6e9,16,3.1\n")
    (root / "cut-records.csv").write_text(header + "3e7,3e9,16,3.2\n5e7,5e")
    (root / "dir").mkdir()
    return root


@st.composite
def argvs(draw):
    """A subcommand and flags drawn from the parser's own actions. A flag
    that takes a number is always given, so no default runs at full size."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = draw(st.sampled_from(sorted(sub.choices)))
    actions = [a for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)]
    odd = draw(st.sampled_from([None, *actions]))
    argv = [command]
    for action in actions:
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch
            if draw(st.booleans()):
                argv.append(flag)
            continue
        if action.choices:
            good = list(action.choices)
        elif action.type is None:
            good = [GOOD_TEXT[action.dest]]
        else:
            good = SMALL
        if action is odd:
            value = draw(st.sampled_from([None, *good, *SMALL, *BAD, *INPUT_FILES]))
        elif action.required or action.type is not None or draw(st.booleans()):
            value = draw(st.sampled_from(good))
        else:
            value = None
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


class TestAnyArgv:
    @given(argvs())
    @example(["train", "--config=vocab16-config.json", "--out=out"])
    @example(["sweep-s", "--config=vocab16-config.json", "--out=out", "--s-grid=1"])
    @example(["eval", "--checkpoint=vocab16.ckpt", "--data=corpus.txt"])
    @example(["align", "--checkpoint=vocab16.ckpt", "--data=corpus.txt", "--out=out",
              "--batches=1", "--batch-size=1"])
    @example(["mask-stats", "--checkpoint=vocab16.ckpt", "--data=corpus.txt", "--out=out",
              "--steps=1", "--interval=1", "--lr=1", "--batch-tokens=2"])
    @settings(max_examples=150, deadline=None)
    def test_ends_in_success_or_one_line(self, input_files, argv):
        """Every draw returns 0, or exits 1 or 2 with one stderr line. The
        examples run each command that reads a corpus on the vocab16 files."""
        out, err = io.StringIO(), io.StringIO()
        with (tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp),
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            shutil.copytree(input_files, tmp, dirs_exist_ok=True)
            try:
                code = main(argv)
            except SystemExit as exit_:  # as the interpreter reports it
                code = exit_.code
                if isinstance(code, str):
                    print(code, file=sys.stderr)
                    code = 1
        if code != 0:
            assert code in (1, 2) and err.getvalue().count("\n") == 1, (code, err.getvalue())
            assert err.getvalue().endswith("\n")
