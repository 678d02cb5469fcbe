"""Run the artifact recipe against a checkout and keep what it writes.

    python tools/recipe_artifacts.py CHECKOUT OUT_DIR

The recipe that a behaviour-preserving change is checked with. Every step
runs through CHECKOUT's own CLI (`python -m trustquant.cli` with
PYTHONPATH=CHECKOUT/src), single-threaded (OMP_NUM_THREADS=1), with
PYTHONDONTWRITEBYTECODE=1 and QUEST_SEED unset:

- corpus.txt: `write_corpus(path, 60000, seed=5)` from CHECKOUT/tests/helpers.py;
- train-FORMAT/: `train --seed 7` for each FORMAT in int4, int8, none, fp4,
  int1 and int4-sparse-2of4 (every rung of the training ladder), on a config
  of 2 blocks, hidden 64, 4 heads, seq 64, 25 steps of 512 tokens, peak LR
  2e-3, config seed 13, eval_interval 0. The format is set in the config
  JSON, not by a flag, so the same recipe runs on checkouts whose `--format`
  flag differs;
- train-int4-eval5/: the int4 run with eval_interval 5, so the mid-run
  eval (its held-out windows and its `eval_loss` records) is covered too;
- mask-stats/masks.csv: `mask-stats --steps 12 --interval 4 --batch-tokens 512
  --seed 4` on the int4 checkpoint;
- align/alignment.csv: `align --batches 3 --batch-size 2 --seed 3` on the int4
  checkpoint;
- eval.txt: the stdout of `eval` on the int4 checkpoint and the whole corpus,
  which scores 59 batches of one model, so it covers the weight operands that
  a forward reuses across batches;
- alpha_table.csv: the stdout of `alpha-table`;
- plan_runs.csv: the stdout of `plan-runs --sizes 30e6,50e6 --precisions 1,2,3,4,16`;
- fit-scaling/: `fit-scaling` on records.csv, 36 run records that this tool
  writes with the `csv` module from a known scaling law (N in 30e6, 100e6,
  300e6 and 1e9; P in 4, 8 and 16; D/N in 25, 50 and 100) times a fixed
  wobble of at most 1%;
- sweep-s/: `sweep-s --s-grid 1.0,1.3 --seed 7` on the int4 config.

Every command runs inside OUT_DIR on relative paths, so the outputs of two
checkouts are comparable with `diff -r OUT_A OUT_B`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from itertools import product

FORMATS = ("int4", "int8", "none", "fp4", "int1", "int4-sparse-2of4")


# (run name, format, eval_interval): every rung without mid-run eval, and int4 with it
RUNS = [(fmt, fmt, 0) for fmt in FORMATS] + [("int4-eval5", "int4", 5)]


def config(fmt: str, eval_interval: int) -> dict:
    return {
        "model": {"num_blocks": 2, "hidden_size": 64, "num_heads": 4, "max_seq_len": 64,
                  "quant": {"format": fmt}},
        "train": {"peak_lr": 2e-3, "total_steps": 25, "batch_tokens": 512,
                  "data_path": "corpus.txt", "seed": 13, "eval_interval": eval_interval},
    }


def write_records(path: str) -> None:
    """Run records of L = A/(N*eff(P))^alpha + B/D^beta + E, each times
    exp(0.01 * sin(i)) for its index i."""
    eff = {4: 0.7, 8: 0.9, 16: 1.0}
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n_params", "tokens", "precision", "loss"])
        for i, (n, p, ratio) in enumerate(product((30e6, 100e6, 300e6, 1e9), eff, (25, 50, 100))):
            loss = 406.4 / (n * eff[p]) ** 0.34 + 410.7 / (ratio * n) ** 0.28 + 1.69
            writer.writerow([n, ratio * n, p, loss * math.exp(0.01 * math.sin(i))])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/recipe_artifacts.py CHECKOUT OUT_DIR", file=sys.stderr)
        return 2
    checkout, out = (os.path.abspath(a) for a in args)
    os.makedirs(out, exist_ok=True)
    # older checkouts' CLIs let QUEST_SEED override --seed, so it stays unset
    env = {k: v for k, v in os.environ.items() if k != "QUEST_SEED"}
    env.update(PYTHONPATH=os.pathsep.join([os.path.join(checkout, "src"),
                                           os.path.join(checkout, "tests")]),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1")

    def run(*cmd, stdout=subprocess.DEVNULL):
        subprocess.run([sys.executable, *cmd], cwd=out, env=env, check=True, stdout=stdout)

    def cli(*cmd, stdout=subprocess.DEVNULL):
        run("-m", "trustquant.cli", *cmd, stdout=stdout)

    run("-c", "from helpers import write_corpus; write_corpus('corpus.txt', 60000, seed=5)")
    for name, fmt, eval_interval in RUNS:
        with open(os.path.join(out, f"config-{name}.json"), "w") as f:
            json.dump(config(fmt, eval_interval), f, indent=1)
        cli("train", "--config", f"config-{name}.json", "--out", f"train-{name}", "--seed", "7")
    ckpt = os.path.join("train-int4", "model.ckpt")
    cli("mask-stats", "--checkpoint", ckpt, "--data", "corpus.txt", "--out", "mask-stats",
        "--steps", "12", "--interval", "4", "--batch-tokens", "512", "--seed", "4")
    cli("align", "--checkpoint", ckpt, "--data", "corpus.txt", "--out", "align",
        "--batches", "3", "--batch-size", "2", "--seed", "3")
    with open(os.path.join(out, "eval.txt"), "w") as f:
        cli("eval", "--checkpoint", ckpt, "--data", "corpus.txt", stdout=f)
    with open(os.path.join(out, "alpha_table.csv"), "w") as f:
        cli("alpha-table", stdout=f)
    with open(os.path.join(out, "plan_runs.csv"), "w") as f:
        cli("plan-runs", "--sizes", "30e6,50e6", "--precisions", "1,2,3,4,16", stdout=f)
    write_records(os.path.join(out, "records.csv"))
    cli("fit-scaling", "--records", "records.csv", "--out", "fit-scaling")
    cli("sweep-s", "--config", "config-int4.json", "--out", "sweep-s",
        "--s-grid", "1.0,1.3", "--seed", "7")
    return 0


if __name__ == "__main__":
    sys.exit(main())
