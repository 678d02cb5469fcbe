"""Run the artifact recipe against a checkout and keep what it writes.

    python tools/recipe_artifacts.py CHECKOUT OUT_DIR

The recipe that a behaviour-preserving change is checked with. Every step
runs through CHECKOUT's own CLI (`python -m trustquant.cli` with
PYTHONPATH=CHECKOUT/src), single-threaded (OMP_NUM_THREADS=1), with
PYTHONDONTWRITEBYTECODE=1 and QUEST_SEED unset:

- corpus.txt: `write_corpus(path, 60000, seed=5)` from CHECKOUT/tests/helpers.py;
- train-FORMAT/: `train --seed 7` for each FORMAT in int4, none, fp4, int1
  and int4-sparse-2of4, on a config of 2 blocks, hidden 64, 4 heads, seq 64,
  25 steps of 512 tokens, peak LR 2e-3, config seed 13, eval_interval 0. The
  format is set in the config JSON, not by a flag, so the same recipe runs on
  checkouts whose `--format` flag differs;
- mask-stats/masks.csv: `mask-stats --steps 12 --interval 4 --batch-tokens 512
  --seed 4` on the int4 checkpoint;
- align/alignment.csv: `align --batches 3 --batch-size 2 --seed 3` on the int4
  checkpoint;
- alpha_table.csv: the stdout of `alpha-table`.

Every command runs inside OUT_DIR on relative paths, so the outputs of two
checkouts are comparable with `diff -r OUT_A OUT_B`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

FORMATS = ("int4", "none", "fp4", "int1", "int4-sparse-2of4")


def config(fmt: str) -> dict:
    return {
        "model": {"num_blocks": 2, "hidden_size": 64, "num_heads": 4, "max_seq_len": 64,
                  "quant": {"format": fmt}},
        "train": {"peak_lr": 2e-3, "total_steps": 25, "batch_tokens": 512,
                  "data_path": "corpus.txt", "seed": 13, "eval_interval": 0},
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/recipe_artifacts.py CHECKOUT OUT_DIR", file=sys.stderr)
        return 2
    checkout, out = (os.path.abspath(a) for a in args)
    os.makedirs(out, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "QUEST_SEED"}
    env.update(PYTHONPATH=os.pathsep.join([os.path.join(checkout, "src"),
                                           os.path.join(checkout, "tests")]),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1")

    def run(*cmd, stdout=subprocess.DEVNULL):
        subprocess.run([sys.executable, *cmd], cwd=out, env=env, check=True, stdout=stdout)

    def cli(*cmd, stdout=subprocess.DEVNULL):
        run("-m", "trustquant.cli", *cmd, stdout=stdout)

    run("-c", "from helpers import write_corpus; write_corpus('corpus.txt', 60000, seed=5)")
    for fmt in FORMATS:
        with open(os.path.join(out, f"config-{fmt}.json"), "w") as f:
            json.dump(config(fmt), f, indent=1)
        cli("train", "--config", f"config-{fmt}.json", "--out", f"train-{fmt}", "--seed", "7")
    ckpt = os.path.join("train-int4", "model.ckpt")
    cli("mask-stats", "--checkpoint", ckpt, "--data", "corpus.txt", "--out", "mask-stats",
        "--steps", "12", "--interval", "4", "--batch-tokens", "512", "--seed", "4")
    cli("align", "--checkpoint", ckpt, "--data", "corpus.txt", "--out", "align",
        "--batches", "3", "--batch-size", "2", "--seed", "3")
    with open(os.path.join(out, "alpha_table.csv"), "w") as f:
        cli("alpha-table", stdout=f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
