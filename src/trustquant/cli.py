"""Single entry point for every workflow; outputs are tables/CSV/JSONL.

Seed precedence: QUEST_SEED env var overrides --seed, which overrides the
config file. Every subcommand is deterministic given the effective seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import diagnostics, packgemm, scaling, trainer
from .model import ModelConfig, build, load_checkpoint
from .quantizer import FORMATS, INT_FORMATS, QuantConfig, alpha_star, gaussian_grid_mse
from .tensor import Rng


def _effective_seed(args, config_seed: int = 0) -> int:
    if os.environ.get("QUEST_SEED"):
        return int(os.environ["QUEST_SEED"])
    if getattr(args, "seed", None) is not None:
        return args.seed
    return config_seed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_numbers(parse):
    """An argparse type: comma-separated values, each finite and positive."""
    def parse_list(text: str) -> list:
        values = [parse(item) for item in text.split(",")]
        if bad := [v for v in values if not (math.isfinite(v) and v > 0)]:
            raise argparse.ArgumentTypeError(f"must be finite and positive, got {bad[0]}")
        return values
    return parse_list


def _quant_overrides(args, quant: QuantConfig) -> QuantConfig:
    updates = {}
    if args.format:
        updates["format"] = args.format
    if args.no_hadamard:
        updates["hadamard"] = False
    if args.weight_only:
        updates["weight_only"] = True
    if args.trust_scale is not None:
        updates["outer_trust_scale"] = args.trust_scale
    return dataclasses.replace(quant, **updates) if updates else quant


def _load_config(path):
    """(ModelConfig, TrainConfig) from a config file. A file they do not
    take exits with one line that names the file and the problem."""
    with open(path) as f:
        try:
            raw = json.load(f)
            return (ModelConfig.from_json(json.dumps(raw["model"])),
                    trainer.TrainConfig(**raw["train"]))
        except KeyError as err:
            sys.exit(f"trustquant: {path}: no {err} object")
        except (TypeError, ValueError) as err:
            sys.exit(f"trustquant: {path}: {err}")


def _write_rows(out, header, rows):
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


def cmd_train(args) -> int:
    model_cfg, train_cfg = _load_config(args.config)
    model_cfg = dataclasses.replace(model_cfg, quant=_quant_overrides(args, model_cfg.quant))
    seed = _effective_seed(args, train_cfg.seed)
    train_cfg = dataclasses.replace(train_cfg, seed=seed)
    model = build(model_cfg, Rng(seed))
    records = trainer.train(model, train_cfg, args.out)
    print(f"trained {train_cfg.total_steps} steps; final loss {records[-1]['loss']:.4f}; "
          f"artifacts in {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    windows = trainer.ingest(args.data, model.cfg.max_seq_len)
    loss = trainer.eval_loss(model, windows)
    print(f"loss {loss:.6f}")
    print(f"ppl {math.exp(loss):.6f}")
    return 0


def cmd_align(args) -> int:
    model = load_checkpoint(args.checkpoint)
    windows = trainer.ingest(args.data, model.cfg.max_seq_len)
    seed = _effective_seed(args)
    stream = trainer.BatchStream(windows, args.batch_size, seed)
    batches = [stream.next_batch() for _ in range(args.batches)]
    records = diagnostics.alignment_sweep(model, batches)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "alignment.csv")
    diagnostics.write_alignment_csv(path, records)
    for tag in diagnostics.ESTIMATOR_TAGS:
        med, iqr = diagnostics.summarize([r.xi for r in records if r.tag == tag])
        print(f"{tag}: median {med:.4f} iqr {iqr:.4f}" if med is not None else f"{tag}: undefined")
    print(f"wrote {path}")
    return 0


def cmd_mask_stats(args) -> int:
    model = load_checkpoint(args.checkpoint)
    seed = _effective_seed(args)
    train_cfg = trainer.TrainConfig(peak_lr=args.lr, total_steps=args.steps,
                                    batch_tokens=args.batch_tokens, seed=seed)
    windows = trainer.ingest(args.data, model.cfg.max_seq_len)

    stats: list[diagnostics.MaskStats] = []
    previous: dict[str, np.ndarray] = {}
    for step, _, _, _, trace in trainer.steps(model, train_cfg, windows):
        if step % args.interval == 0:
            for name, ctx in trace.layer_contexts.items():
                persistence = (
                    diagnostics.mask_persistence(previous[name], ctx.mask_w)
                    if name in previous else None
                )
                stats.append(diagnostics.MaskStats(
                    step=step, layer=name,
                    masked_fraction=diagnostics.mask_fraction(ctx.mask_w),
                    persistence=persistence,
                ))
                previous[name] = ctx.mask_w
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "masks.csv")
    diagnostics.write_masks_csv(path, stats)
    print(f"wrote {path}")
    return 0


def cmd_alpha_table(args) -> int:
    _write_rows(sys.stdout, ["grid", "alpha_star", "mse"], [
        (key, f"{alpha_star(key):.6f}", f"{gaussian_grid_mse(alpha_star(key), key):.8e}")
        for key in [*INT_FORMATS.values(), "fp4"]
    ])
    return 0


def cmd_fit_scaling(args) -> int:
    records = scaling.read_records_csv(args.records)
    params = scaling.fit(records)
    os.makedirs(args.out, exist_ok=True)
    params_path = os.path.join(args.out, "scaling_params.json")
    with open(params_path, "w") as f:
        f.write(params.to_json())
    eff_path = os.path.join(args.out, "efficiency.csv")
    with open(eff_path, "w", newline="") as f:
        _write_rows(f, ["precision", "eff", "eff_per_bit"], [
            (p, f"{params.eff[p]:.6f}", f"{scaling.efficiency(params, p):.6f}")
            for p in sorted(k for k in params.eff if isinstance(k, int))
        ])
    print(f"wrote {params_path} and {eff_path}")
    return 0


def cmd_plan_runs(args) -> int:
    precisions = ([scaling._parse_tag(p) for p in args.precisions.split(",")]
                  if args.precisions else (scaling.BASE_PRECISION,))
    rows = scaling.plan_runs(args.sizes, ratios=args.ratios, precisions=precisions,
                             lr_fn=trainer.peak_lr_for)
    _write_rows(sys.stdout, ["n_params", "precision", "ratio", "tokens", "peak_lr"], [
        (r["n_params"], r["precision"], r["ratio"], r["tokens"], f"{r['peak_lr']:.6g}")
        for r in rows
    ])
    return 0


def cmd_bench(args) -> int:
    shapes = packgemm.layer_shapes(args.hidden, batch=args.batch)
    rows = packgemm.bench(shapes, reps=args.reps, seed=_effective_seed(args))
    if args.out:
        with open(args.out, "w", newline="") as f:
            packgemm.write_bench_csv(f, rows)
        print(f"wrote {args.out}")
    else:
        packgemm.write_bench_csv(sys.stdout, rows)
    return 0


def cmd_sweep_s(args) -> int:
    model_cfg, train_cfg = _load_config(args.config)
    seed = _effective_seed(args, train_cfg.seed)
    grid = [float(s) for s in args.s_grid.split(",")]
    os.makedirs(args.out, exist_ok=True)
    results = []
    for s in grid:
        quant = dataclasses.replace(model_cfg.quant, outer_trust_scale=s)
        cfg = dataclasses.replace(model_cfg, quant=quant)
        model = build(cfg, Rng(seed))
        run_dir = os.path.join(args.out, f"s_{s:g}")
        records = trainer.train(model, dataclasses.replace(train_cfg, seed=seed), run_dir)
        tail = [r["loss"] for r in records[-20:]]
        results.append((s, sum(tail) / len(tail)))
        print(f"s={s:g}: final loss {results[-1][1]:.4f}")
    path = os.path.join(args.out, "sweep_s.csv")
    with open(path, "w", newline="") as f:
        _write_rows(f, ["s", "final_loss"], [(s, f"{l:.6f}") for s, l in results])
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustquant",
        description="Quantization-aware training with trust-masked gradients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quant_flags(p):
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--no-hadamard", action="store_true")
        p.add_argument("--weight-only", action="store_true")
        p.add_argument("--trust-scale", type=float, default=None)

    p = sub.add_parser("train", help="train a model from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    add_quant_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="loss/perplexity of a checkpoint on a text file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("align", help="gradient-alignment sweep -> alignment.csv")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batches", type=_positive_int, default=32)
    p.add_argument("--batch-size", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_align)

    p = sub.add_parser("mask-stats", help="mask fraction/persistence along a "
                                          "training continuation -> masks.csv")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=_positive_int, default=50)
    p.add_argument("--interval", type=_positive_int, default=10)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-tokens", type=int, default=1024)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_mask_stats)

    p = sub.add_parser("alpha-table", help="CSV of alpha*(grid) and achieved MSE")
    p.set_defaults(fn=cmd_alpha_table)

    p = sub.add_parser("fit-scaling", help="fit the scaling law from a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fit_scaling)

    p = sub.add_parser("plan-runs", help="emit the N x P x (D/N) run matrix")
    p.add_argument("--sizes", required=True, type=_positive_numbers(float),
                   help="comma-separated parameter counts")
    p.add_argument("--ratios", default="25,50,100", type=_positive_numbers(int))
    p.add_argument("--precisions", default=None)
    p.set_defaults(fn=cmd_plan_runs)

    p = sub.add_parser("bench", help="dense vs quantize/pack/int-GEMM timings")
    p.add_argument("--hidden", type=int, default=2048)
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sweep-s", help="train across an outer-trust-scale grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--s-grid", default="1.0,1.1,1.2,1.3,1.4,1.5")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_sweep_s)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
