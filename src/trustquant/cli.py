"""Single entry point for every workflow; outputs are tables/CSV/JSONL.

Seed precedence: --seed overrides the config file. Every subcommand is
deterministic given the effective seed.
"""

from __future__ import annotations

import argparse
import contextlib
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
    return config_seed if args.seed is None else args.seed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _numbers(parse, *, many: bool = False, zero: bool = False):
    """An argparse type: one value (comma-separated values if `many`), each
    finite and positive, or at least 0 if `zero`."""
    def number(text: str):
        values = [parse(item) for item in (text.split(",") if many else [text])]
        if bad := [v for v in values if not (math.isfinite(v) and (v > 0 or zero and v == 0))]:
            raise argparse.ArgumentTypeError(
                f"must be finite and {'at least 0' if zero else 'positive'}, got {bad[0]}")
        return values if many else values[0]
    return number


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


def _corpus(path, cfg: ModelConfig, batch: int = 1, held_out: int = 0, setting="", where=None):
    """The corpus at `path` in cfg.max_seq_len-token windows. Exits with one
    line unless it reads (`_read`), no byte reaches cfg.vocab_size, and one
    batch of `batch` windows, as `setting` in the file `where` (else `path`)
    sets it, fits beside the `held_out` ones kept for eval_loss."""
    windows = _read(trainer.ingest, path, cfg.max_seq_len)
    if (top := int(windows.max())) >= cfg.vocab_size:
        sys.exit(f"trustquant: {path}: byte {top} is not below vocab_size {cfg.vocab_size}")
    usable = max(0, len(windows) - held_out)
    if not 1 <= batch <= usable:
        sys.exit(f"trustquant: {where or path}: {setting} gives batches of {batch} "
                 f"{cfg.max_seq_len}-token windows, not between 1 and the {usable} training "
                 f"windows of {path}" + (f" ({held_out} more are held out for eval_loss)"
                                         if held_out else ""))
    return windows


def _even_int(text: str) -> int:
    value = _positive_int(text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"must be even, got {value}")
    return value


def _read(load, path, *args):
    """load(path, *args); a ValueError from `load` exits with one line naming
    the file (`main` does the same for an OSError)."""
    try:
        return load(path, *args)
    except ValueError as err:
        sys.exit(f"trustquant: {path}: {err}")


def _cell(value, spec: str) -> str:
    """A table cell: empty for None, else `value` formatted by `spec`."""
    return "" if value is None else format(value, spec)


def _write_rows(path, header, rows) -> None:
    """Write one table as CSV (excel dialect, CRLF line ends) to `path`, or
    to stdout without one. Every table the CLI emits goes through here."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
        csv.writer(out).writerows([header, *rows])


def cmd_train(args) -> int:
    model_cfg, train_cfg = _load_config(args.config)
    _corpus(train_cfg.data_path, model_cfg, train_cfg.batch_tokens // model_cfg.max_seq_len,
            trainer.held_out_windows(train_cfg), f"batch_tokens {train_cfg.batch_tokens}",
            args.config)
    try:
        model_cfg = dataclasses.replace(model_cfg, quant=_quant_overrides(args, model_cfg.quant))
    except ValueError as err:  # the flags give a config the model cannot run
        sys.exit(f"trustquant: {args.config}: {err}")
    train_cfg = dataclasses.replace(train_cfg, seed=_effective_seed(args, train_cfg.seed))
    model = build(model_cfg, Rng(train_cfg.seed))
    records = trainer.train(model, train_cfg, args.out)
    print(f"trained {train_cfg.total_steps} steps; final loss {records[-1]['loss']:.4f}; "
          f"artifacts in {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = _read(load_checkpoint, args.checkpoint)
    loss = trainer.eval_loss(model, _corpus(args.data, model.cfg))
    print(f"loss {loss:.6f}")
    print(f"ppl {math.exp(loss):.6f}")
    return 0


def cmd_align(args) -> int:
    model = _read(load_checkpoint, args.checkpoint)
    windows = _corpus(args.data, model.cfg, args.batch_size,
                      setting=f"--batch-size {args.batch_size}")
    stream = trainer.BatchStream(windows, args.batch_size, _effective_seed(args))
    batches = [stream.next_batch() for _ in range(args.batches)]
    records = diagnostics.alignment_sweep(model, batches)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "alignment.csv")
    _write_rows(path, ["block", "tag", "xi", "sample"],
                [(r.block, r.tag, _cell(r.xi, ".6f"), r.sample) for r in records])
    for tag in diagnostics.ESTIMATOR_TAGS:
        med, iqr = diagnostics.summarize([r.xi for r in records if r.tag == tag])
        print(f"{tag}: median {med:.4f} iqr {iqr:.4f}" if med is not None else f"{tag}: undefined")
    print(f"wrote {path}")
    return 0


def cmd_mask_stats(args) -> int:
    model = _read(load_checkpoint, args.checkpoint)
    train_cfg = trainer.TrainConfig(peak_lr=args.lr, total_steps=args.steps,
                                    batch_tokens=args.batch_tokens, seed=_effective_seed(args))
    windows = _corpus(args.data, model.cfg, args.batch_tokens // model.cfg.max_seq_len,
                      setting=f"--batch-tokens {args.batch_tokens}")

    rows, previous = [], {}
    for step, _, _, _, trace in trainer.steps(model, train_cfg, windows):
        if step % args.interval == 0:
            for name, ctx in trace.layer_contexts.items():
                persistence = (diagnostics.mask_persistence(previous[name], ctx.mask_w)
                               if name in previous else None)
                rows.append((step, name, _cell(diagnostics.mask_fraction(ctx.mask_w), ".6f"),
                             _cell(persistence, ".6f")))
                previous[name] = ctx.mask_w
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "masks.csv")
    _write_rows(path, ["step", "layer", "masked_fraction", "persistence"], rows)
    print(f"wrote {path}")
    return 0


def cmd_alpha_table(args) -> int:
    _write_rows(None, ["grid", "alpha_star", "mse"], [
        (key, _cell(alpha_star(key), ".6f"), _cell(gaussian_grid_mse(alpha_star(key), key), ".8e"))
        for key in [*INT_FORMATS.values(), "fp4"]])
    return 0


def cmd_fit_scaling(args) -> int:
    params = _read(lambda path: scaling.fit(scaling.read_records_csv(path)), args.records)
    os.makedirs(args.out, exist_ok=True)
    params_path = os.path.join(args.out, "scaling_params.json")
    with open(params_path, "w") as f:
        f.write(params.to_json())
    eff_path = os.path.join(args.out, "efficiency.csv")
    _write_rows(eff_path, ["precision", "eff", "eff_per_bit"], [
        (p, _cell(params.eff[p], ".6f"), _cell(scaling.efficiency(params, p), ".6f"))
        for p in sorted(k for k in params.eff if isinstance(k, int))])
    print(f"wrote {params_path} and {eff_path}")
    return 0


def cmd_plan_runs(args) -> int:
    precisions = ([scaling._parse_tag(p) for p in args.precisions.split(",")]
                  if args.precisions else (scaling.BASE_PRECISION,))
    rows = scaling.plan_runs(args.sizes, ratios=args.ratios, precisions=precisions,
                             lr_fn=trainer.peak_lr_for)
    _write_rows(None, ["n_params", "precision", "ratio", "tokens", "peak_lr"], [
        (r["n_params"], r["precision"], r["ratio"], r["tokens"], _cell(r["peak_lr"], ".6g"))
        for r in rows])
    return 0


def cmd_bench(args) -> int:
    shapes = packgemm.layer_shapes(args.hidden, batch=args.batch)
    rows = packgemm.bench(shapes, reps=args.reps, seed=_effective_seed(args))
    header = ["shape", "dense_ms", "quant_pack_ms", "ht_ms", "int_gemm_ms", "speedup"]
    _write_rows(args.out, header, [
        (r["shape"], *(_cell(r[column], ".4f") for column in header[1:])) for r in rows])
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_sweep_s(args) -> int:
    model_cfg, train_cfg = _load_config(args.config)
    _corpus(train_cfg.data_path, model_cfg, train_cfg.batch_tokens // model_cfg.max_seq_len,
            trainer.held_out_windows(train_cfg), f"batch_tokens {train_cfg.batch_tokens}",
            args.config)
    train_cfg = dataclasses.replace(train_cfg, seed=_effective_seed(args, train_cfg.seed))
    results = []
    for s in args.s_grid:  # train makes args.out along with each run directory
        quant = dataclasses.replace(model_cfg.quant, outer_trust_scale=s)
        model = build(dataclasses.replace(model_cfg, quant=quant), Rng(train_cfg.seed))
        records = trainer.train(model, train_cfg, os.path.join(args.out, f"s_{s:g}"))
        tail = [r["loss"] for r in records[-20:]]
        results.append((s, sum(tail) / len(tail)))
        print(f"s={s:g}: final loss {results[-1][1]:.4f}")
    path = os.path.join(args.out, "sweep_s.csv")
    _write_rows(path, ["s", "final_loss"], [(s, _cell(l, ".6f")) for s, l in results])
    print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line; the subcommand parsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}; see '{self.prog} --help' for usage\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trustquant",
        description="Quantization-aware training with trust-masked gradients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quant_flags(p):
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--no-hadamard", action="store_true")
        p.add_argument("--weight-only", action="store_true")
        p.add_argument("--trust-scale", type=_numbers(float), default=None)

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
    p.add_argument("--lr", type=_numbers(float, zero=True), default=1e-3)
    p.add_argument("--batch-tokens", type=_positive_int, default=1024)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_mask_stats)

    p = sub.add_parser("alpha-table", help="CSV of alpha*(grid) and achieved MSE")
    p.set_defaults(fn=cmd_alpha_table)

    p = sub.add_parser("fit-scaling", help="fit the scaling law from a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fit_scaling)

    p = sub.add_parser("plan-runs", help="emit the N x P x (D/N) run matrix")
    p.add_argument("--sizes", required=True, type=_numbers(float, many=True),
                   help="comma-separated parameter counts")
    p.add_argument("--ratios", default="25,50,100", type=_numbers(int, many=True))
    p.add_argument("--precisions", default=None)
    p.set_defaults(fn=cmd_plan_runs)

    p = sub.add_parser("bench", help="dense vs quantize/pack/int-GEMM timings")
    p.add_argument("--hidden", type=_even_int, default=2048,
                   help="model width; even, as the shapes are one full-width head's")
    p.add_argument("--batch", type=_positive_int, default=512)
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sweep-s", help="train across an outer-trust-scale grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--s-grid", default="1.0,1.1,1.2,1.3,1.4,1.5",
                   type=_numbers(float, many=True))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_sweep_s)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. A file that cannot be opened, read or written, and
    a run that diverges, end it with one line on stderr and exit 1. numpy's
    floating-point warnings are off: a value that goes non-finite is
    reported once, where a check meets it (a diverged run's one line, or a
    loss printed as nan), not as warnings ahead of that line."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.fn(args)
    except OSError as err:
        where = f"{err.filename}: " if err.filename is not None else ""
        sys.exit(f"trustquant: {where}{err.strerror or err}")
    except trainer.TrainingDiverged as err:
        sys.exit(f"trustquant: {err}")


if __name__ == "__main__":
    sys.exit(main())
