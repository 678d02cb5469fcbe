"""AdamW training loop: cosine schedule with linear warmup, global-norm
clipping, byte-level data ingestion, JSONL metrics, checkpointing.

Master weights stay full-precision; quantization only ever touches the
forward/backward views inside the quantized linear layers. Parameters are
read-only values: each AdamW step replaces every parameter array with a new
read-only one and never writes into the old, so the quantized operand a
model keeps for a weight (`Model.operand`) always belongs to the values it
was made from. Weight decay is decoupled and skipped for normalization gains
(the architecture has no biases). Runs are deterministic given the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import mask_fraction
from .model import Model, forward_loss, save_checkpoint
from .tensor import Rng, require_count, require_real

# Table of published (size -> peak LR) anchors; between anchors the helper
# interpolates as peak_lr ~ 1/N calibrated at the 100M row.
LR_ANCHORS = {
    30e6: 1.2e-3,
    50e6: 1.2e-3,
    100e6: 6e-4,
    200e6: 3e-4,
    430e6: 1.5e-4,
    800e6: 7.5e-5,
}


# Every run uses one AdamW setup and one warmup length.
ADAM_BETAS = (0.90, 0.95)
ADAM_EPS = 1e-8
WARMUP_FRAC = 0.10
EVAL_BATCH = 16  # windows per forward pass in eval_loss
EVAL_WINDOWS = 8  # corpus windows held out for mid-run eval_loss when eval_interval > 0


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    peak_lr: float
    total_steps: int
    batch_tokens: int
    data_path: str = ""
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    seed: int = 0
    eval_interval: int = 0  # 0 disables mid-run eval rows

    def __post_init__(self):
        require_real("peak_lr", self.peak_lr, positive=False)
        require_real("weight_decay", self.weight_decay, positive=False)
        require_real("clip_norm", self.clip_norm)
        require_count("total_steps", self.total_steps)
        require_count("batch_tokens", self.batch_tokens)
        require_count("eval_interval", self.eval_interval, low=0)


def held_out_windows(cfg: TrainConfig) -> int:
    """How many of the corpus's first windows a run holds out for mid-run
    eval_loss: EVAL_WINDOWS with eval_interval > 0, else none."""
    return EVAL_WINDOWS if cfg.eval_interval else 0


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup 0 -> peak over WARMUP_FRAC * total, cosine decay to 0."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    warm = WARMUP_FRAC * cfg.total_steps
    if step <= warm:
        return cfg.peak_lr * step / warm
    progress = (step - warm) / (cfg.total_steps - warm)
    return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def peak_lr_for(n_params: float) -> float:
    """Published LR at its listed sizes; 1/N interpolation elsewhere."""
    for anchor, lr in LR_ANCHORS.items():
        if abs(n_params - anchor) <= 0.01 * anchor:
            return lr
    return 6e4 / n_params


# --- optimizer ---------------------------------------------------------------

@dataclass
class AdamWState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    cfg: TrainConfig,
    skip_decay=(),
) -> None:
    """Decoupled-weight-decay Adam update. It replaces each `params[name]`
    with a new read-only array and writes into no parameter; the moments
    in `state` update in place. The gradients must be finite; `train_step`
    checks their global norm before calling this."""
    beta1, beta2 = ADAM_BETAS
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        m_hat = m / bc1
        v_hat = v / bc2
        new = p - (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype, copy=False)
        if cfg.weight_decay and name not in skip_decay:
            new *= 1.0 - lr * cfg.weight_decay
        new.flags.writeable = False
        params[name] = new


def clip_grad_norm(grads: dict[str, np.ndarray], threshold: float = 1.0):
    """Scale all gradients by threshold/norm when the global L2 norm exceeds
    the threshold. Returns (grads, pre-clip norm)."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = math.sqrt(total)
    if norm > threshold:
        factor = threshold / norm
        for g in grads.values():
            g *= g.dtype.type(factor)
    return grads, norm


# --- data ---------------------------------------------------------------------

def ingest(path, seq_len: int) -> np.ndarray:
    """Bytes of `path` as token ids, chunked into floor(len/seq_len) windows."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw:
        raise ValueError(f"empty corpus: {path}")
    ids = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    count = len(ids) // seq_len
    if count == 0:
        raise ValueError(f"corpus shorter than one {seq_len}-token window")
    return ids[: count * seq_len].reshape(count, seq_len)


class BatchStream:
    """Cycles over windows in a seeded shuffled order, epoch by epoch.

    An epoch is len(windows) // batch_size batches cut from one permutation,
    so it draws each window at most once, and exactly once when batch_size
    divides the window count; otherwise the len(windows) % batch_size
    windows at the permutation's end sit that epoch out.
    """

    def __init__(self, windows: np.ndarray, batch_size: int, seed: int):
        if not 1 <= batch_size <= len(windows):
            raise ValueError(f"batch size {batch_size} is not between 1 and {len(windows)} windows")
        self.windows = windows
        self.batch_size = batch_size
        self.rng = Rng(seed)
        self._order = self.rng.permutation(len(windows))
        self._pos = 0

    def next_batch(self) -> np.ndarray:
        if self._pos + self.batch_size > len(self._order):
            self._order = self.rng.permutation(len(self.windows))
            self._pos = 0
        idx = self._order[self._pos: self._pos + self.batch_size]
        self._pos += self.batch_size
        return self.windows[idx]


# --- training loop --------------------------------------------------------------

def eval_loss(model: Model, windows: np.ndarray) -> float:
    """Token-weighted mean cross-entropy over all windows; ValueError for
    none."""
    if len(windows) == 0:
        raise ValueError("eval_loss got an empty window set: nothing to score")
    total, count = 0.0, 0
    for start in range(0, len(windows), EVAL_BATCH):
        batch = windows[start: start + EVAL_BATCH]
        loss = float(forward_loss(model, batch)[0].value)  # the batch's graph is freed here
        tokens = batch.shape[0] * (batch.shape[1] - 1)
        total += loss * tokens
        count += tokens
    return total / count


def train_step(model: Model, batch: np.ndarray, state: AdamWState, lr: float,
               cfg: TrainConfig):
    """One optimizer step on `batch`: forward, backward, clip, AdamW.

    Returns (loss, pre-clip grad norm, forward trace). A non-finite loss
    (before backward) or gradient norm (before AdamW) raises
    TrainingDiverged, leaving params and state as they were.
    """
    loss, tape, trace = forward_loss(model, batch)
    loss_val = float(loss.value)
    if not math.isfinite(loss_val):
        raise TrainingDiverged(f"non-finite loss {loss_val} at optimizer step {state.step}")
    tape.backward(loss)
    grads = {name: trace.param_leaves[name].grad for name in model.params}
    grads, grad_norm = clip_grad_norm(grads, cfg.clip_norm)
    if not math.isfinite(grad_norm):
        raise TrainingDiverged(
            f"non-finite gradient norm {grad_norm} at optimizer step {state.step}")
    skip_decay = {n for n in model.params if model.is_norm_gain(n)}
    adamw_step(model.params, grads, state, lr, cfg, skip_decay)
    return loss_val, grad_norm, trace


def steps(model: Model, cfg: TrainConfig, windows: np.ndarray):
    """The training loop: cfg.total_steps optimizer steps on seeded batches
    of `windows`. Yields (step, lr, loss, pre-clip grad norm, forward trace)
    after each update; TrainingDiverged propagates from the failing step."""
    stream = BatchStream(windows, cfg.batch_tokens // model.cfg.max_seq_len, cfg.seed)
    state = AdamWState()
    for step in range(cfg.total_steps):
        lr = lr_at(step, cfg)
        loss, grad_norm, trace = train_step(model, stream.next_batch(), state, lr, cfg)
        yield step, lr, loss, grad_norm, trace


def train(model: Model, cfg: TrainConfig, out_dir) -> list[dict]:
    """Run the loop; emits metrics.jsonl and model.ckpt under out_dir.

    With eval_interval > 0, every eval_interval-th record gains eval_loss
    over the corpus's first EVAL_WINDOWS windows, which training then never
    draws.
    Returns the list of per-step metric records. Aborts on divergence with
    the last good checkpoint saved.
    """
    os.makedirs(out_dir, exist_ok=True)
    windows = ingest(cfg.data_path, model.cfg.max_seq_len)
    held_out = held_out_windows(cfg)
    eval_batch, windows = windows[:held_out], windows[held_out:]
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    records = []

    with open(metrics_path, "w") as out:
        try:
            for step, lr, loss_val, grad_norm, trace in steps(model, cfg, windows):
                record = {
                    "step": step,
                    "lr": lr,
                    "loss": loss_val,
                    "grad_norm": grad_norm,
                    "untrusted_fraction": {
                        name: mask_fraction(ctx.mask_w)
                        for name, ctx in trace.layer_contexts.items()
                    },
                }
                if cfg.eval_interval and (step + 1) % cfg.eval_interval == 0:
                    record["eval_loss"] = eval_loss(model, eval_batch)
                records.append(record)
                out.write(json.dumps(record) + "\n")
        except TrainingDiverged as err:
            save_checkpoint(model, ckpt_path)
            raise TrainingDiverged(  # one record per finished step
                f"training diverged at step {len(records)} ({err}); "
                f"last good checkpoint at {ckpt_path}"
            ) from err

    save_checkpoint(model, ckpt_path)
    return records
