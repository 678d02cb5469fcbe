"""Scaled-down Llama-style decoder: RMSNorm, rotary attention, SwiGLU MLP.

Every projection (q/k/v/o, gate/up/down) runs through the quantized linear
layer; embedding, output head, and normalization gains are never quantized.
The MLP intermediate width is 8/3 of the hidden size padded up to a multiple
of 256. Byte-level vocabulary (256) by default.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .hadamard import HadamardPlan
from .qlinear import qlinear
from .quantizer import AlphaTable, QuantConfig
from .tensor import F32, Rng, load_tensor, read_exact, save_tensor

_CKPT_MAGIC = b"QSTM"

PROJECTION_NAMES = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")


def pad_to_multiple(x: int, multiple: int = 256) -> int:
    return ((x + multiple - 1) // multiple) * multiple


@dataclass
class ModelConfig:
    num_blocks: int
    hidden_size: int
    num_heads: int
    vocab_size: int = 256
    max_seq_len: int = 256
    rope_base: float = 10000.0
    quant: QuantConfig = field(default_factory=QuantConfig)

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden size {self.hidden_size} not divisible by {self.num_heads} heads"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def mlp_intermediate(self) -> int:
        return pad_to_multiple((8 * self.hidden_size + 2) // 3)

    def non_embedding_params(self) -> int:
        h, i = self.hidden_size, self.mlp_intermediate
        per_block = 2 * h + 4 * h * h + 3 * h * i
        return self.num_blocks * per_block + h + self.vocab_size * h

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        d = json.loads(text)
        d["quant"] = QuantConfig(**d["quant"])
        return cls(**d)


@dataclass
class ForwardTrace:
    """Side outputs of a forward pass, for diagnostics and metrics."""

    block_outputs: list = field(default_factory=list)  # residual-stream nodes
    layer_contexts: dict = field(default_factory=dict)  # name -> QLinearContext
    param_leaves: dict = field(default_factory=dict)  # name -> tape leaf


class Model:
    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params
        self.table = AlphaTable()
        self.plans = {
            cfg.hidden_size: HadamardPlan(cfg.hidden_size),
            cfg.mlp_intermediate: HadamardPlan(cfg.mlp_intermediate),
        }
        self._rope_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def is_norm_gain(self, name: str) -> bool:
        return name.endswith("norm")

    def rope_tables(self, seq_len: int):
        if seq_len not in self._rope_cache:
            half = self.cfg.head_dim // 2
            inv_freq = self.cfg.rope_base ** (-np.arange(half) * 2.0 / self.cfg.head_dim)
            angles = np.arange(seq_len)[:, None] * inv_freq[None, :]
            self._rope_cache[seq_len] = (
                np.cos(angles).astype(F32),
                np.sin(angles).astype(F32),
            )
        return self._rope_cache[seq_len]


def build(cfg: ModelConfig, rng: Rng) -> Model:
    """Initialize parameters; residual-path outputs get the depth-scaled std."""
    h, i, v = cfg.hidden_size, cfg.mlp_intermediate, cfg.vocab_size
    std = 0.02
    residual_std = 0.02 / np.sqrt(2.0 * cfg.num_blocks)
    params: dict[str, np.ndarray] = {}
    params["embedding"] = rng.normal((v, h), dtype=F32) * F32(std)
    for b in range(cfg.num_blocks):
        p = f"block{b}."
        params[p + "attn_norm"] = np.ones(h, dtype=F32)
        params[p + "wq"] = rng.normal((h, h), dtype=F32) * F32(std)
        params[p + "wk"] = rng.normal((h, h), dtype=F32) * F32(std)
        params[p + "wv"] = rng.normal((h, h), dtype=F32) * F32(std)
        params[p + "wo"] = rng.normal((h, h), dtype=F32) * F32(residual_std)
        params[p + "mlp_norm"] = np.ones(h, dtype=F32)
        params[p + "w_gate"] = rng.normal((i, h), dtype=F32) * F32(std)
        params[p + "w_up"] = rng.normal((i, h), dtype=F32) * F32(std)
        params[p + "w_down"] = rng.normal((h, i), dtype=F32) * F32(residual_std)
    params["final_norm"] = np.ones(h, dtype=F32)
    params["head"] = rng.normal((v, h), dtype=F32) * F32(std)
    return Model(cfg, params)


def _causal_mask(seq_len: int, dtype=F32) -> np.ndarray:
    mask = np.triu(np.full((seq_len, seq_len), -1e9, dtype=dtype), k=1)
    return mask[None, None, :, :]


def forward_logits(model: Model, tokens: np.ndarray, quant: QuantConfig | None = None):
    """Build the forward graph; returns (logits node, tape, trace).

    tokens: (batch, seq) integer ids, seq <= max_seq_len.
    """
    cfg = model.cfg
    quant = quant if quant is not None else cfg.quant
    tokens = np.asarray(tokens)
    batch, seq = tokens.shape
    if seq > cfg.max_seq_len:
        raise ValueError(f"sequence length {seq} exceeds max_seq_len {cfg.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ValueError("token id out of vocabulary range")

    h, nh, hd = cfg.hidden_size, cfg.num_heads, cfg.head_dim
    tape = ad.Tape()
    trace = ForwardTrace()
    leaves = {name: tape.leaf(arr) for name, arr in model.params.items()}
    cos, sin = model.rope_tables(seq)
    mask = _causal_mask(seq)
    scale = F32(1.0 / np.sqrt(hd))

    def proj(x2d, name, k):
        node, ctx = qlinear(x2d, leaves[name], quant, model.table, model.plans[k])
        trace.layer_contexts[name] = ctx
        return node

    x = ad.embedding_gather(leaves["embedding"], tokens)  # (B, S, h)
    for b in range(cfg.num_blocks):
        p = f"block{b}."
        a = ad.rmsnorm(x, leaves[p + "attn_norm"])
        a2d = ad.reshape(a, (batch * seq, h))
        q = ad.reshape(proj(a2d, p + "wq", h), (batch, seq, nh, hd))
        k = ad.reshape(proj(a2d, p + "wk", h), (batch, seq, nh, hd))
        v = ad.reshape(proj(a2d, p + "wv", h), (batch, seq, nh, hd))
        q = ad.rotary(ad.transpose(q, (0, 2, 1, 3)), cos, sin)  # (B, nh, S, hd)
        k = ad.rotary(ad.transpose(k, (0, 2, 1, 3)), cos, sin)
        v = ad.transpose(v, (0, 2, 1, 3))
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
        probs = ad.softmax(ad.add(scores, mask))
        ctxv = ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3))  # (B, S, nh, hd)
        o = proj(ad.reshape(ctxv, (batch * seq, h)), p + "wo", h)
        x = ad.add(x, ad.reshape(o, (batch, seq, h)))

        m = ad.rmsnorm(x, leaves[p + "mlp_norm"])
        m2d = ad.reshape(m, (batch * seq, h))
        gate = proj(m2d, p + "w_gate", h)
        up = proj(m2d, p + "w_up", h)
        act = ad.mul(ad.silu(gate), up)
        down = proj(act, p + "w_down", cfg.mlp_intermediate)
        x = ad.add(x, ad.reshape(down, (batch, seq, h)))
        trace.block_outputs.append(x)

    final = ad.rmsnorm(x, leaves["final_norm"])
    logits = ad.matmul(
        ad.reshape(final, (batch * seq, h)), ad.transpose(leaves["head"], (1, 0))
    )
    trace.param_leaves = leaves
    return ad.reshape(logits, (batch, seq, cfg.vocab_size)), tape, trace


def forward_loss(model: Model, tokens: np.ndarray, quant: QuantConfig | None = None):
    """Next-token cross-entropy over a (batch, window) token batch.

    Positions :-1 predict positions 1:, mean over all predicted tokens.
    Returns (loss node, tape, trace).
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise ValueError("token batch must be (batch, window>=2)")
    inputs, targets = tokens[:, :-1], tokens[:, 1:]
    logits, tape, trace = forward_logits(model, inputs, quant)
    batch, seq = inputs.shape
    flat = ad.reshape(logits, (batch * seq, model.cfg.vocab_size))
    loss = ad.cross_entropy_with_logits(flat, targets.reshape(-1))
    return loss, tape, trace


# --- checkpoint io ------------------------------------------------------------

def save_checkpoint(model: Model, path) -> None:
    header = model.cfg.to_json().encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<I", len(model.params)))
        for name, arr in model.params.items():
            encoded = name.encode()
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            save_tensor(f, arr)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as f:
        if f.read(4) != _CKPT_MAGIC:
            raise ValueError(f"not a model checkpoint: {path}")
        (header_len,) = struct.unpack("<I", read_exact(f, 4, "header length", "checkpoint"))
        cfg = ModelConfig.from_json(read_exact(f, header_len, "header", "checkpoint").decode())
        (count,) = struct.unpack("<I", read_exact(f, 4, "parameter count", "checkpoint"))
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read_exact(f, 2, "name length", "checkpoint"))
            name = read_exact(f, name_len, "name", "checkpoint").decode()
            params[name] = load_tensor(f)
    return Model(cfg, params)
