"""Scaled-down Llama-style decoder: RMSNorm, rotary attention, SwiGLU MLP.

Every projection (q/k/v/o, gate/up/down) runs through the quantized linear
layer under the model's `cfg.quant`; embedding, output head, and
normalization gains are never quantized. Projections that read one
activation form one `qlinear` group, (wq, wk, wv) on the attention norm and
(w_gate, w_up) on the MLP norm, so that activation is transformed and
projected once; wo and w_down are groups of one. Each weight keeps its own
tape node and backward.
Between the projections each block records two fused tape ops:
`ad.causal_attention` takes the (B, S, h) q, k and v outputs and returns
the merged (B, S, h) context, with the head split, rotary, scaled causal
softmax and head merge inside one node; `ad.swiglu` takes gate and up.
The MLP intermediate width is 8/3 of the hidden size padded up to a multiple
of 256. Byte-level vocabulary (256) by default.

Parameters are read-only values: `build` and `load_checkpoint` return
read-only arrays, and the optimizer replaces an array rather than writing
into it. So a `Model` keeps each projection weight's transformed and
projected operand (`Model.operand`: grid values and the trust mask packed
one bit per coordinate) while `params[name]` is the array it was made from,
and an eval pass, which never changes the weights, transforms and projects
only activations after its first batch. `forward_logits` asks for every
weight's operand before it computes the first activation, so the long-lived
operands are allocated ahead of the pass's short-lived buffers.

The forward keeps only what a backward reads. Each block releases
(`ad.Tape.release`) the value of an intermediate once its last forward
reader has run. A projection group consumes its input, which no backward
reads (`qlinear` releases it, and a tiled projection writes its grid
values over it): the attention norm's and the MLP norm's outputs, the
attention output and the SwiGLU output. Besides those, q and k go after
the attention, o after the residual add and down after the second add.
Their nodes stay on the tape with `.value` None. What stays alive is what
the backward closures hold: each projected activation as its uint8 grid
codes and per-group rescale (a quarter of its float32 bytes), the weight
operands, the bit-packed trust masks, v, gate and up, the rotated q and k
and the attention probabilities, the sigmoid of gate and the residual
stream.

A checkpoint is one numpy .npz whose first member, "config", holds the
ModelConfig JSON as a 0-d string array, then every parameter in
`Model.params` order; zip's CRC-32 covers each member's payload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import tokenize
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .qlinear import qlinear, weight
from .quantizer import QuantConfig
from .tensor import F32, Rng, require_count, require_real

_CONFIG = "config"  # the checkpoint member that holds the ModelConfig JSON
MLP_PAD = 256  # the MLP intermediate width is a multiple of this


def pad_to_multiple(x: int) -> int:
    """x rounded up to a multiple of MLP_PAD."""
    return ((x + MLP_PAD - 1) // MLP_PAD) * MLP_PAD


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
        for name in ("num_blocks", "hidden_size", "num_heads", "vocab_size", "max_seq_len"):
            require_count(name, getattr(self, name))
        require_real("rope_base", self.rope_base)
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden size {self.hidden_size} not divisible by {self.num_heads} heads"
            )
        if self.head_dim % 2:  # rotary turns each head's dimensions in pairs
            raise ValueError(f"head dimension {self.head_dim} must be even")
        if not isinstance(self.quant, QuantConfig):  # a dict, as parsed from JSON
            self.quant = QuantConfig(**self.quant)
        if self.max_seq_len < 2:
            raise ValueError(f"max_seq_len {self.max_seq_len} is below 2: a window predicts "
                             f"its next token")
        if self.quant.format != "none":  # the projected widths k: hidden and MLP inputs
            for k in (self.hidden_size, self.mlp_intermediate):
                group = self.quant.group_size or k
                if k % group:
                    raise ValueError(f"quant.group_size {group} does not divide the "
                                     f"projected width {k}")
                if self.quant.format == "int4-sparse-2of4" and group % 4:
                    raise ValueError(f"2:4 sparsity needs scale groups of a multiple of 4, "
                                     f"got {group} at width {k}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def mlp_intermediate(self) -> int:
        """8/3 of the hidden size, padded up to a multiple of MLP_PAD."""
        return pad_to_multiple((8 * self.hidden_size + 2) // 3)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's name and shape, in `build` (and checkpoint) order."""
        h, i, v = self.hidden_size, self.mlp_intermediate, self.vocab_size
        block = {"attn_norm": (h,), "wq": (h, h), "wk": (h, h), "wv": (h, h), "wo": (h, h),
                 "mlp_norm": (h,), "w_gate": (i, h), "w_up": (i, h), "w_down": (h, i)}
        shapes = {"embedding": (v, h)}
        for b in range(self.num_blocks):
            shapes.update({f"block{b}.{name}": shape for name, shape in block.items()})
        return {**shapes, "final_norm": (h,), "head": (v, h)}

    def non_embedding_params(self) -> int:
        return sum(math.prod(shape) for name, shape in self.param_shapes().items()
                   if name != "embedding")

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        """ValueError for text that is not the JSON of a ModelConfig."""
        fields = json.loads(text)
        if not isinstance(fields, dict):
            raise ValueError(f"config JSON is a {type(fields).__name__}, not an object")
        try:
            return cls(**fields)
        except TypeError as err:  # a key that ModelConfig or QuantConfig does not take
            raise ValueError(f"bad config: {err}") from err


@dataclass
class ForwardTrace:
    """Side outputs of a forward pass, for diagnostics and metrics."""

    block_outputs: list = field(default_factory=list)  # residual-stream nodes
    layer_contexts: dict = field(default_factory=dict)  # name -> QLinearContext
    param_leaves: dict = field(default_factory=dict)  # name -> tape leaf


class Model:
    """A config and its parameters by name. Parameters made by `build` and
    `load_checkpoint` are read-only; replace an array to change it."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params
        self._operands: dict[str, tuple] = {}  # name -> (weight array, its operand)

    def operand(self, name: str):
        """`qlinear.weight` of params[name] under cfg.quant. For a read-only
        array that owns its memory it is computed once and kept, read-only,
        while params[name] is that array; a writeable array or a view is
        transformed and projected on every call."""
        w = self.params[name]
        held, operand = self._operands.pop(name, (None, None))
        if w.flags.writeable or not w.flags.owndata:
            return weight(w, self.cfg.quant)
        if held is not w:
            operand = weight(w, self.cfg.quant)
            for a in operand:
                if a is not None:  # an unprojected weight saves no mask
                    a.flags.writeable = False
        self._operands[name] = w, operand
        return operand

    @staticmethod
    def is_norm_gain(name: str) -> bool:
        return name.endswith("norm")


def rope_tables(cfg: ModelConfig, seq_len: int):
    """Rotary (cos, sin) tables, seq_len x head_dim/2."""
    half = cfg.head_dim // 2
    inv_freq = cfg.rope_base ** (-np.arange(half) * 2.0 / cfg.head_dim)
    angles = np.arange(seq_len)[:, None] * inv_freq[None, :]
    return np.cos(angles).astype(F32), np.sin(angles).astype(F32)


def build(cfg: ModelConfig, rng: Rng) -> Model:
    """Initialize parameters: norm gains at 1, weights normal with std 0.02,
    and the residual-path outputs (wo, w_down) with the depth-scaled std.
    Every array is read-only."""
    residual_std = 0.02 / np.sqrt(2.0 * cfg.num_blocks)
    params: dict[str, np.ndarray] = {}
    for name, shape in cfg.param_shapes().items():
        if Model.is_norm_gain(name):
            params[name] = np.ones(shape, dtype=F32)
        else:
            std = residual_std if name.endswith(("wo", "w_down")) else 0.02
            params[name] = rng.normal(shape, dtype=F32)
            params[name] *= F32(std)
        params[name].flags.writeable = False
    return Model(cfg, params)


def forward_logits(model: Model, tokens: np.ndarray):
    """Build the forward graph; returns (logits node, tape, trace).

    tokens: (batch, seq) integer ids, seq <= max_seq_len.
    """
    cfg = model.cfg
    tokens = np.asarray(tokens)
    batch, seq = tokens.shape
    if seq > cfg.max_seq_len:
        raise ValueError(f"sequence length {seq} exceeds max_seq_len {cfg.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ValueError("token id out of vocabulary range")

    # every projection weight's operand first: the model keeps them past the pass
    operands = {name: model.operand(name) for name in model.params
                if name.startswith("block") and not Model.is_norm_gain(name)}
    tape = ad.Tape()
    leaves = {name: tape.leaf(arr) for name, arr in model.params.items()}
    trace = ForwardTrace(param_leaves=leaves)
    cos, sin = rope_tables(cfg, seq)

    def proj(x, *names):
        """One output node per named weight; the weights share x's operand,
        and `qlinear` consumes x."""
        outs = qlinear(x, [leaves[name] for name in names], cfg.quant,
                       [operands[name] for name in names])
        for name, (_, ctx) in zip(names, outs):
            trace.layer_contexts[name] = ctx
        return [node for node, _ in outs]

    x = ad.embedding_gather(leaves["embedding"], tokens)  # (B, S, h)
    for b in range(cfg.num_blocks):
        p = f"block{b}."
        q, k, v = proj(ad.rmsnorm(x, leaves[p + "attn_norm"]), p + "wq", p + "wk", p + "wv")
        attended = ad.causal_attention(q, k, v, cos, sin)
        tape.release(q, k)
        (o,) = proj(attended, p + "wo")
        x = ad.add(x, o)
        tape.release(o)

        gate, up = proj(ad.rmsnorm(x, leaves[p + "mlp_norm"]), p + "w_gate", p + "w_up")
        (down,) = proj(ad.swiglu(gate, up), p + "w_down")
        x = ad.add(x, down)
        tape.release(down)
        trace.block_outputs.append(x)

    final = ad.rmsnorm(x, leaves["final_norm"])
    logits = ad.matmul(
        ad.reshape(final, (batch * seq, cfg.hidden_size)), ad.transpose(leaves["head"], (1, 0))
    )
    return ad.reshape(logits, (batch, seq, cfg.vocab_size)), tape, trace


def forward_loss(model: Model, tokens: np.ndarray):
    """Next-token cross-entropy over a (batch, window) token batch.

    Positions :-1 predict positions 1:, mean over all predicted tokens.
    Returns (loss node, tape, trace).
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise ValueError("token batch must be (batch, window>=2)")
    inputs, targets = tokens[:, :-1], tokens[:, 1:]
    logits, tape, trace = forward_logits(model, inputs)
    loss = ad.cross_entropy_with_logits(logits, targets)
    return loss, tape, trace


# --- checkpoint io ------------------------------------------------------------

def save_checkpoint(model: Model, path) -> None:
    """Write `model` to `path`.tmp, then move it over `path` once complete
    and synced, so a failed write leaves the previous file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:  # given a path, np.savez would append ".npz"
            np.savez(f, **{_CONFIG: np.array(model.cfg.to_json())}, **model.params)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the write's own error is the one to report
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by save_checkpoint; its parameters are
    read-only arrays. OSError if `path` cannot be opened; ValueError for a
    file that does not decode as a checkpoint (an OSError while decoding
    included) or whose parameter names and shapes differ from those its
    config defines."""
    with open(path, "rb") as f:
        try:
            with np.load(f, allow_pickle=False) as npz:
                # np.load can stop short of a member's end, where zip checks the CRC
                if (bad := npz.zip.testzip()) is not None:
                    raise ValueError(f"member {bad!r} fails its CRC check")
                cfg = ModelConfig.from_json(str(npz[_CONFIG]))
                # np.load hands back views; a copy owns its memory, which
                # `Model.operand` asks of an array it keeps an operand for
                params = {name: npz[name].copy() for name in npz.files if name != _CONFIG}
        except (EOFError, KeyError, NotImplementedError, OSError, SyntaxError, ValueError,
                tokenize.TokenError, zipfile.BadZipFile) as err:
            raise ValueError(f"not a model checkpoint: {path} ({err})") from err
    want = cfg.param_shapes()
    got = {name: p.shape for name, p in params.items()}
    if got != want:
        name = next(n for n in [*want, *got] if want.get(n) != got.get(n))
        problem = ("missing" if name not in got else "unexpected" if name not in want
                   else f"shape {got[name]}, expected {want[name]}")
        raise ValueError(f"not a model checkpoint: {path} (parameter {name!r}: {problem})")
    for p in params.values():
        p.flags.writeable = False
    return Model(cfg, params)
