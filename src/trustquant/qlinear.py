"""Quantized linear layer: transform, project, multiply; masked backward.

Forward: x_h = HT(x); x_hat_h = proj(x_h); w_h = HT(w); w_hat_h = proj(w_h);
y = x_hat_h @ w_hat_h^T. Format "none" projects neither operand and
weight_only leaves x unprojected; an operand that is not projected passes
through unchanged and saves no trust mask (None: every coordinate trusted).
The transform and the projection run along the shared inner axis k, the last
axis of both operands, so its length comes from the operands.

The context carries what the backward needs, and no float copy of a
projected activation: x's side as a `SavedActivation` (the operand itself
when x is not projected; else its uint8 grid codes and per-group rescale r,
a quarter of float32's bytes), w_hat_h, the two trust masks, and whether
the layer ran the transform. The backward rebuilds x_hat_h from the codes
(`quantizer.grid_values`, bitwise equal to the projection's values), a row
tile at a time, just before dL/dy^T @ x_hat_h; `QLinearContext.x_hat_h`
reads the same rebuild. The weight side stays float, since
`model.Model.operand` reuses it on every forward.

A saved trust mask is one bit per coordinate: `np.packbits` along k, a
uint8 array of ceil(k/8) bytes per row (`bits_x`, `bits_w`). The backward
unpacks it a row tile at a time just before the multiply, and the
context's `mask_x` and `mask_w` read it as a read-only dense bool array.

The tape op `qlinear(x, ws, cfg, w_operands)` takes a group of weights that
read one activation x, held as (..., k), and each weight's operand from
`weight`. It transforms and projects x once and hands that shared operand
to `forward` for each weight, so a group costs one x transform and
projection however many weights it has, and still one matmul and one tape
node per weight. The contexts of a group share one `SavedActivation`. The
tape runs their backwards back to back, so they share one rebuild, dropped
after the last of them has read it; the tape sums the x-gradients.
`qlinear` consumes x, which no backward reads: it releases x's node (its
`.value` becomes None). When x is an op's output that owns its memory, as
every projection input of `model` is, the projection also writes over it:
the transform of an operand that fits in one tile, and on the tiled path
each tile's grid values over that tile's rows, so the group's matmuls read
x's own memory and the forward allocates no full-size float buffer for
them. No other op may read such an x. A leaf's array, or a view, is left
as it is.

A weight's side, (w_hat_h, bits_w) from `weight(w, cfg)`, depends on w and
cfg alone, so a caller that runs one weight many times computes it once
(`model.Model.operand` does).

A projected operand of more than TILE elements (2^17, 512 KB of float32) is
transformed, projected, trust-masked and packed one row tile at a time, so
each tile's buffers stay in L2, and the tiles are written into one
preallocated set of outputs. Scale groups, HT blocks, 2:4 groups and the
NaN and zero-RMS handling all lie along k, so the bits equal the
whole-array result. An operand that fits in one tile takes the whole-array
path and no copy. The backward's rebuild, mask multiply and IHT run on the
same row tiles (`_tiles`), the last two in place on the gradients, so they
allocate no full-size buffers beyond the rebuilt x_hat_h, whose memory the
group's last backward takes for its x-gradient.

Backward (trust estimator): dL/dx = IHT(M_x * (dL/dy @ w_hat_h)) and
dL/dw = IHT(M_w * (dL/dy^T @ x_hat_h)), all products in full precision.
The straight-through estimator (STE) is this backward over a context with
no masks. Masks are saved from the forward pass, never recomputed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .autodiff import Node
from .hadamard import ht, iht
from .quantizer import QuantConfig, grid_values, project

# elements in one row tile of a projected operand: 512 KB of float32, so the
# tile's transform and projection buffers stay in a 2 MB L2
TILE = 1 << 17


class SavedActivation:
    """x's side of a layer for the backward, shared by a `qlinear` group's
    contexts. An operand that is not projected is kept as is (`values`,
    with `codes` None); a projected one as its uint8 grid codes and
    per-group rescale under `cfg` (`quantizer.ProjectionResult`). Each
    context counts one reader. `read` hands the float operand to one
    backward: the group's readers share one rebuild, held in `values` until
    the last of them has read it."""

    def __init__(self, values=None, codes=None, rescale=None, cfg=None):
        self.values, self.codes, self.rescale, self.cfg = values, codes, rescale, cfg
        self.readers = 0

    @property
    def shape(self):
        return (self.values if self.codes is None else self.codes).shape

    def peek(self) -> np.ndarray:
        """The float operand, rebuilt a row tile at a time if no reader holds
        it; counts no read."""
        if self.values is not None:
            return self.values
        out = np.empty(self.codes.shape, self.rescale.dtype)
        rows, codes, rescale = (a.reshape(-1, a.shape[-1]) for a in (out, self.codes, self.rescale))
        for tile in _tiles(rows):
            grid_values(codes[tile], rescale[tile], self.cfg, rows[tile])
        return out

    def read(self):
        """(the float operand, whether it is spent) for one reader's
        backward: the last reader of a rebuild may write over it."""
        values = self.peek()
        self.readers -= 1
        spent = self.codes is not None and self.readers <= 0
        if self.codes is not None:
            self.values = None if spent else values
        return values, spent


@dataclass
class QLinearContext:
    """Saved forward state for the backward: x's side (batch x k, in the
    transform domain), the n x k row-major quantized weights (transform
    domain), their trust masks packed along k (None when all-true), and
    whether the transform ran. `x_hat_h` reads x's float operand without
    counting a read, and `mask_x` and `mask_w` read a mask as a read-only
    bool array of its operand's shape."""

    x: SavedActivation
    w_hat_h: np.ndarray
    bits_x: np.ndarray | None
    bits_w: np.ndarray | None
    hadamard: bool

    x_hat_h = property(lambda self: self.x.peek())
    mask_x = property(lambda self: _unpacked(self.bits_x, self.x.shape))
    mask_w = property(lambda self: _unpacked(self.bits_w, self.w_hat_h.shape))


# `np.packbits` and `np.unpackbits` along an axis run a short loop per row,
# about twice the time of one flat run; rows of whole bytes take the flat run,
# which gives the same bytes

def _packed(mask: np.ndarray) -> np.ndarray:
    """`mask` packed along its last axis k, ceil(k/8) bytes a row."""
    if mask.shape[-1] % 8:
        return np.packbits(mask, axis=-1)
    return np.packbits(mask.reshape(-1)).reshape(mask.shape[:-1] + (mask.shape[-1] // 8,))


def _unpacked(bits: np.ndarray | None, shape) -> np.ndarray:
    """The read-only bool mask of `shape` that `bits` packs; all-true for None."""
    if bits is None:
        return np.broadcast_to(True, shape)
    if shape[-1] % 8:
        mask = np.unpackbits(bits, axis=-1, count=shape[-1])
    else:
        mask = np.unpackbits(bits.reshape(-1)).reshape(shape)
    mask = mask.view(bool)
    mask.flags.writeable = False
    return mask


def forward(x: np.ndarray, w: np.ndarray, cfg: QuantConfig, *, operands=None):
    """Run the quantized layer; returns (y, context).

    x is batch x k, w is n x k (row-major); y is batch x n. `operands` is
    (x's operand from `activation(x, cfg)`, w's from `weight(w, cfg)`), for a
    caller that already holds them; by default both are computed here.
    """
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"expected 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"inner dimensions disagree: {x.shape} x {w.shape}")
    (x_hat, saved, bits_x), (w_hat, bits_w) = operands or (activation(x, cfg), weight(w, cfg))
    saved.readers += 1
    return x_hat @ w_hat.T, QLinearContext(saved, w_hat, bits_x, bits_w, cfg.hadamard)


def activation(x: np.ndarray, cfg: QuantConfig):
    """x's side of the layer, (x_hat_h, SavedActivation, bits_x):
    transformed and projected along k as cfg says. It depends on x alone,
    so weights that read one x can share it."""
    return _activation(x, cfg, None)


def _activation(x: np.ndarray, cfg: QuantConfig, out):
    """`activation`, writing a tiled projection's values into `out` (None: a
    fresh array)."""
    if cfg.format == "none" or cfg.weight_only:
        x_hat = ht(x) if cfg.hadamard else x
        return x_hat, SavedActivation(x_hat), None
    x_hat, codes, rescale, bits = _projected(x, cfg, out)
    return x_hat, SavedActivation(codes=codes, rescale=rescale, cfg=cfg), bits


def weight(w: np.ndarray, cfg: QuantConfig):
    """w's side of the layer, (w_hat_h, bits_w), transformed and projected
    along k as cfg says."""
    if cfg.format == "none":
        return (ht(w) if cfg.hadamard else w), None
    values, _, _, bits = _projected(w, cfg, None, with_codes=False)
    return values, bits


def _projected(a: np.ndarray, cfg: QuantConfig, out, with_codes: bool = True):
    """(grid values, codes, rescale, trust mask packed along k) of `a`,
    transformed along k when cfg says so, in row tiles past TILE elements:
    each tile's values go into `out` (None: a fresh array), which may be `a`
    itself, since a tile is read before its rows are written. The
    transform runs into the same rows first."""
    if a.size <= TILE:
        p = project(ht(a, out) if cfg.hadamard else a, cfg, with_codes=with_codes)
        return p.values, p.codes, p.rescale, _packed(p.trust_mask)
    rows = a.reshape(-1, a.shape[-1])
    values = np.empty(rows.shape, a.dtype) if out is None else out.reshape(rows.shape)
    codes = np.empty(rows.shape, np.uint8) if with_codes else None
    rescale = np.empty((len(rows), rows.shape[1] // (cfg.group_size or rows.shape[1])), a.dtype)
    bits = np.empty((len(rows), -(-rows.shape[1] // 8)), np.uint8)
    for tile in _tiles(rows):
        p = project(ht(rows[tile], values[tile]) if cfg.hadamard else rows[tile], cfg,
                    with_codes=with_codes)
        values[tile], rescale[tile], bits[tile] = p.values, p.rescale, _packed(p.trust_mask)
        if with_codes:
            codes[tile] = p.codes
    lead = a.shape[:-1]
    return (values.reshape(a.shape), codes.reshape(a.shape) if with_codes else None,
            rescale.reshape(lead + rescale.shape[-1:]), bits.reshape(lead + bits.shape[-1:]))


def _tiles(rows: np.ndarray):
    """Row slices of a 2-D array, TILE elements each (at least one row)."""
    n, step = len(rows), max(1, TILE // rows.shape[1])
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def backward(ctx: QLinearContext, grad_y: np.ndarray):
    """Trust-estimator backward: masked in the transform domain, then IHT."""
    if ctx is None:
        raise ValueError("missing qlinear context")
    if grad_y.shape != (ctx.x.shape[0], ctx.w_hat_h.shape[0]):
        raise ValueError(
            f"upstream gradient shape {grad_y.shape} does not match "
            f"y shape {(ctx.x.shape[0], ctx.w_hat_h.shape[0])}"
        )
    x_hat, spent = ctx.x.read()
    grad_w = grad_y.T @ x_hat
    # a spent rebuild, still in cache, takes grad_x, which has its shape
    reuse = spent and np.result_type(grad_y, ctx.w_hat_h) == x_hat.dtype
    grad_x = np.matmul(grad_y, ctx.w_hat_h, out=x_hat if reuse else None)
    for grad, bits in ((grad_x, ctx.bits_x), (grad_w, ctx.bits_w)):
        for tile in _tiles(grad):  # in place, a row tile at a time
            if bits is not None:  # bool multiply zeroes masked coordinates exactly
                grad[tile] *= _unpacked(bits[tile], grad[tile].shape)
            if ctx.hadamard:
                iht(grad[tile], out=grad[tile])
    return grad_x, grad_w


def ste_backward(ctx: QLinearContext, grad_y: np.ndarray):
    """Straight-through backward: the trust backward with no masks."""
    return backward(dataclasses.replace(ctx, bits_x=None, bits_w=None), grad_y)


def qlinear(x: Node, ws, cfg: QuantConfig, w_operands):
    """Tape registration of a group of layers that read one activation;
    backward follows cfg.estimator.

    x is (..., k); each weight in `ws` is n_i x k and its output (..., n_i).
    `w_operands` holds each weight's operand from `weight`. Returns one
    (output node, context) per weight, in order. x is transformed and
    projected once for the whole group, and consumed: its node is released,
    and if x is an op's output that owns its memory, the projection writes
    over it, so no other op may read x.
    """
    owned = x.parents and x.value.base is None and x.value.flags.writeable
    x2 = x.value.reshape((-1,) + x.shape[-1:])
    x.tape.release(x)
    operand = _activation(x2, cfg, x2 if owned else None)
    estimator = backward if cfg.estimator == "trust" else ste_backward
    return [_record(x, w, *forward(x2, w.value, cfg, operands=(operand, w_operand)), estimator)
            for w, w_operand in zip(ws, w_operands)]


def _record(x: Node, w: Node, y: np.ndarray, ctx: QLinearContext, estimator):
    y_shape, x_shape = y.shape, x.shape  # the backward reads shapes: y and x may be released

    def backward_fn(g):
        grad_x, grad_w = estimator(ctx, g.reshape(y_shape))
        return grad_x.reshape(x_shape), grad_w

    node = x.tape.record(y.reshape(x_shape[:-1] + y_shape[1:]), (x, w), backward_fn)
    return node, ctx
