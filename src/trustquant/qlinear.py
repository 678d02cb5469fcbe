"""Quantized linear layer: transform, project, multiply; masked backward.

Forward: x_h = HT(x); x_hat_h = proj(x_h); w_h = HT(w); w_hat_h = proj(w_h);
y = x_hat_h @ w_hat_h^T. Format "none" projects neither operand and
weight_only leaves x unprojected; an operand that is not projected passes
through unchanged and saves no trust mask (None: every coordinate trusted).
The transform and the projection run along the shared inner axis k, the last
axis of both operands, so its length comes from the operands. The context
carries exactly what the backward needs: y's operands x_hat_h and w_hat_h,
the two trust masks, and whether the layer ran the transform.

A saved trust mask is one bit per coordinate: `np.packbits` along k, a
uint8 array of ceil(k/8) bytes per row (`bits_x`, `bits_w`). The backward
unpacks it a row tile at a time just before the multiply, and the
context's `mask_x` and `mask_w` read it as a read-only dense bool array.

The tape op `qlinear(x, ws, cfg, w_operands)` takes a group of weights that
read one activation x, held as (..., k), and each weight's operand from
`weight`. It transforms and projects x once and hands that shared operand
(x_hat_h, bits_x) to `forward` for each weight, so a group costs one x
transform and projection however many weights it has, and still one matmul
and one tape node per weight. The contexts of a group share the x_hat_h and
bits_x arrays; nothing writes to them after the forward. The backward is per
weight and unchanged, and the tape sums the x-gradients.

A weight's side, (w_hat_h, bits_w) from `weight(w, cfg)`, depends on w and
cfg alone, so a caller that runs one weight many times computes it once
(`model.Model.operand` does).

A projected operand of more than TILE elements (2^17, 512 KB of float32) is
transformed, projected, trust-masked and packed one row tile at a time, so
each tile's buffers stay in L2, and the tiles are written into one
preallocated (values, bits) pair. Scale groups, HT blocks, 2:4 groups and
the NaN and zero-RMS handling all lie along k, so the bits equal the
whole-array result. An operand that fits in one tile takes the whole-array
path and no copy. The backward's mask multiply and IHT run in place on the
gradients, on the same row tiles (`_tiles`), so they allocate no full-size
buffers either.

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
from .quantizer import QuantConfig, project

# elements in one row tile of a projected operand: 512 KB of float32, so the
# tile's transform and projection buffers stay in a 2 MB L2
TILE = 1 << 17


@dataclass
class QLinearContext:
    """Saved forward state for the backward: the batch x k quantized
    activations and n x k row-major quantized weights (both in the transform
    domain), their trust masks packed along k (None when all-true), and
    whether the transform ran. `mask_x` and `mask_w` read a mask as a
    read-only bool array of its operand's shape."""

    x_hat_h: np.ndarray
    w_hat_h: np.ndarray
    bits_x: np.ndarray | None
    bits_w: np.ndarray | None
    hadamard: bool

    mask_x = property(lambda self: _unpacked(self.bits_x, self.x_hat_h.shape))
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
    (x_hat, bits_x), (w_hat, bits_w) = operands or (activation(x, cfg), weight(w, cfg))
    return x_hat @ w_hat.T, QLinearContext(x_hat, w_hat, bits_x, bits_w, cfg.hadamard)


def activation(x: np.ndarray, cfg: QuantConfig):
    """x's side of the layer, (x_hat_h, bits_x): transformed and projected
    along k as cfg says. It depends on x alone, so weights that read one x
    can share it."""
    return _operand(x, cfg, cfg.format != "none" and not cfg.weight_only)


def weight(w: np.ndarray, cfg: QuantConfig):
    """w's side of the layer, (w_hat_h, bits_w), transformed and projected
    along k as cfg says."""
    return _operand(w, cfg, cfg.format != "none")


def _operand(a: np.ndarray, cfg: QuantConfig, projected: bool):
    """(grid values, trust mask packed along k) of an operand, transformed
    along k when cfg says so: projected, in row tiles past TILE elements, or
    passed as is with no mask (None, all-true)."""
    if not projected:
        return (ht(a) if cfg.hadamard else a), None
    if a.size <= TILE:
        return _projected(a, cfg)
    rows = a.reshape(-1, a.shape[-1])
    values = np.empty(rows.shape, a.dtype)
    bits = np.empty((len(rows), -(-rows.shape[1] // 8)), np.uint8)
    for tile in _tiles(rows):
        values[tile], bits[tile] = _projected(rows[tile], cfg)
    return values.reshape(a.shape), bits.reshape(a.shape[:-1] + bits.shape[-1:])


def _tiles(rows: np.ndarray):
    """Row slices of a 2-D array, TILE elements each (at least one row)."""
    n, step = len(rows), max(1, TILE // rows.shape[1])
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _projected(a: np.ndarray, cfg: QuantConfig):
    p = project(ht(a) if cfg.hadamard else a, cfg)
    return p.values, _packed(p.trust_mask)


def backward(ctx: QLinearContext, grad_y: np.ndarray):
    """Trust-estimator backward: masked in the transform domain, then IHT."""
    if ctx is None:
        raise ValueError("missing qlinear context")
    if grad_y.shape != (ctx.x_hat_h.shape[0], ctx.w_hat_h.shape[0]):
        raise ValueError(
            f"upstream gradient shape {grad_y.shape} does not match "
            f"y shape {(ctx.x_hat_h.shape[0], ctx.w_hat_h.shape[0])}"
        )
    grad_x = grad_y @ ctx.w_hat_h
    grad_w = grad_y.T @ ctx.x_hat_h
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
    projected once for the whole group.
    """
    x2 = x.value.reshape((-1,) + x.shape[-1:])
    operand = activation(x2, cfg)
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
