"""Quantized linear layer: transform, project, multiply; masked backward.

Forward: x_h = HT(x); x_hat_h = proj(x_h); w_h = HT(w); w_hat_h = proj(w_h);
y = x_hat_h @ w_hat_h^T. Format "none" projects neither operand and
weight_only leaves x unprojected; an operand that is not projected passes
through unchanged with a read-only all-true trust mask (a broadcast of one
True, no fresh array). The transform and the
projection run along the shared inner axis k, the last axis of both
operands, so its length comes from the operands. The context
carries exactly what the backward needs: y's operands x_hat_h and w_hat_h,
the two trust masks, and whether the layer ran the transform.

The tape op `qlinear(x, ws, cfg)` takes a group of weights that read one
activation x, held as (..., k). It transforms and projects x once and hands
that shared operand (x_hat_h, mask_x) to `forward` for each weight, so a
group costs one x transform and projection however many weights it has, and
still one matmul and one tape node per weight. The contexts of a group share
the x_hat_h and mask_x arrays; nothing writes to them after the forward. The
backward is per weight and unchanged, and the tape sums the x-gradients.

A weight's side, (w_hat_h, mask_w) from `weight(w, cfg)`, depends on w and
cfg alone; a caller that runs one weight many times can compute it once and
pass it back in (`model.Model.operand` does).

A projected operand of more than TILE elements (2^17, 512 KB of float32) is
transformed, projected and trust-masked one row tile at a time, so each
tile's buffers stay in L2, and the tiles are written into one preallocated
(values, mask) pair. Scale groups, HT blocks, 2:4 groups and the NaN and
zero-RMS handling all lie along k, so the bits equal the whole-array result.
An operand that fits in one tile takes the whole-array path and no copy.
The backward's IHT runs in place on the masked gradients, on the same row
tiles (`_tiles`), so it allocates no full-size transform buffers either.

Backward (trust estimator): dL/dx = IHT(M_x * (dL/dy @ w_hat_h)) and
dL/dw = IHT(M_w * (dL/dy^T @ x_hat_h)), all products in full precision.
The STE variant forces both masks to all-true. Masks are saved from the
forward pass, never recomputed.
"""

from __future__ import annotations

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
    domain), their trust masks, and whether the transform ran."""

    x_hat_h: np.ndarray
    w_hat_h: np.ndarray
    mask_x: np.ndarray
    mask_w: np.ndarray
    hadamard: bool


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
    (x_hat, mask_x), (w_hat, mask_w) = operands or (activation(x, cfg), weight(w, cfg))
    return x_hat @ w_hat.T, QLinearContext(x_hat, w_hat, mask_x, mask_w, cfg.hadamard)


def activation(x: np.ndarray, cfg: QuantConfig):
    """x's side of the layer, (x_hat_h, mask_x): transformed and projected
    along k as cfg says. It depends on x alone, so weights that read one x
    can share it."""
    return _operand(x, cfg, cfg.format != "none" and not cfg.weight_only)


def weight(w: np.ndarray, cfg: QuantConfig):
    """w's side of the layer, (w_hat_h, mask_w), transformed and projected
    along k as cfg says."""
    return _operand(w, cfg, cfg.format != "none")


def _operand(a: np.ndarray, cfg: QuantConfig, projected: bool):
    """(grid values, trust mask) of an operand, transformed along k when cfg
    says so: projected, in row tiles past TILE elements, or passed as is with
    a read-only all-true mask."""
    if not projected:
        return (ht(a) if cfg.hadamard else a), np.broadcast_to(True, a.shape)
    if a.size <= TILE:
        return _projected(a, cfg)
    rows = a.reshape(-1, a.shape[-1])
    values, mask = np.empty(rows.shape, a.dtype), np.empty(rows.shape, bool)
    for tile in _tiles(rows):
        values[tile], mask[tile] = _projected(rows[tile], cfg)
    return values.reshape(a.shape), mask.reshape(a.shape)


def _tiles(rows: np.ndarray):
    """Row slices of a 2-D array, TILE elements each (at least one row)."""
    n, step = len(rows), max(1, TILE // rows.shape[1])
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _projected(a: np.ndarray, cfg: QuantConfig):
    p = project(ht(a) if cfg.hadamard else a, cfg)
    return p.values, p.trust_mask


def _estimate(ctx: QLinearContext, grad_y: np.ndarray, masked: bool):
    if ctx is None:
        raise ValueError("missing qlinear context")
    if grad_y.shape != (ctx.x_hat_h.shape[0], ctx.w_hat_h.shape[0]):
        raise ValueError(
            f"upstream gradient shape {grad_y.shape} does not match "
            f"y shape {(ctx.x_hat_h.shape[0], ctx.w_hat_h.shape[0])}"
        )
    grad_x = grad_y @ ctx.w_hat_h
    grad_w = grad_y.T @ ctx.x_hat_h
    if masked:  # bool multiply zeroes masked coordinates exactly
        grad_x *= ctx.mask_x
        grad_w *= ctx.mask_w
    if ctx.hadamard:  # in place, a row tile at a time
        for grad in (grad_x, grad_w):
            for tile in _tiles(grad):
                iht(grad[tile], out=grad[tile])
    return grad_x, grad_w


def backward(ctx: QLinearContext, grad_y: np.ndarray):
    """Trust-estimator backward: masked in the transform domain, then IHT."""
    return _estimate(ctx, grad_y, masked=True)


def ste_backward(ctx: QLinearContext, grad_y: np.ndarray):
    """Straight-through backward: as backward with masks forced all-true."""
    return _estimate(ctx, grad_y, masked=False)


def qlinear(x: Node, ws, cfg: QuantConfig, w_operands=None):
    """Tape registration of a group of layers that read one activation;
    backward follows cfg.estimator.

    x is (..., k); each weight in `ws` is n_i x k and its output (..., n_i).
    Returns one (output node, context) per weight, in order. x is transformed
    and projected once for the whole group. `w_operands` holds each weight's
    operand from `weight`, for a caller that already asked for them.
    """
    x2 = x.value.reshape((-1,) + x.shape[-1:])
    operand = activation(x2, cfg)
    if w_operands is None:
        w_operands = [weight(w.value, cfg) for w in ws]
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
