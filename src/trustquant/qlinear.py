"""Quantized linear layer: transform, project, multiply; masked backward.

Forward: x_h = HT(x); x_hat_h = proj(x_h); w_h = HT(w); w_hat_h = proj(w_h);
y = x_hat_h @ w_hat_h^T. Format "none" projects neither operand and
weight_only leaves x unprojected; an operand that is not projected passes
through unchanged with an all-true trust mask. The transform runs along the
shared inner axis k, so its length comes from the operands; the tape op
`qlinear` takes x as (..., k) and keeps its leading axes. The context carries
exactly what the backward needs: y's operands x_hat_h and w_hat_h, the two
trust masks, and whether the layer ran the transform.

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


def forward(x: np.ndarray, w: np.ndarray, cfg: QuantConfig):
    """Run the quantized layer; returns (y, context).

    x is batch x k, w is n x k (row-major); y is batch x n.
    """
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"expected 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"inner dimensions disagree: {x.shape} x {w.shape}")
    if cfg.hadamard:
        x, w = ht(x, axis=1), ht(w, axis=1)
    quantized = cfg.format != "none"
    x_hat, mask_x = _operand(x, cfg, quantized and not cfg.weight_only)
    w_hat, mask_w = _operand(w, cfg, quantized)
    return x_hat @ w_hat.T, QLinearContext(x_hat, w_hat, mask_x, mask_w, cfg.hadamard)


def _operand(a: np.ndarray, cfg: QuantConfig, projected: bool):
    """(grid values, trust mask) of an operand: projected along k, or `a`
    itself with an all-true mask."""
    if not projected:
        return a, np.ones(a.shape, dtype=bool)
    p = project(a, cfg, axis=1)
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
    if ctx.hadamard:
        grad_x = iht(grad_x, axis=1)
        grad_w = iht(grad_w, axis=1)
    return grad_x, grad_w


def backward(ctx: QLinearContext, grad_y: np.ndarray):
    """Trust-estimator backward: masked in the transform domain, then IHT."""
    return _estimate(ctx, grad_y, masked=True)


def ste_backward(ctx: QLinearContext, grad_y: np.ndarray):
    """Straight-through backward: as backward with masks forced all-true."""
    return _estimate(ctx, grad_y, masked=False)


def qlinear(x: Node, w: Node, cfg: QuantConfig):
    """Tape registration of the layer; backward follows cfg.estimator.

    x is (..., k) and y is (..., n). Returns (output node, context).
    """
    y, ctx = forward(x.value.reshape((-1,) + x.shape[-1:]), w.value, cfg)
    estimator = backward if cfg.estimator == "trust" else ste_backward

    def backward_fn(g):
        grad_x, grad_w = estimator(ctx, g.reshape(y.shape))
        return grad_x.reshape(x.shape), grad_w

    node = x.tape.record(y.reshape(x.shape[:-1] + y.shape[1:]), (x, w), backward_fn)
    return node, ctx
