"""Orthonormal Walsh-Hadamard transform along a chosen axis, in BLAS passes.

The Sylvester transform scaled by m^(-1/2) per block is its own inverse. A
power-of-two block runs as H_m = H_f1 ⊗ ... ⊗ H_fk with balanced factors of at
most 32: one GEMM pass per factor against a cached ±1 Sylvester block, then one
pass that restores the axis order and scales. Other lengths are block-diagonal
in the largest power-of-two blocks (640 -> 512 + 128), still orthonormal and
invertible. No randomized sign flips: the transform is fixed and shared by
weights and activations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensor import require_float


@dataclass(frozen=True)
class HadamardPlan:
    """Transform length and its power-of-two block decomposition."""

    n: int
    blocks: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"transform length must be positive, got {self.n}")
        blocks = self.blocks if self.blocks is not None else tuple(
            1 << i for i in reversed(range(self.n.bit_length())) if self.n >> i & 1)
        for b in blocks:
            if b < 1 or (b & (b - 1)) != 0:
                raise ValueError(f"block size {b} is not a power of two")
        if sum(blocks) != self.n:
            raise ValueError(f"blocks {blocks} do not sum to {self.n}")
        object.__setattr__(self, "blocks", tuple(blocks))


def _factors(m: int) -> list[int]:
    """Balanced power-of-two factors of m, each at most 32, smallest first."""
    p = m.bit_length() - 1
    k = max(1, -(-p // 5))
    return [1 << (p // k + (i >= k - p % k)) for i in range(k)]


@functools.cache
def _sylvester(f: int, dtype: np.dtype) -> np.ndarray:
    """Read-only ±1 Sylvester matrix of order f (symmetric)."""
    h = np.ones((1, 1), dtype=dtype)
    while h.shape[0] < f:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _transform_block(src: np.ndarray, dst: np.ndarray) -> None:
    """Write the HT of `src` over its power-of-two last axis into `dst`; both
    may be strided. The work array is laid out (m/f, *rows, f), so after the
    first pass, which reads `src` in place, each pass is contiguous GEMMs."""
    lead, m = src.shape[:-1], src.shape[-1]
    *outer, f = _factors(m)
    cur = np.matmul(np.moveaxis(src.reshape(lead + (m // f, f)), -2, 0), _sylvester(f, src.dtype))
    before = 1
    for g in outer:
        cur = np.matmul(_sylvester(g, src.dtype), cur.reshape(before, g, -1))
        before *= g
    np.multiply(np.moveaxis(cur.reshape((m // f,) + lead + (f,)), 0, -2),
                src.dtype.type(1.0 / np.sqrt(m)), out=dst.reshape(lead + (m // f, f)))


def ht(x: np.ndarray, plan: HadamardPlan, axis: int = -1) -> np.ndarray:
    """Apply the orthonormal Hadamard transform along `axis`."""
    x = np.asarray(x)
    require_float(x, "Hadamard transform")
    axis = axis % x.ndim
    if x.shape[axis] != plan.n:
        raise ValueError(f"axis extent {x.shape[axis]} does not match plan length {plan.n}")
    out = np.empty(x.shape, dtype=x.dtype)
    src, dst = np.moveaxis(x, axis, -1), np.moveaxis(out, axis, -1)
    for start, b in zip(np.cumsum((0,) + plan.blocks), plan.blocks):
        _transform_block(src[..., start:start + b], dst[..., start:start + b])
    return out


def iht(x: np.ndarray, plan: HadamardPlan, axis: int = -1) -> np.ndarray:
    """Inverse transform. The orthonormal Sylvester HT is an involution, so
    this equals ht; both names are part of the interface."""
    return ht(x, plan, axis)
