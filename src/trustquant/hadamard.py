"""Orthonormal Walsh-Hadamard transform along the last axis, in BLAS passes.

The Sylvester transform scaled by m^(-1/2) per block is its own inverse. A
power-of-two block runs as H_m = H_f1 ⊗ ... ⊗ H_fk with balanced factors of at
most 32: one GEMM pass per factor against a cached ±1 Sylvester block, then one
pass that restores the axis order and scales. Other lengths are block-diagonal
in the largest power-of-two blocks (640 -> 512 + 128), still orthonormal and
invertible. The length and its block split come from the last axis, so
callers pass only the array. No randomized sign flips: the transform is fixed
and shared by weights and activations.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import require_axis, require_float


@functools.cache
def _blocks(n: int) -> tuple[int, ...]:
    """Power-of-two block split of length n: its set bits, largest first."""
    if n < 1:
        raise ValueError(f"transform length must be positive, got {n}")
    return tuple(1 << i for i in reversed(range(n.bit_length())) if n >> i & 1)


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
    may be strided, and dst may be src: the first pass reads all of src
    before the last one writes dst. The work array is laid out
    (m/f, *rows, f), so after the first pass, which reads `src` in place,
    each pass is contiguous GEMMs."""
    lead, m = src.shape[:-1], src.shape[-1]
    *outer, f = _factors(m)
    cur = np.matmul(np.moveaxis(src.reshape(lead + (m // f, f)), -2, 0), _sylvester(f, src.dtype))
    before = 1
    for g in outer:
        cur = np.matmul(_sylvester(g, src.dtype), cur.reshape(before, g, -1))
        before *= g
    np.multiply(np.moveaxis(cur.reshape((m // f,) + lead + (f,)), 0, -2),
                src.dtype.type(1.0 / np.sqrt(m)), out=dst.reshape(lead + (m // f, f)))


def ht(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the orthonormal Hadamard transform along the last axis, into
    `out` when given: an array of x's shape and dtype, which may be x."""
    x = np.asarray(x)
    require_float(x, "Hadamard transform")
    require_axis(x, "Hadamard transform")
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    elif out.shape != x.shape or out.dtype != x.dtype:
        raise ValueError(f"Hadamard transform output is {out.dtype} {out.shape}, "
                         f"input {x.dtype} {x.shape}")
    n = x.shape[-1]
    if x.size == n:
        # numpy multiplies a single row by gemv, whose float64 bits differ
        # from gemm's: the row runs as two copies of itself, as in a batch
        pair = np.repeat(x.reshape(1, n), 2, axis=0)
        _transform(pair, pair)
        np.copyto(out, pair[0].reshape(x.shape))
    else:
        _transform(x, out)
    return out


def _transform(src: np.ndarray, dst: np.ndarray) -> None:
    """Write the HT of `src` into `dst` block by block; dst may be src."""
    blocks = _blocks(src.shape[-1])
    for start, b in zip(np.cumsum((0,) + blocks), blocks):
        _transform_block(src[..., start:start + b], dst[..., start:start + b])


def iht(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse transform. The orthonormal Sylvester HT is an involution, so
    this equals ht; both names are part of the interface."""
    return ht(x, out)
