"""CPU reference for the inference path: quantize, pack INT4 codes into
bytes, integer GEMM, dequantize. Bit-exact against the float-simulated
quantized layer up to final-float rounding.

Codes are mid-rise grid indices i in [0, 15] with dequant value
scale * (2i - 15) / 15, so the centered integer accumulator
sum (2a-15)(2b-15) is exact in int32 for k <= 2^23
(max |term| = 225, 225 * 2^23 < 2^31). Payload packs two codes per byte,
low nibble first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .hadamard import ht
from .model import ModelConfig
from .quantizer import QuantConfig, project

MAX_INNER_DIM = 1 << 23
PACK_CFG = QuantConfig(format="int4", hadamard=False)  # the grid that `pack` holds


@dataclass
class PackedMatrix:
    rows: int
    cols: int
    payload: np.ndarray  # uint8, rows * cols / 2
    scales: np.ndarray  # (rows, n_groups)
    group_size: int

    @property
    def n_groups(self) -> int:
        return self.cols // self.group_size


def pack(codes: np.ndarray, scales: np.ndarray | None = None,
         group_size: int | None = None) -> PackedMatrix:
    """Pack int4 grid indices (rows x cols, cols even) into bytes."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected a 2-D code matrix, got shape {codes.shape}")
    rows, cols = codes.shape
    if cols % 2 != 0:
        raise ValueError(f"columns must be even to pack nibbles, got {cols}")
    if codes.min() < 0 or codes.max() > 15:
        raise ValueError("codes out of the int4 range [0, 15]")
    flat = codes.astype(np.uint8).reshape(rows, cols // 2, 2)
    payload = (flat[..., 0] | (flat[..., 1] << 4)).reshape(-1)
    group_size = group_size or cols
    if cols % group_size != 0:
        raise ValueError(f"group size {group_size} does not divide cols {cols}")
    if scales is None:
        scales = np.ones((rows, cols // group_size))
    scales = np.asarray(scales, dtype=np.float64).reshape(rows, cols // group_size)
    return PackedMatrix(rows=rows, cols=cols, payload=payload,
                        scales=scales, group_size=group_size)


def unpack(pm: PackedMatrix) -> np.ndarray:
    """Inverse of pack: lossless recovery of the code matrix."""
    bytes_ = pm.payload.reshape(pm.rows, pm.cols // 2)
    low = bytes_ & 0x0F
    high = bytes_ >> 4
    return np.stack([low, high], axis=-1).reshape(pm.rows, pm.cols).astype(np.int64)


def gemm_dequant(a: PackedMatrix, b: PackedMatrix) -> np.ndarray:
    """Centered integer GEMM with per-group dequantization.

    y[i, j] = sum_g scales_a[i, g] * scales_b[j, g] / 225
              * sum_k (2 a_code - 15)(2 b_code - 15).
    """
    if a.cols != b.cols or a.group_size != b.group_size:
        raise ValueError(
            f"incompatible operands: {a.cols}/{a.group_size} vs {b.cols}/{b.group_size}"
        )
    if a.cols > MAX_INNER_DIM:
        raise ValueError(f"inner dimension {a.cols} exceeds the exactness bound")
    ca = (2 * unpack(a) - 15).astype(np.int32)
    cb = (2 * unpack(b) - 15).astype(np.int32)
    g = a.group_size
    out = np.zeros((a.rows, b.rows), dtype=np.float64)
    for gi in range(a.n_groups):
        sl = slice(gi * g, (gi + 1) * g)
        acc = ca[:, sl] @ cb[:, sl].T  # exact int32
        out += np.outer(a.scales[:, gi], b.scales[:, gi]) * acc / 225.0
    return out


def quantize_pack(x: np.ndarray) -> PackedMatrix:
    """Project onto the INT4 grid (one group per row) and pack the codes."""
    res = project(x, PACK_CFG, with_codes=True)
    return pack(res.codes, scales=res.scale)


def layer_shapes(hidden: int, batch: int = 512) -> list[tuple[str, int, int, int]]:
    """(name, m, k, n) for the seven projection layers at a given width, in
    the model's parameter order; an n x k weight multiplies m x k input."""
    shapes = ModelConfig(num_blocks=1, hidden_size=hidden, num_heads=1).param_shapes()
    return [(name.removeprefix("block0."), batch, *shape[::-1])
            for name, shape in shapes.items() if name.startswith("block0.w")]


def bench(shapes, reps: int = 3, seed: int = 0) -> list[dict]:
    """Median wall times per layer shape: dense float GEMM vs the
    quantize/pack + Hadamard + integer-GEMM pipeline."""
    from .tensor import Rng

    rows = []
    rng = Rng(seed)
    for name, m, k, n in shapes:
        x = rng.normal((m, k), dtype=np.float32)
        w = rng.normal((n, k), dtype=np.float32)

        def timed(fn):
            samples = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
            return float(np.median(samples)) * 1e3

        dense_ms = timed(lambda: x @ w.T)
        ht_ms = timed(lambda: (ht(x), ht(w)))
        pa = quantize_pack(x)
        pb = quantize_pack(w)
        quant_pack_ms = timed(lambda: (quantize_pack(x), quantize_pack(w)))
        int_gemm_ms = timed(lambda: gemm_dequant(pa, pb))
        rows.append({
            "shape": f"{name}:{m}x{k}x{n}",
            "dense_ms": dense_ms,
            "quant_pack_ms": quant_pack_ms,
            "ht_ms": ht_ms,
            "int_gemm_ms": int_gemm_ms,
            "speedup": dense_ms / int_gemm_ms if int_gemm_ms > 0 else float("inf"),
        })
    return rows
