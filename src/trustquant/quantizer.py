"""Quantization grids, the MSE-optimal clip solver, projection, trust masks.

Grids are mid-rise: 2^b uniformly spaced levels including +-alpha and
excluding zero, so the half-width of a quantization interval is
alpha / (2^b - 1). The FP4 grid is {0, +-0.5, +-1, +-1.5, +-2, +-3, +-4,
+-6}/6 rescaled by alpha. The clip scale alpha* minimizes the expected
squared projection error of a standard normal, evaluated by composite
Simpson integration and located by golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import require_float

FP4_POINTS = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]) / 6.0
FP4_GRID = np.sort(np.concatenate([-FP4_POINTS[1:], FP4_POINTS]))  # 15 points

INT_FORMATS = {f"int{b}": b for b in range(1, 9)}
FORMATS = ("none", "fp4", "int4-sparse-2of4", *INT_FORMATS)

# alpha* search window and integration accuracy (normal tail beyond 12 sigma
# is < 1e-30, far below the objective's resolution)
_ALPHA_LO, _ALPHA_HI = 0.05, 12.0
_XI_BOUND = 12.0
_SIMPSON_STEP = 1e-4
_GOLDEN_TOL = 1e-5


@dataclass
class QuantConfig:
    """Numeric format and projection/trust parameters for one layer family.

    format: "none", "intB" for B in 1..8, "fp4", or "int4-sparse-2of4".
    group_size: elements per scale group along the matmul dimension
        (None = one group per row). Must divide the grouped extent.
    hadamard: transform operands before fitting the grid.
    outer_trust_scale: s multiplying the trust threshold beyond +-alpha*;
        None picks the sweep default (1.30/1.25 for 1-bit, else 1.0).
    weight_only: leave activations unquantized.
    estimator: backward rule, "trust" (masked) or "ste".
    """

    format: str = "none"
    group_size: int | None = None
    hadamard: bool = True
    outer_trust_scale: float | None = None  # None resolves to the sweep default
    weight_only: bool = False
    estimator: str = "trust"

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected one of {FORMATS}")
        if self.outer_trust_scale is None:
            self.outer_trust_scale = default_outer_trust_scale(
                self.bits or 0, self.hadamard
            )
        if self.outer_trust_scale <= 0:
            raise ValueError("outer_trust_scale must be positive")
        if self.estimator not in ("trust", "ste"):
            raise ValueError(f"unknown estimator {self.estimator!r}")

    @property
    def bits(self) -> int | None:
        if self.format in INT_FORMATS:
            return INT_FORMATS[self.format]
        if self.format == "int4-sparse-2of4":
            return 4
        return None

    @property
    def grid_key(self):
        """Key into the AlphaTable: bit-width for INT grids, "fp4" for FP4."""
        if self.format == "fp4":
            return "fp4"
        return self.bits


def default_outer_trust_scale(bits: int, hadamard: bool) -> float:
    """Sweep-determined outer-trust scale: 1.30 / 1.25 for 1-bit, else 1."""
    if bits == 1:
        return 1.30 if hadamard else 1.25
    return 1.0


def quantize_uniform(x: np.ndarray, alpha: float, b: int) -> np.ndarray:
    """Clip to [-alpha, alpha] and round to the 2^b-level mid-rise grid.

    Grid points are g_i = -alpha + 2*alpha*i/(2^b - 1), i = 0..2^b-1; ties
    round toward +inf.
    """
    return _uniform_grid(x, alpha, b, with_codes=False)[0]


def quantize_uniform_codes(x: np.ndarray, alpha: float, b: int):
    """As quantize_uniform, also returning the integer grid indices."""
    return _uniform_grid(x, alpha, b, with_codes=True)


def _uniform_grid(x, alpha: float, b: int, with_codes: bool):
    """quantize_uniform in one buffer of x's dtype; int64 codes on request."""
    if not 1 <= b <= 8:
        raise ValueError(f"bit-width must be in [1, 8], got {b}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x = np.asarray(x)
    require_float(x, "uniform quantization")
    levels = (1 << b) - 1
    q = np.clip(x, -alpha, alpha)
    q += alpha
    q *= levels / (2.0 * alpha)
    q += 0.5
    np.floor(q, out=q)
    np.clip(q, 0, levels, out=q)
    codes = q.astype(np.int64) if with_codes else None
    q *= 2.0 * alpha / levels
    q += -alpha
    return q, codes


def round_fp4(x: np.ndarray, alpha: float) -> np.ndarray:
    """Clip to [-alpha, alpha], round to the 15-point FP4 grid scaled by alpha.

    Ties go to the even grid index (indices over the sorted 15-point grid).
    """
    x = np.asarray(x)
    require_float(x, "FP4 rounding")
    grid = (alpha * FP4_GRID).astype(np.float64)
    u = np.clip(x.astype(np.float64), -alpha, alpha)
    hi = np.searchsorted(grid, u).clip(1, len(grid) - 1)
    lo = hi - 1
    d_lo = u - grid[lo]
    d_hi = grid[hi] - u
    pick_hi = d_hi < d_lo
    tie = d_hi == d_lo
    pick_hi = np.where(tie, hi % 2 == 0, pick_hi)
    idx = np.where(pick_hi, hi, lo)
    return grid[idx].astype(x.dtype, copy=False)


def sparsify_2of4(x: np.ndarray, axis: int = -1):
    """Keep the 2 largest-magnitude entries in each contiguous group of 4.

    Ties break toward the lower index. Returns (values, keep_mask).
    """
    x = np.asarray(x)
    axis = axis % x.ndim
    extent = x.shape[axis]
    if extent % 4 != 0:
        raise ValueError(f"axis extent {extent} is not divisible by 4")
    moved = np.moveaxis(x, axis, -1)
    grouped = moved.reshape(moved.shape[:-1] + (extent // 4, 4))
    # stable argsort of -|x| puts larger magnitudes first, lower index on ties
    order = np.argsort(-np.abs(grouped), axis=-1, kind="stable")
    keep = np.zeros(grouped.shape, dtype=bool)
    np.put_along_axis(keep, order[..., :2], True, axis=-1)
    keep = np.moveaxis(keep.reshape(moved.shape), -1, axis)
    return np.where(keep, x, np.zeros((), dtype=x.dtype)), keep


# --- MSE-optimal clip scale --------------------------------------------------

def _quantize_for_key(xi: np.ndarray, alpha: float, key) -> np.ndarray:
    if key == "fp4":
        return round_fp4(xi, alpha)
    return quantize_uniform(xi, alpha, key)


def _simpson_weights(n_points: int, step: float) -> np.ndarray:
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def gaussian_grid_mse(alpha: float, key, *, step: float = _SIMPSON_STEP) -> float:
    """E[(xi - Q(xi; alpha))^2] for xi ~ N(0,1), composite Simpson on [-12, 12]."""
    n = int(round(2 * _XI_BOUND / step))
    if n % 2:
        n += 1
    xi = np.linspace(-_XI_BOUND, _XI_BOUND, n + 1)
    q = _quantize_for_key(xi, alpha, key)
    density = np.exp(-0.5 * xi * xi) / math.sqrt(2 * math.pi)
    integrand = density * np.square(xi - q)
    return float(integrand @ _simpson_weights(n + 1, 2 * _XI_BOUND / n))


def solve_alpha_star(key, *, tol: float = _GOLDEN_TOL) -> float:
    """Golden-section minimization of the Gaussian projection MSE over alpha.

    key is an INT bit-width (1..8) or "fp4".
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = _ALPHA_LO, _ALPHA_HI
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc = gaussian_grid_mse(c, key)
    fd = gaussian_grid_mse(d, key)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = gaussian_grid_mse(c, key)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = gaussian_grid_mse(d, key)
    return 0.5 * (lo + hi)


@dataclass
class AlphaTable:
    """Cache of alpha*(grid) and the achieved Gaussian MSE."""

    alphas: dict = field(default_factory=dict)
    mses: dict = field(default_factory=dict)

    def alpha(self, key) -> float:
        if key not in self.alphas:
            a = solve_alpha_star(key)
            self.alphas[key] = a
            self.mses[key] = gaussian_grid_mse(a, key)
        return self.alphas[key]

    def mse(self, key) -> float:
        self.alpha(key)
        return self.mses[key]


# --- projection and trust masks ----------------------------------------------

@dataclass
class ProjectionResult:
    """Quantize-dequantize output plus the per-group scales and masks.

    values: same shape as the input, exactly scale x (a grid point).
    scale: RMS * alpha* per group (shape: input with the grouped axis
        replaced by the group count).
    trust_mask: True where |values - input| <= trust threshold.
    sparsity_mask: keep mask for the 2:4 format, else None.
    codes: integer grid indices for INT grids (for packing), else None.
    """

    values: np.ndarray
    scale: np.ndarray
    trust_mask: np.ndarray
    sparsity_mask: np.ndarray | None = None
    codes: np.ndarray | None = None


def trust_thresholds(x_norm: np.ndarray, cfg: QuantConfig, table: AlphaTable) -> np.ndarray:
    """Per-element trust threshold in normalized coordinates, in x_norm's dtype.

    T = alpha/(2^b - 1) inside [-alpha, alpha], s * that beyond; the FP4 grid
    uses its largest half-interval alpha/6 in place of alpha/(2^b - 1). When
    both agree (s = 1), T is a read-only broadcast of that one value.
    """
    x_norm = np.asarray(x_norm)
    alpha = table.alpha(cfg.grid_key)
    if cfg.format == "fp4":
        half = alpha / 6.0
    else:
        half = alpha / ((1 << cfg.bits) - 1)
    inner, outer = x_norm.dtype.type(half), x_norm.dtype.type(cfg.outer_trust_scale * half)
    if inner == outer:
        return np.broadcast_to(inner, x_norm.shape)
    return np.where(np.abs(x_norm) <= alpha, inner, outer)


def trust_mask(
    x_norm: np.ndarray,
    x_hat_norm: np.ndarray,
    cfg: QuantConfig,
    table: AlphaTable,
) -> np.ndarray:
    """mask[k] = |x_hat_k - x_k| <= T_k, in normalized coordinates."""
    if x_norm.shape != x_hat_norm.shape:
        raise ValueError(f"shape mismatch {x_norm.shape} vs {x_hat_norm.shape}")
    residual = np.subtract(x_hat_norm, x_norm)
    return np.abs(residual, out=residual) <= trust_thresholds(x_norm, cfg, table)


def _group_shape(x: np.ndarray, axis: int, group_size: int):
    extent = x.shape[axis]
    if extent % group_size != 0:
        raise ValueError(f"group size {group_size} does not divide extent {extent}")
    moved = np.moveaxis(x, axis, -1)
    return moved.reshape(moved.shape[:-1] + (extent // group_size, group_size))


def project(
    x: np.ndarray,
    cfg: QuantConfig,
    table: AlphaTable,
    axis: int = -1,
    *,
    with_codes: bool = False,
) -> ProjectionResult:
    """RMS-normalize per group, quantize at alpha*, rescale, compute masks.

    Runs in x's dtype on two buffers, x / r and the grid values rescaled in
    place. Zero-RMS groups map to all-zero output with a full-trust mask.
    """
    x = np.asarray(x)
    require_float(x, "projection")
    axis = axis % x.ndim
    grouped = _group_shape(x, axis, cfg.group_size or x.shape[axis])
    x_norm = np.square(grouped)
    r = np.sqrt(np.mean(x_norm, axis=-1, keepdims=True))
    alpha = 1.0 if cfg.format == "none" else table.alpha(cfg.grid_key)
    scale = np.moveaxis(r[..., 0] * alpha, -1, axis)
    if cfg.format == "none":
        return ProjectionResult(values=x, scale=scale, trust_mask=np.ones(x.shape, dtype=bool))
    safe_r = np.where(r > 0, r, 1.0)
    np.divide(grouped, safe_r, out=x_norm)

    sparsity_mask = None
    codes = None
    if cfg.format == "fp4":
        q = round_fp4(x_norm, alpha)
    elif cfg.format == "int4-sparse-2of4":
        sparse_norm, sparsity_mask = sparsify_2of4(x_norm, axis=-1)
        q = quantize_uniform(sparse_norm, alpha, 4)
        np.copyto(q, 0.0, where=~sparsity_mask)
    else:
        q, codes = _uniform_grid(x_norm, alpha, cfg.bits, with_codes)

    mask = trust_mask(x_norm, q, cfg, table)
    q *= safe_r
    if (r == 0).any():  # zero-RMS groups: exact zeros, full trust
        zero_group = np.broadcast_to(r == 0, q.shape)
        np.copyto(q, 0.0, where=zero_group)
        np.copyto(mask, True, where=zero_group)

    def restore(arr):
        return np.moveaxis(arr.reshape(np.moveaxis(x, axis, -1).shape), -1, axis)

    return ProjectionResult(
        values=np.ascontiguousarray(restore(q)),
        scale=scale,
        trust_mask=restore(mask),
        sparsity_mask=restore(sparsity_mask) if sparsity_mask is not None else None,
        codes=restore(codes) if codes is not None else None,
    )

