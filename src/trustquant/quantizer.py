"""Quantization grids, the MSE-optimal clip solver, projection, trust masks.

Grids are mid-rise: 2^b uniformly spaced levels including +-alpha and
excluding zero, so the half-width of a quantization interval is
alpha / (2^b - 1). The FP4 grid is {0, +-0.5, +-1, +-1.5, +-2, +-3, +-4,
+-6}/6 rescaled by alpha. The clip scale alpha* minimizes the expected
squared projection error of a standard normal, evaluated by composite
Simpson integration and located by golden-section search, once per grid per
process (`alpha_star`). That objective and `project` round through one
function for every grid. A coordinate is trusted when its rounding error is
within the trust threshold; on these grids that is |x_norm| <= alpha* + s*T,
one compare on the normalized input (`trust_mask`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import require_axis, require_count, require_float, require_real

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
    group_size: elements per scale group along the matmul dimension, a
        positive int (None = one group per row). Must divide the grouped extent.
    hadamard: transform operands before fitting the grid.
    outer_trust_scale: s multiplying the trust threshold beyond +-alpha*;
        None follows the sweep default, see `trust_scale`.
    weight_only: leave activations unquantized.
    estimator: backward rule, "trust" (masked) or "ste".
    """

    format: str = "none"
    group_size: int | None = None
    hadamard: bool = True
    outer_trust_scale: float | None = None
    weight_only: bool = False
    estimator: str = "trust"

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected one of {FORMATS}")
        if self.group_size is not None:
            require_count("group_size", self.group_size)
        for name in ("hadamard", "weight_only"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.outer_trust_scale is not None:
            require_real("outer_trust_scale", self.outer_trust_scale)
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
    def trust_scale(self) -> float:
        """outer_trust_scale if given, else the sweep default for the current
        format and transform: 1.30 / 1.25 (no HT) for 1-bit, else 1."""
        if self.outer_trust_scale is not None:
            return self.outer_trust_scale
        if self.bits == 1:
            return 1.30 if self.hadamard else 1.25
        return 1.0

    @property
    def grid_key(self):
        """Key of the grid's alpha*: bit-width for INT grids, "fp4" for FP4."""
        if self.format == "fp4":
            return "fp4"
        return self.bits


def round_grid(x, alpha: float, key, with_codes: bool = False):
    """Clip x to [-alpha, alpha] and round it onto the grid `key` (an INT
    bit-width or "fp4") at clip scale alpha, in x's dtype.

    INT grid points are g_i = -alpha + 2*alpha*i/(2^b - 1), i = 0..2^b-1, and
    ties round toward +inf. Returns (values, codes): int64 grid indices for
    an INT grid on request, else None. INT grids round in one buffer."""
    if key == "fp4":
        return round_fp4(x, alpha), None
    if not 1 <= key <= 8:
        raise ValueError(f"bit-width must be in [1, 8], got {key}")
    x = np.asarray(x)
    require_float(x, "uniform quantization")
    if not 0 < 2.0 * float(alpha) <= float(np.finfo(x.dtype).max):  # the grid spans 2*alpha
        raise ValueError(f"alpha must be positive with 2*alpha finite in {x.dtype}, got {alpha}")
    levels = (1 << key) - 1
    q = np.asarray(np.clip(x, -alpha, alpha))  # a 0-d x clips to a numpy scalar
    q += alpha
    q *= levels / (2.0 * alpha)
    q += 0.5
    np.floor(q, out=q)  # in [0, levels]: the clip above bounds it
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
    grid = alpha * FP4_GRID
    u = np.clip(x.astype(np.float64), -alpha, alpha)
    hi = np.searchsorted(grid, u).clip(1, len(grid) - 1)
    d_lo, d_hi = u - grid[hi - 1], grid[hi] - u
    idx = np.where((d_hi < d_lo) | ((d_hi == d_lo) & (hi % 2 == 0)), hi, hi - 1)
    return grid[idx].astype(x.dtype, copy=False)


def sparsify_2of4(x: np.ndarray):
    """Keep the 2 largest-magnitude entries in each contiguous group of 4
    along the last axis.

    Ties break toward the lower index. Returns (values, keep_mask).
    """
    x = np.asarray(x)
    require_axis(x, "2:4 sparsification")
    extent = x.shape[-1]
    if extent % 4 != 0:
        raise ValueError(f"axis extent {extent} is not divisible by 4")
    grouped = x.reshape(x.shape[:-1] + (extent // 4, 4))
    # stable argsort of -|x| puts larger magnitudes first, lower index on ties
    order = np.argsort(-np.abs(grouped), axis=-1, kind="stable")
    keep = np.zeros(grouped.shape, dtype=bool)
    np.put_along_axis(keep, order[..., :2], True, axis=-1)
    keep = keep.reshape(x.shape)
    return np.where(keep, x, np.zeros((), dtype=x.dtype)), keep


# --- MSE-optimal clip scale --------------------------------------------------

def _simpson_weights(n_points: int, step: float) -> np.ndarray:
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def gaussian_grid_mse(alpha: float, key) -> float:
    """E[(xi - Q(xi; alpha))^2] for xi ~ N(0,1), composite Simpson on [-12, 12]."""
    n = int(round(2 * _XI_BOUND / _SIMPSON_STEP))
    if n % 2:
        n += 1
    xi = np.linspace(-_XI_BOUND, _XI_BOUND, n + 1)
    q = round_grid(xi, alpha, key)[0]
    density = np.exp(-0.5 * xi * xi) / math.sqrt(2 * math.pi)
    integrand = density * np.square(xi - q)
    return float(integrand @ _simpson_weights(n + 1, 2 * _XI_BOUND / n))


def solve_alpha_star(key) -> float:
    """Golden-section minimization of the Gaussian projection MSE over alpha.

    key is an INT bit-width (1..8) or "fp4".
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = _ALPHA_LO, _ALPHA_HI
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc = gaussian_grid_mse(c, key)
    fd = gaussian_grid_mse(d, key)
    while hi - lo > _GOLDEN_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = gaussian_grid_mse(c, key)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = gaussian_grid_mse(d, key)
    return 0.5 * (lo + hi)


@functools.cache
def alpha_star(key) -> float:
    """alpha* of a grid, solved once per process: after Hadamard + RMS
    normalization it depends on the grid alone."""
    return solve_alpha_star(key)


# --- projection and trust masks ----------------------------------------------

@dataclass
class ProjectionResult:
    """Quantize-dequantize output plus the per-group scales and masks.

    values: same shape as the input, exactly scale x (a grid point).
    scale: RMS * alpha* per group (shape: input with the last axis
        replaced by the group count).
    trust_mask: True where the rounding error of input / RMS is within the
        trust threshold: |input / RMS| <= alpha* + s*T, except at 2:4-dropped
        entries (`trust_mask`).
    sparsity_mask: keep mask for the 2:4 format, else None.
    codes: integer grid indices for INT grids (for packing), else None.
    """

    values: np.ndarray
    scale: np.ndarray
    trust_mask: np.ndarray
    sparsity_mask: np.ndarray | None = None
    codes: np.ndarray | None = None


def trust_mask(x_norm: np.ndarray, cfg: QuantConfig, keep: np.ndarray | None) -> np.ndarray:
    """Trust mask of x_norm's projection, in normalized coordinates.

    The rule trusts a coordinate whose rounding error is at most T inside
    [-alpha, alpha] and s * T beyond, T being the grid's largest
    half-interval: alpha/(2^b - 1) on an INT grid, alpha/6 on FP4. The error
    is at most T inside and |x| - alpha beyond, so the rule is
    |x| <= alpha + s * T, one compare in x_norm's dtype. `keep` is the 2:4
    keep mask (else None). A dropped entry rounds to 0, so its error is |x|:
    it is trusted when |x| <= T (which lies inside alpha), or beyond alpha
    when |x| <= s * T.
    """
    alpha = alpha_star(cfg.grid_key)
    half = alpha / 6.0 if cfg.format == "fp4" else alpha / ((1 << cfg.bits) - 1)
    cast = x_norm.dtype.type
    inner, outer = cast(half), cast(cfg.trust_scale * half)
    mag = np.abs(x_norm)
    mask = mag <= cast(alpha + cfg.trust_scale * half)
    if keep is not None:
        mask &= keep | (mag <= inner) | ((mag > alpha) & (mag <= outer))
    return mask


def project(x: np.ndarray, cfg: QuantConfig, *, with_codes: bool = False) -> ProjectionResult:
    """RMS-normalize per group along the last axis, round onto the grid at
    alpha*, rescale by the group RMS r, compute masks.

    Runs in x's dtype on two buffers, x / r and its grid values rescaled in
    place. Every format rounds x / r in one `round_grid` call; 2:4 then
    zeroes the entries `sparsify_2of4` drops (a 0 would round to +T) and
    returns no codes. One rescale by r follows: a zero-RMS group's grid
    values are all >= 0, so it maps to exact zeros with a full-trust mask,
    and a group holding a NaN or an inf (a non-finite r) maps to all-NaN
    values in every format, `none` included.
    """
    x = np.asarray(x)
    require_float(x, "projection")
    require_axis(x, "projection")
    extent = x.shape[-1]
    group_size = cfg.group_size or extent
    if extent % group_size != 0:
        raise ValueError(f"group size {group_size} does not divide extent {extent}")
    grouped = x.reshape(x.shape[:-1] + (extent // group_size, group_size))
    x_norm = np.square(grouped)
    r = np.sqrt(np.mean(x_norm, axis=-1, keepdims=True))
    nonfinite = ~np.isfinite(r)  # one check per group
    alpha = 1.0 if cfg.format == "none" else alpha_star(cfg.grid_key)
    scale = r[..., 0] * alpha

    if cfg.format == "none":
        values = np.where(nonfinite, np.nan, grouped).reshape(x.shape) if nonfinite.any() else x
        return ProjectionResult(values=values, scale=scale, trust_mask=np.ones(x.shape, dtype=bool))
    safe_r = np.where(nonfinite | (r == 0), 1.0, r)  # for the division only
    np.divide(grouped, safe_r, out=x_norm)

    keep = sparsify_2of4(x_norm)[1] if cfg.format == "int4-sparse-2of4" else None
    q, codes = round_grid(x_norm, alpha, cfg.grid_key, with_codes and keep is None)
    if keep is not None:
        np.copyto(q, 0.0, where=~keep)
    mask = trust_mask(x_norm, cfg, keep)
    q *= np.where(nonfinite, np.nan, r)

    return ProjectionResult(
        values=np.ascontiguousarray(q.reshape(x.shape)),
        scale=scale,
        trust_mask=mask.reshape(x.shape),
        sparsity_mask=keep.reshape(x.shape) if keep is not None else None,
        codes=codes.reshape(x.shape) if codes is not None else None,
    )
