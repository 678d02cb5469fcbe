import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustquant.quantizer import (
    FP4_GRID,
    AlphaTable,
    QuantConfig,
    gaussian_grid_mse,
    project,
    quantize_uniform,
    quantize_uniform_codes,
    round_fp4,
    solve_alpha_star,
    sparsify_2of4,
    trust_mask,
    trust_thresholds,
)

# alpha* and MSE values frozen from the exact per-cell oracle below
# (closed-form Gaussian integrals over quantization cells, minimize_scalar
# at xatol=1e-10); b=1 is also analytic: alpha* = E|xi| = sqrt(2/pi).
ORACLE_ALPHA = {
    1: 0.7978846,
    2: 1.4935300,
    3: 2.0510681,
    4: 2.5140046,
    5: 2.9161512,
    6: 3.2779847,
    7: 3.6110972,
    8: 3.9222048,
    "fp4": 2.9224753,
}
ORACLE_MSE = {
    1: 3.6338022763e-01,
    2: 1.1884605038e-01,
    3: 3.7439659392e-02,
    4: 1.1542884431e-02,
    8: 8.7686185784e-05,
    "fp4": 1.2684904139e-02,
}


def phi_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def exact_cell_mse(alpha, grid):
    """Independent oracle: exact E[(xi - Q(xi))^2] via per-cell normal moments."""
    g = np.sort(np.asarray(grid, dtype=np.float64))
    mids = (g[:-1] + g[1:]) / 2.0
    bounds = np.concatenate([[-np.inf], mids, [np.inf]])

    def pdf(x):
        return 0.0 if np.isinf(x) else math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    total = 0.0
    for i, point in enumerate(g):
        a, b = bounds[i], bounds[i + 1]
        i0 = phi_cdf(b) - phi_cdf(a)
        i1 = pdf(a) - pdf(b)
        i2 = i0 + (0.0 if np.isinf(a) else a * pdf(a)) - (0.0 if np.isinf(b) else b * pdf(b))
        total += i2 - 2 * point * i1 + point * point * i0
    return total


def int_grid(alpha, b):
    levels = (1 << b) - 1
    return np.array([-alpha + 2 * alpha * i / levels for i in range(1 << b)])


class TestQuantizeUniform:
    def test_b2_nearest(self):
        assert quantize_uniform(np.array([0.4]), 1.0, 2)[0] == pytest.approx(1 / 3)

    def test_b1_sign_grid(self):
        out = quantize_uniform(np.array([-0.2, 2.0]), 1.0, 1)
        assert out[0] == -1.0 and out[1] == 1.0

    def test_tie_rounds_toward_plus_inf(self):
        # 0 sits exactly between -1/3 and 1/3 on the b=2 grid
        assert quantize_uniform(np.array([0.0]), 1.0, 2)[0] == pytest.approx(1 / 3)

    def test_matches_exhaustive_nearest_point_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4096)
        got = quantize_uniform(x, 1.0, 4)
        grid = int_grid(1.0, 4)
        clipped = np.clip(x, -1.0, 1.0)
        dist = np.abs(clipped[:, None] - grid[None, :])
        # brute force nearest; break distance ties toward the larger grid value
        best = np.where(
            dist == dist.min(axis=1, keepdims=True), grid[None, :], -np.inf
        ).max(axis=1)
        assert np.array_equal(got, best)

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(3), 1.0, 9)
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(3), 1.0, 0)

    def test_codes_consistent(self):
        x = np.linspace(-2, 2, 101)
        values, codes = quantize_uniform_codes(x, 1.5, 3)
        levels = 7
        assert codes.min() >= 0 and codes.max() <= levels
        rebuilt = -1.5 + codes * (2 * 1.5 / levels)
        assert np.allclose(values, rebuilt)

    @given(st.integers(min_value=1, max_value=8), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_odd(self, b, alpha):
        x = np.random.default_rng(b).standard_normal(257) * 2
        once = quantize_uniform(x, alpha, b)
        assert np.array_equal(quantize_uniform(once, alpha, b), once)
        assert np.allclose(quantize_uniform(-x, alpha, b), -once)


class TestAlphaStar:
    def test_b1_analytic(self):
        assert abs(solve_alpha_star(1) - math.sqrt(2 / math.pi)) < 1e-4

    @pytest.mark.parametrize("key", [2, 3, 4, 5, 6, 7, 8, "fp4"])
    def test_matches_exact_cell_oracle(self, key, alpha_table):
        assert alpha_table.alpha(key) == pytest.approx(ORACLE_ALPHA[key], abs=5e-3)

    @pytest.mark.parametrize("key", [2, 3, 4, 5, 6, 7, 8, "fp4"])
    def test_local_optimality_one_percent(self, key, alpha_table):
        a = alpha_table.alpha(key)
        center = gaussian_grid_mse(a, key)
        assert center <= gaussian_grid_mse(a * 1.01, key)
        assert center <= gaussian_grid_mse(a * 0.99, key)

    def test_fp4_mse_exceeds_int4(self, alpha_table):
        assert alpha_table.mse("fp4") > alpha_table.mse(4)
        assert ORACLE_MSE["fp4"] > ORACLE_MSE[4]

    def test_achieved_mse_matches_oracle(self, alpha_table):
        for key in (1, 2, 4, 8, "fp4"):
            assert alpha_table.mse(key) == pytest.approx(ORACLE_MSE[key], rel=1e-3)

    def test_monotone_increasing_from_b1(self, alpha_table):
        alphas = [alpha_table.alpha(b) for b in range(1, 9)]
        assert all(a2 > a1 for a1, a2 in zip(alphas, alphas[1:]))

    def test_exact_cell_oracle_agrees_with_simpson(self, alpha_table):
        # dual-route check on the objective itself
        for b in (2, 4, 8):
            a = alpha_table.alpha(b)
            assert gaussian_grid_mse(a, b) == pytest.approx(
                exact_cell_mse(a, int_grid(a, b)), rel=1e-4
            )


class TestRoundFp4:
    def test_endpoint(self):
        assert round_fp4(np.array([0.999]), 1.0)[0] == pytest.approx(1.0)

    def test_nearest_arithmetic(self):
        assert round_fp4(np.array([0.40]), 1.0)[0] == pytest.approx(1 / 3, abs=1e-9)

    def test_clipping(self):
        assert round_fp4(np.array([5.0, -5.0]), 2.0).tolist() == [2.0, -2.0]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(4096) * 1.5
        alpha = 1.25
        got = round_fp4(x, alpha)
        grid = alpha * FP4_GRID
        dist = np.abs(np.clip(x, -alpha, alpha)[:, None] - grid[None, :])
        best = np.full(len(x), np.nan)
        for i in range(len(x)):
            d = dist[i]
            candidates = np.flatnonzero(d == d.min())
            even = candidates[candidates % 2 == 0]
            best[i] = grid[even[0] if len(even) else candidates[0]]
        assert np.allclose(got, best)

    def test_tie_goes_to_even_index(self):
        # midpoint between grid index 7 (0) and 8 (0.5/6): even index wins
        mid = (0.0 + 0.5 / 6.0) / 2.0
        assert round_fp4(np.array([mid]), 1.0)[0] == pytest.approx(0.5 / 6.0)


class TestSparsify:
    def test_basic_group(self):
        values, mask = sparsify_2of4(np.array([4.0, -3.0, 1.0, 0.0]))
        assert mask.tolist() == [True, True, False, False]
        assert values.tolist() == [4.0, -3.0, 0.0, 0.0]

    def test_tie_keeps_lower_index(self):
        _, mask = sparsify_2of4(np.ones(4))
        assert mask.tolist() == [True, True, False, False]

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1024)
        _, mask = sparsify_2of4(x)
        for g in range(256):
            grp = x[4 * g: 4 * g + 4]
            order = sorted(range(4), key=lambda i: (-abs(grp[i]), i))
            want = {order[0], order[1]}
            got = set(np.flatnonzero(mask[4 * g: 4 * g + 4]).tolist())
            assert got == want

    def test_exactly_two_nonzero_per_group(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((16, 64))
        values, mask = sparsify_2of4(x, axis=-1)
        nz = (values.reshape(16, 16, 4) != 0).sum(axis=-1)
        kept = mask.reshape(16, 16, 4).sum(axis=-1)
        assert np.all(kept == 2)
        assert np.all(nz <= 2)

    def test_non_divisible_axis_rejected(self):
        with pytest.raises(ValueError):
            sparsify_2of4(np.ones(6))


class TestTrustMask:
    def test_rule_arithmetic_b2(self, alpha_table):
        # the documented 0.4 -> 1/3 (trusted) and 1.5 -> 1 (untrusted) pair,
        # expressed at the fitted alpha: err and T both scale with alpha
        alpha = alpha_table.alpha(2)
        t = alpha / 3
        cfg = QuantConfig(format="int2")
        x = np.array([0.4 * alpha, 1.5 * alpha])
        xh = np.array([alpha / 3, alpha])
        mask = trust_mask(x, xh, cfg, alpha_table)
        assert mask.tolist() == [True, False]
        assert abs(xh[0] - x[0]) <= t
        assert abs(xh[1] - x[1]) > t

    def test_outer_scale_widens_trust(self, alpha_table):
        alpha = alpha_table.alpha(1)
        x = np.array([alpha * 2.2])  # err = 1.2 alpha beyond the grid end
        xh = np.array([alpha])
        narrow = trust_mask(
            x, xh, QuantConfig(format="int1", outer_trust_scale=1.0), alpha_table
        )
        wide = trust_mask(
            x, xh, QuantConfig(format="int1", outer_trust_scale=1.30), alpha_table
        )
        assert not narrow[0] and wide[0]

    def test_one_bit_outer_scale_defaults(self):
        assert QuantConfig(format="int1", hadamard=True).outer_trust_scale == 1.30
        assert QuantConfig(format="int1", hadamard=False).outer_trust_scale == 1.25
        assert QuantConfig(format="int4").outer_trust_scale == 1.0
        assert QuantConfig(format="int1", outer_trust_scale=1.1).outer_trust_scale == 1.1

    def test_untrusted_fraction_matches_normal_tail(self, alpha_table):
        # untrusted iff |x| > alpha + T for the uniform grid at s=1
        from trustquant.tensor import Rng

        cfg = QuantConfig(format="int4", hadamard=False)
        n = 1 << 18
        x = Rng(77).normal((n,), dtype=np.float64)
        alpha = alpha_table.alpha(4)
        t = alpha / 15
        xh = quantize_uniform(x, alpha, 4)
        mask = trust_mask(x, xh, cfg, alpha_table)
        frac = float(np.mean(~mask))
        expected = 2.0 * (1.0 - phi_cdf(alpha + t))
        assert frac == pytest.approx(expected, rel=0.2)

    def test_shape_mismatch(self, alpha_table):
        with pytest.raises(ValueError):
            trust_mask(np.ones(3), np.ones(4), QuantConfig(format="int4"), alpha_table)


class TestProject:
    def test_zero_group(self, alpha_table):
        res = project(np.zeros((2, 8), dtype=np.float32), QuantConfig(format="int4"), alpha_table)
        assert np.all(res.values == 0)
        assert np.all(res.trust_mask)
        assert np.all(res.scale == 0)

    def test_b1_two_point_group(self, alpha_table):
        res = project(np.array([[3.0, -3.0]]), QuantConfig(format="int1"), alpha_table)
        want = 3.0 * math.sqrt(2 / math.pi)
        assert res.values[0, 0] == pytest.approx(want, rel=1e-6)
        assert res.values[0, 1] == pytest.approx(-want, rel=1e-6)

    def test_scale_is_rms_times_alpha(self, alpha_table):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((4, 16))
        cfg = QuantConfig(format="int4")
        res = project(x, cfg, alpha_table)
        want = np.sqrt(np.mean(np.square(x), axis=1, keepdims=True)) * alpha_table.alpha(4)
        assert np.allclose(res.scale, want, rtol=1e-12)

    def test_gaussian_empirical_mse_matches_oracle(self, alpha_table):
        from trustquant.tensor import Rng

        x = Rng(4242).normal((1, 4096), dtype=np.float64)
        res = project(x, QuantConfig(format="int4"), alpha_table)
        # compare in normalized coordinates (x/rms vs values/rms)
        r = float(np.sqrt(np.mean(np.square(x))))
        emp = float(np.mean(np.square(res.values / r - x / r)))
        assert emp == pytest.approx(ORACLE_MSE[4], rel=0.05)

    def test_values_are_scaled_grid_points(self, alpha_table):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 8)).astype(np.float32)
        res = project(x, QuantConfig(format="int4"), alpha_table, with_codes=True)
        levels = 15
        rebuilt = res.scale * (2 * res.codes - levels) / levels
        assert np.allclose(res.values, rebuilt, rtol=1e-6, atol=1e-7)

    def test_interior_always_trusted(self, alpha_table):
        # untrusted entries must lie beyond alpha in normalized coordinates
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 64))
        cfg = QuantConfig(format="int3")
        res = project(x, cfg, alpha_table)
        r = np.sqrt(np.mean(np.square(x), axis=1, keepdims=True))
        x_norm = np.abs(x / r)
        assert np.all(x_norm[~res.trust_mask] > alpha_table.alpha(3))

    def test_sparse_format_masks(self, alpha_table):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((4, 16)).astype(np.float32)
        res = project(x, QuantConfig(format="int4-sparse-2of4"), alpha_table)
        assert res.sparsity_mask is not None
        kept = res.sparsity_mask.reshape(4, 4, 4).sum(axis=-1)
        assert np.all(kept == 2)
        nonzero = (res.values.reshape(4, 4, 4) != 0).sum(axis=-1)
        assert np.all(nonzero == 2)

    def test_format_none_identity(self, alpha_table):
        x = np.random.default_rng(19).standard_normal((2, 4))
        res = project(x, QuantConfig(format="none"), alpha_table)
        assert np.array_equal(res.values, x)
        assert np.all(res.trust_mask)

    def test_grouped_projection(self, alpha_table):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 16))
        cfg = QuantConfig(format="int4", group_size=4)
        res = project(x, cfg, alpha_table)
        assert res.scale.shape == (2, 4)
        grp = x.reshape(2, 4, 4)
        want = np.sqrt(np.mean(np.square(grp), axis=-1)) * alpha_table.alpha(4)
        assert np.allclose(res.scale, want, rtol=1e-12)


# --- frozen reference: project as it was before the one-buffer pipeline -----
# INT rounding, trust rule and projection copied verbatim; round_fp4 and
# sparsify_2of4 are shared because the pipeline kept them unchanged.

def reference_uniform_codes(x, alpha, b):
    levels = (1 << b) - 1
    clipped = np.clip(x, -alpha, alpha)
    t = (clipped + alpha) * (levels / (2.0 * alpha))
    codes = np.floor(t + 0.5)
    np.clip(codes, 0, levels, out=codes)
    values = (-alpha + codes * (2.0 * alpha / levels)).astype(x.dtype, copy=False)
    return values, codes.astype(np.int64)


def reference_trust_mask(x_norm, x_hat_norm, cfg, table):
    alpha = table.alpha(cfg.grid_key)
    half = alpha / 6.0 if cfg.format == "fp4" else alpha / ((1 << cfg.bits) - 1)
    t = np.where(np.abs(x_norm) <= alpha, half, cfg.outer_trust_scale * half)
    return np.abs(x_hat_norm - x_norm) <= t.astype(x_norm.dtype, copy=False)


def reference_project(x, cfg, table, axis=-1, with_codes=False):
    if cfg.format == "none":
        group_size = cfg.group_size or x.shape[axis]
        moved = np.moveaxis(x, axis, -1)
        grp = moved.reshape(moved.shape[:-1] + (moved.shape[-1] // group_size, group_size))
        scale = np.moveaxis(np.sqrt(np.mean(np.square(grp), axis=-1)), -1, axis % x.ndim)
        return x, scale, np.ones(x.shape, dtype=bool), None, None
    axis = axis % x.ndim
    group_size = cfg.group_size or x.shape[axis]
    moved = np.moveaxis(x, axis, -1)
    grouped = moved.reshape(moved.shape[:-1] + (moved.shape[-1] // group_size, group_size))
    r = np.sqrt(np.mean(np.square(grouped), axis=-1, keepdims=True))
    safe_r = np.where(r > 0, r, 1.0)
    x_norm = grouped / safe_r
    alpha = table.alpha(cfg.grid_key)
    sparsity_mask = codes = None
    if cfg.format == "fp4":
        q_norm = round_fp4(x_norm, alpha)
    elif cfg.format == "int4-sparse-2of4":
        sparse_norm, keep = sparsify_2of4(x_norm, axis=-1)
        q_sparse = reference_uniform_codes(sparse_norm, alpha, 4)[0]
        q_norm = np.where(keep, q_sparse, 0.0).astype(x.dtype, copy=False)
        sparsity_mask = keep
    else:
        q_norm, code_arr = reference_uniform_codes(x_norm, alpha, cfg.bits)
        if with_codes:
            codes = code_arr
    mask = reference_trust_mask(x_norm, q_norm, cfg, table)
    values = q_norm * safe_r
    zero_group = np.broadcast_to(r == 0, grouped.shape)
    values = np.where(zero_group, 0.0, values).astype(x.dtype, copy=False)
    mask = np.where(zero_group, True, mask)

    def restore(arr):
        return None if arr is None else np.moveaxis(arr.reshape(moved.shape), -1, axis)

    return (np.ascontiguousarray(restore(values)), np.moveaxis(r[..., 0] * alpha, -1, axis),
            restore(mask), restore(sparsity_mask), restore(codes))


def oracle_input(dtype, axis):
    """(8, 12, 16) normals with outliers far beyond alpha, a zero fiber along
    `axis` and a zero group of 4 beside a nonzero remainder."""
    rng = np.random.default_rng(31)
    x = rng.standard_normal((8, 12, 16))
    x[rng.random(x.shape) < 0.03] *= 9.0
    moved = np.moveaxis(x, axis, -1)
    moved[0, 0, :] = 0.0
    moved[1, 1, :4] = 0.0
    return x.astype(dtype)


class TestProjectOracle:
    @pytest.mark.parametrize("fmt", ["none", "fp4", "int4-sparse-2of4", *(f"int{b}" for b in range(1, 9))])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_bit_identical_to_reference(self, fmt, dtype, axis, alpha_table):
        x = oracle_input(dtype, axis)
        for group_size in (None, 4):
            cfg = QuantConfig(format=fmt, group_size=group_size)
            for with_codes in (False, True):
                got = project(x, cfg, alpha_table, axis=axis, with_codes=with_codes)
                want = reference_project(x, cfg, alpha_table, axis, with_codes)
                fields = (got.values, got.scale, got.trust_mask, got.sparsity_mask, got.codes)
                for name, g, w in zip(("values", "scale", "trust_mask", "sparsity_mask", "codes"),
                                      fields, want):
                    where = f"{name} group_size={group_size} with_codes={with_codes}"
                    if w is None:
                        assert g is None, where
                        continue
                    assert g.dtype == w.dtype and np.array_equal(g, w), where
        assert np.all(x == oracle_input(dtype, axis)), "input mutated"

    def test_grid_exercises_outliers_and_zero_groups(self, alpha_table):
        x = oracle_input(np.float32, 2)
        assert not project(x, QuantConfig(format="int4"), alpha_table).trust_mask.all()
        res = project(x, QuantConfig(format="int4", group_size=4), alpha_table)
        assert (res.scale == 0).sum() == 5  # a zero fiber of four groups, one lone group


class TestDtypes:
    @pytest.mark.parametrize("fmt", ["fp4", "int1", "int4", "int4-sparse-2of4"])
    def test_float32_stays_float32(self, fmt, alpha_table):
        x = np.random.default_rng(21).standard_normal((4, 16)).astype(np.float32)
        cfg = QuantConfig(format=fmt)
        assert trust_thresholds(x, cfg, alpha_table).dtype == np.float32
        res = project(x, cfg, alpha_table)
        assert res.values.dtype == np.float32 and res.scale.dtype == np.float32

    @pytest.mark.parametrize("fmt", ["none", "fp4", "int4", "int4-sparse-2of4"])
    def test_project_rejects_integer_input(self, fmt, alpha_table):
        x = np.array([[3, -1, 2, 5, -4, 0, 1, -2]])
        with pytest.raises(TypeError, match="int64"):
            project(x, QuantConfig(format=fmt), alpha_table)

    def test_rounding_rejects_integer_input(self):
        x = np.array([1, 0, -1])
        with pytest.raises(TypeError, match="int64"):
            quantize_uniform(x, 1.5, 2)
        with pytest.raises(TypeError, match="int64"):
            quantize_uniform_codes(x, 1.5, 2)
        with pytest.raises(TypeError, match="int64"):
            round_fp4(x, 1.5)


class TestQuantConfig:
    def test_unknown_format(self):
        with pytest.raises(ValueError):
            QuantConfig(format="int9")

    def test_bits_property(self):
        assert QuantConfig(format="int4").bits == 4
        assert QuantConfig(format="int4-sparse-2of4").bits == 4
        assert QuantConfig(format="fp4").bits is None
        assert QuantConfig(format="fp4").grid_key == "fp4"

    def test_default_outer_trust(self):
        from trustquant.quantizer import default_outer_trust_scale

        assert default_outer_trust_scale(1, True) == 1.30
        assert default_outer_trust_scale(1, False) == 1.25
        assert default_outer_trust_scale(4, True) == 1.0
