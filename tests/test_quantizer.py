import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trustquant.quantizer import (
    FORMATS,
    FP4_GRID,
    SPARSE_DROPPED,
    QuantConfig,
    alpha_star,
    gaussian_grid_mse,
    grid_values,
    project,
    round_fp4,
    round_grid,
    solve_alpha_star,
    sparsify_2of4,
    trust_mask,
)
from trustquant.tensor import Rng

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
        assert round_grid(np.array([0.4]), 1.0, 2)[0][0] == pytest.approx(1 / 3)

    def test_b1_sign_grid(self):
        out = round_grid(np.array([-0.2, 2.0]), 1.0, 1)[0]
        assert out[0] == -1.0 and out[1] == 1.0

    def test_tie_rounds_toward_plus_inf(self):
        # 0 sits exactly between -1/3 and 1/3 on the b=2 grid
        assert round_grid(np.array([0.0]), 1.0, 2)[0][0] == pytest.approx(1 / 3)

    def test_matches_exhaustive_nearest_point_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4096)
        got = round_grid(x, 1.0, 4)[0]
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
            round_grid(np.ones(3), 1.0, 9)
        with pytest.raises(ValueError):
            round_grid(np.ones(3), 1.0, 0)

    @pytest.mark.parametrize("dtype, alpha", [
        (np.float32, 3e38), (np.float32, 1.8e38), (np.float64, 1e308),
        (np.float32, math.inf), (np.float64, math.nan), (np.float64, 0.0), (np.float64, -1.0),
    ])
    def test_alpha_with_overflowing_span_rejected(self, dtype, alpha):
        # a span 2*alpha of inf once made every code -2^63
        with pytest.raises(ValueError, match="alpha must be positive with 2\\*alpha finite"):
            round_grid(np.array([3e38, 1.5e38], dtype=dtype), alpha, 4, with_codes=True)

    def test_largest_alpha_keeps_codes_in_range(self):
        alpha = float(np.finfo(np.float32).max) / 2
        values, codes = round_grid(np.float32([3e38, 1.5e38, -3e38]), alpha, 4, with_codes=True)
        assert codes.tolist() == [15, 14, 0] and np.isfinite(values).all()

    def test_codes_consistent(self):
        x = np.linspace(-2, 2, 101)
        values, codes = round_grid(x, 1.5, 3, with_codes=True)
        levels = 7
        assert codes.min() >= 0 and codes.max() <= levels
        rebuilt = -1.5 + codes * (2 * 1.5 / levels)
        assert np.allclose(values, rebuilt)

    def test_zero_d_input_gives_the_grid_value(self):
        # grid {-1, -1/3, 1/3, 1}: 0.4 rounds to 1/3, index 2, as round_fp4 does for 0-d
        assert round_grid(np.array(0.4), 1.0, 2)[0] == pytest.approx(1 / 3)
        value, code = round_grid(np.array(0.4), 1.0, 2, with_codes=True)
        assert value == pytest.approx(1 / 3) and code == 2

    @given(st.integers(min_value=1, max_value=8), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_odd(self, b, alpha):
        x = np.random.default_rng(b).standard_normal(257) * 2
        once = round_grid(x, alpha, b)[0]
        assert np.array_equal(round_grid(once, alpha, b)[0], once)
        assert np.allclose(round_grid(-x, alpha, b)[0], -once)


@given(st.data(), st.integers(1, 8), st.sampled_from([np.float32, np.float64]),
       st.one_of(st.floats(1e-30, 1e30), st.floats(0.05, 12.0)))
@settings(max_examples=200, deadline=None)
def test_int_rounding_matches_clipped_oracle(data, b, dtype, alpha):
    # the oracle clips the rounded index to [0, 2^b - 1]; round_grid needs
    # no such clip, since its input is clipped to [-alpha, alpha] first
    width = 32 if dtype == np.float32 else 64
    special = np.array([alpha, -alpha, np.nextafter(alpha, 0), 0.0, np.inf, -np.inf, np.nan])
    drawn = data.draw(hnp.arrays(dtype, st.integers(0, 32), elements=st.floats(width=width)))
    x = np.concatenate([special.astype(dtype), drawn])
    with np.errstate(invalid="ignore", over="ignore"):  # the NaN entry casts to a junk code
        values, codes = round_grid(x, alpha, b, with_codes=True)
        want_values, want_codes = reference_uniform_codes(x, alpha, b)
    real = ~np.isnan(x)
    assert values.dtype == dtype and np.array_equal(values, want_values, equal_nan=True)
    assert np.array_equal(codes[real], want_codes[real])
    assert codes[real].min() >= 0 and codes[real].max() <= (1 << b) - 1


class TestAlphaStar:
    def test_b1_analytic(self):
        assert abs(solve_alpha_star(1) - math.sqrt(2 / math.pi)) < 1e-4

    @pytest.mark.parametrize("key", [2, 3, 4, 5, 6, 7, 8, "fp4"])
    def test_matches_exact_cell_oracle(self, key):
        assert alpha_star(key) == pytest.approx(ORACLE_ALPHA[key], abs=5e-3)

    @pytest.mark.parametrize("key", [2, 3, 4, 5, 6, 7, 8, "fp4"])
    def test_local_optimality_one_percent(self, key):
        a = alpha_star(key)
        center = gaussian_grid_mse(a, key)
        assert center <= gaussian_grid_mse(a * 1.01, key)
        assert center <= gaussian_grid_mse(a * 0.99, key)

    def test_fp4_mse_exceeds_int4(self):
        assert gaussian_grid_mse(alpha_star("fp4"), "fp4") > gaussian_grid_mse(alpha_star(4), 4)
        assert ORACLE_MSE["fp4"] > ORACLE_MSE[4]

    def test_achieved_mse_matches_oracle(self):
        for key in (1, 2, 4, 8, "fp4"):
            mse = gaussian_grid_mse(alpha_star(key), key)
            assert mse == pytest.approx(ORACLE_MSE[key], rel=1e-3)

    def test_monotone_increasing_from_b1(self):
        alphas = [alpha_star(b) for b in range(1, 9)]
        assert all(a2 > a1 for a1, a2 in zip(alphas, alphas[1:]))

    def test_exact_cell_oracle_agrees_with_simpson(self):
        # dual-route check on the objective itself
        for b in (2, 4, 8):
            a = alpha_star(b)
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

    @pytest.mark.parametrize("inputs", ["edges", "normals", "beyond"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 1.25, 7.0, None], ids=str)
    def test_bitwise_equal_to_reference(self, alpha, dtype, inputs):
        # edges: every grid point and midpoint with both float neighbours,
        # +-0, +-inf and NaN; beyond: uniforms past +-alpha of either sign.
        # None stands for the FP4 grid's alpha*
        alpha = alpha_star("fp4") if alpha is None else alpha
        rng = np.random.default_rng(13)
        if inputs == "edges":
            grid = alpha * FP4_GRID
            points = np.concatenate([grid, (grid[1:] + grid[:-1]) / 2]).astype(dtype)
            x = np.concatenate([points, np.nextafter(points, dtype(np.inf)),
                                np.nextafter(points, dtype(-np.inf)),
                                np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype)])
        elif inputs == "normals":
            x = (alpha * rng.standard_normal(200_000)).astype(dtype)
        else:
            x = (rng.uniform(alpha, 4 * alpha, 200_000) * rng.choice([-1, 1], 200_000)).astype(dtype)
        got, want = round_fp4(x, alpha), reference_round_fp4(x, alpha)[0]
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


class TestSparsify:
    def test_basic_group(self):
        mask = sparsify_2of4(np.array([4.0, -3.0, 1.0, 0.0]))
        assert mask.dtype == bool and mask.tolist() == [True, True, False, False]

    def test_tie_keeps_lower_index(self):
        mask = sparsify_2of4(np.ones(4))
        assert mask.tolist() == [True, True, False, False]

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1024)
        mask = sparsify_2of4(x)
        for g in range(256):
            grp = x[4 * g: 4 * g + 4]
            order = sorted(range(4), key=lambda i: (-abs(grp[i]), i))
            want = {order[0], order[1]}
            got = set(np.flatnonzero(mask[4 * g: 4 * g + 4]).tolist())
            assert got == want

    def test_exactly_two_kept_per_group(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((16, 64))
        mask = sparsify_2of4(x)
        assert mask.shape == x.shape
        assert np.all(mask.reshape(16, 16, 4).sum(axis=-1) == 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_matches_the_frozen_sparsifier(self, dtype):
        x = np.random.default_rng(15).standard_normal((64, 32)).astype(dtype)
        x[:, ::5] = x[:, 1::5][:, :x[:, ::5].shape[1]]  # magnitude ties
        x[3] = 0.0
        assert sparsify_2of4(x).tobytes() == reference_sparsify_2of4(x)[1].tobytes()

    def test_non_divisible_axis_rejected(self):
        with pytest.raises(ValueError):
            sparsify_2of4(np.ones(6))

    def test_zero_d_input_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            sparsify_2of4(np.array(0.4))


class TestTrustMask:
    def test_rule_arithmetic_b2(self):
        # the documented 0.4 -> 1/3 (trusted) and 1.5 -> 1 (untrusted) pair,
        # expressed at the fitted alpha: err and T both scale with alpha
        alpha = alpha_star(2)
        t = alpha / 3
        cfg = QuantConfig(format="int2")
        x = np.array([0.4 * alpha, 1.5 * alpha])
        xh = np.array([alpha / 3, alpha])
        assert np.allclose(round_grid(x, alpha, 2)[0], xh)
        mask = trust_mask(x, cfg, None)
        assert mask.tolist() == [True, False]
        assert abs(xh[0] - x[0]) <= t
        assert abs(xh[1] - x[1]) > t

    def test_outer_scale_widens_trust(self):
        alpha = alpha_star(1)
        x = np.array([alpha * 2.2])  # err = 1.2 alpha beyond the grid end
        narrow = trust_mask(x, QuantConfig(format="int1", outer_trust_scale=1.0), None)
        wide = trust_mask(x, QuantConfig(format="int1", outer_trust_scale=1.30), None)
        assert not narrow[0] and wide[0]

    def test_dropped_entry_error_is_its_magnitude(self):
        # a 2:4-dropped entry rounds to 0: trusted when |x| <= T inside alpha
        # and |x| <= s*T beyond, which needs s > 15 at 4 bits
        alpha = alpha_star(4)
        t = alpha / 15
        x = np.array([0.5 * t, 2 * t, 1.1 * alpha, 1.05 * alpha])
        keep = np.array([False, False, False, True])
        narrow = trust_mask(x, QuantConfig(format="int4-sparse-2of4"), keep)
        wide = trust_mask(x, QuantConfig(format="int4-sparse-2of4", outer_trust_scale=20.0), keep)
        assert narrow.tolist() == [True, False, False, True]
        assert wide.tolist() == [True, False, True, True]

    def test_one_bit_outer_scale_defaults(self):
        assert QuantConfig(format="int1", hadamard=True).trust_scale == 1.30
        assert QuantConfig(format="int1", hadamard=False).trust_scale == 1.25
        assert QuantConfig(format="int4").trust_scale == 1.0
        assert QuantConfig(format="int1", outer_trust_scale=1.1).trust_scale == 1.1

    def test_default_scale_follows_replace(self):
        assert replace(QuantConfig(format="int4"), format="int1").trust_scale == 1.30
        assert replace(QuantConfig(format="int1"), hadamard=False).trust_scale == 1.25
        given = QuantConfig(format="int4", outer_trust_scale=1.1)
        assert replace(given, format="int1").trust_scale == 1.1

    def test_untrusted_fraction_matches_normal_tail(self):
        # untrusted iff |x| > alpha + T for the uniform grid at s=1
        cfg = QuantConfig(format="int4", hadamard=False)
        n = 1 << 18
        x = Rng(77).normal((n,), dtype=np.float64)
        alpha = alpha_star(4)
        t = alpha / 15
        mask = trust_mask(x, cfg, None)
        frac = float(np.mean(~mask))
        expected = 2.0 * (1.0 - phi_cdf(alpha + t))
        assert frac == pytest.approx(expected, rel=0.2)


class TestProject:
    def test_zero_group(self):
        res = project(np.zeros((2, 8), dtype=np.float32), QuantConfig(format="int4"))
        assert np.all(res.values == 0)
        assert np.all(res.trust_mask)
        assert np.all(res.scale == 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_non_finite_group_is_nan(self, fmt, bad):
        # a NaN or inf must not come out finite: its whole group reads NaN
        cfg = QuantConfig(format=fmt, group_size=4)
        x = np.array([[bad, 1.0, 2.0, 3.0, 0.5, 0.25, -1.0, -2.0],
                      [0.3, -0.7, 1.1, 0.2, 2.0, -1.5, 0.4, 0.9]], dtype=np.float32)
        got = project(x, cfg).values
        finite = x.copy()
        finite[0, :4] = 1.0
        want = project(finite, cfg).values
        assert got.dtype == np.float32
        assert np.isnan(got[0, :4]).all()
        assert got[0, 4:].tobytes() == want[0, 4:].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_b1_two_point_group(self):
        res = project(np.array([[3.0, -3.0]]), QuantConfig(format="int1"))
        want = 3.0 * math.sqrt(2 / math.pi)
        assert res.values[0, 0] == pytest.approx(want, rel=1e-6)
        assert res.values[0, 1] == pytest.approx(-want, rel=1e-6)

    def test_scale_is_rms_times_alpha(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((4, 16))
        cfg = QuantConfig(format="int4")
        res = project(x, cfg)
        want = np.sqrt(np.mean(np.square(x), axis=1, keepdims=True)) * alpha_star(4)
        assert np.allclose(res.scale, want, rtol=1e-12)

    def test_gaussian_empirical_mse_matches_oracle(self):
        x = Rng(4242).normal((1, 4096), dtype=np.float64)
        res = project(x, QuantConfig(format="int4"))
        # compare in normalized coordinates (x/rms vs values/rms)
        r = float(np.sqrt(np.mean(np.square(x))))
        emp = float(np.mean(np.square(res.values / r - x / r)))
        assert emp == pytest.approx(ORACLE_MSE[4], rel=0.05)

    def test_values_are_scaled_grid_points(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 8)).astype(np.float32)
        res = project(x, QuantConfig(format="int4"), with_codes=True)
        levels = 15
        assert res.codes.dtype == np.uint8  # widened below: 2 * code - 15 wraps in uint8
        rebuilt = res.scale * (2 * res.codes.astype(np.int64) - levels) / levels
        assert np.allclose(res.values, rebuilt, rtol=1e-6, atol=1e-7)

    def test_interior_always_trusted(self):
        # untrusted entries must lie beyond alpha in normalized coordinates
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 64))
        cfg = QuantConfig(format="int3")
        res = project(x, cfg)
        r = np.sqrt(np.mean(np.square(x), axis=1, keepdims=True))
        x_norm = np.abs(x / r)
        assert np.all(x_norm[~res.trust_mask] > alpha_star(3))

    def test_interior_always_trusted_float32(self):
        # float32, where the rounded grid value of an interior coordinate can
        # sit more than T from it; a 2:4-dropped entry rounds to 0 and may be
        # untrusted inside alpha, so only kept entries count
        x = Rng(3).normal((1024, 1024))
        r = np.sqrt(np.mean(np.square(x, dtype=np.float64), axis=1, keepdims=True))
        x_norm = np.abs(x / r)
        wrong = {}
        for fmt in PROJECTING:
            cfg = QuantConfig(format=fmt)
            res = project(x, cfg)
            untrusted = ~res.trust_mask
            if res.sparsity_mask is not None:
                untrusted &= res.sparsity_mask
            count = int((x_norm[untrusted] <= alpha_star(cfg.grid_key)).sum())
            if count:
                wrong[fmt] = count
        assert not wrong, f"interior coordinates untrusted: {wrong}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_in_nonzero_group_trusted(self, dtype):
        # its rounding error is at most T, whichever way float rounding of
        # the grid value goes; 2:4 keeps one of the three leading zeros
        x = np.random.default_rng(22).standard_normal((8, 16)).astype(dtype)
        x[:, :3] = 0.0
        x[:, 9] = 0.0
        zeros = x == 0
        wrong = [fmt for fmt in PROJECTING
                 if not project(x, QuantConfig(format=fmt)).trust_mask[zeros].all()]
        assert not wrong, f"an exact zero is untrusted for {wrong}"

    def test_sparse_format_masks(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((4, 16)).astype(np.float32)
        res = project(x, QuantConfig(format="int4-sparse-2of4"))
        assert res.sparsity_mask is not None
        kept = res.sparsity_mask.reshape(4, 4, 4).sum(axis=-1)
        assert np.all(kept == 2)
        nonzero = (res.values.reshape(4, 4, 4) != 0).sum(axis=-1)
        assert np.all(nonzero == 2)

    def test_format_none_identity(self):
        x = np.random.default_rng(19).standard_normal((2, 4))
        res = project(x, QuantConfig(format="none"))
        assert np.array_equal(res.values, x)
        assert np.all(res.trust_mask)

    def test_grouped_projection(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 16))
        cfg = QuantConfig(format="int4", group_size=4)
        res = project(x, cfg)
        assert res.scale.shape == (2, 4)
        grp = x.reshape(2, 4, 4)
        want = np.sqrt(np.mean(np.square(grp), axis=-1)) * alpha_star(4)
        assert np.allclose(res.scale, want, rtol=1e-12)

    @pytest.mark.parametrize("fmt", ["none", "int4"])
    def test_zero_d_input_rejected(self, fmt):
        with pytest.raises(ValueError, match="at least one axis"):
            project(np.array(0.4), QuantConfig(format=fmt))


# --- frozen reference: project as it was before the one-buffer pipeline -----
# INT rounding, FP4 rounding, 2:4 sparsification, trust rule and projection
# copied verbatim. The codes the reference returns are uint8: every format's
# as `project` defines them (INT and FP4 grid indices; for 2:4, INT4 indices
# and SPARSE_DROPPED at a dropped entry).

def reference_round_fp4(x, alpha):
    x = np.asarray(x)
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
    return grid[idx].astype(x.dtype, copy=False), idx.astype(np.uint8)


def reference_sparsify_2of4(x):
    x = np.asarray(x)
    extent = x.shape[-1]
    grouped = x.reshape(x.shape[:-1] + (extent // 4, 4))
    order = np.argsort(-np.abs(grouped), axis=-1, kind="stable")
    keep = np.zeros(grouped.shape, dtype=bool)
    np.put_along_axis(keep, order[..., :2], True, axis=-1)
    keep = keep.reshape(x.shape)
    return np.where(keep, x, np.zeros((), dtype=x.dtype)), keep


def reference_uniform_codes(x, alpha, b):
    levels = (1 << b) - 1
    clipped = np.clip(x, -alpha, alpha)
    t = (clipped + alpha) * (levels / (2.0 * alpha))
    codes = np.floor(t + 0.5)
    np.clip(codes, 0, levels, out=codes)
    values = (-alpha + codes * (2.0 * alpha / levels)).astype(x.dtype, copy=False)
    return values, codes.astype(np.uint8)


def reference_trust_mask(x_norm, x_hat_norm, cfg):
    alpha = alpha_star(cfg.grid_key)
    half = alpha / 6.0 if cfg.format == "fp4" else alpha / ((1 << cfg.bits) - 1)
    t = np.where(np.abs(x_norm) <= alpha, half, cfg.trust_scale * half)
    return np.abs(x_hat_norm - x_norm) <= t.astype(x_norm.dtype, copy=False)


def reference_project(x, cfg, axis=-1, with_codes=False):
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
    alpha = alpha_star(cfg.grid_key)
    sparsity_mask = codes = None
    if cfg.format == "fp4":
        q_norm, code_arr = reference_round_fp4(x_norm, alpha)
    elif cfg.format == "int4-sparse-2of4":
        sparse_norm, keep = reference_sparsify_2of4(x_norm)
        q_sparse = reference_uniform_codes(sparse_norm, alpha, 4)[0]
        q_norm = np.where(keep, q_sparse, 0.0).astype(x.dtype, copy=False)
        sparsity_mask = keep
        code_arr = np.where(keep, reference_uniform_codes(x_norm, alpha, 4)[1],
                            SPARSE_DROPPED).astype(np.uint8)
    else:
        q_norm, code_arr = reference_uniform_codes(x_norm, alpha, cfg.bits)
    if with_codes:
        codes = code_arr
    mask = reference_trust_mask(x_norm, q_norm, cfg)
    values = q_norm * safe_r
    zero_group = np.broadcast_to(r == 0, grouped.shape)
    values = np.where(zero_group, 0.0, values).astype(x.dtype, copy=False)
    mask = np.where(zero_group, True, mask)

    def restore(arr):
        return None if arr is None else np.moveaxis(arr.reshape(moved.shape), -1, axis)

    return (np.ascontiguousarray(restore(values)), np.moveaxis(r[..., 0] * alpha, -1, axis),
            restore(mask), restore(sparsity_mask), restore(codes))


def interior(x, cfg):
    """|x / r| <= alpha* per coordinate, r the group RMS as reference_project
    takes it: where the closed-form trust rule trusts every kept entry."""
    group_size = cfg.group_size or x.shape[-1]
    grouped = x.reshape(x.shape[:-1] + (x.shape[-1] // group_size, group_size))
    r = np.sqrt(np.mean(np.square(grouped), axis=-1, keepdims=True))
    x_norm = np.abs(grouped / np.where(r > 0, r, 1.0)).astype(np.float64)
    return (x_norm <= alpha_star(cfg.grid_key)).reshape(x.shape)


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


PROJECTING = [fmt for fmt in FORMATS if fmt != "none"]


class TestProjectOracle:
    @pytest.mark.parametrize("fmt", ["none", "fp4", "int4-sparse-2of4", *(f"int{b}" for b in range(1, 9))])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_bit_identical_to_reference(self, fmt, dtype, axis):
        # `axis` of the oracle input becomes the projected last axis: a
        # strided view for 0 and 1, the contiguous array for 2. The reference
        # masked by the rounded residual, whose float rounding could leave a
        # kept entry inside alpha* untrusted (an exact zero in a nonzero row);
        # the closed form trusts every one of those, and differs nowhere else
        x = np.moveaxis(oracle_input(dtype, axis), axis, -1)
        for group_size in (None, 4):
            cfg = QuantConfig(format=fmt, group_size=group_size)
            for with_codes in (False, True):
                got = project(x, cfg, with_codes=with_codes)
                want = list(reference_project(x, cfg, -1, with_codes))
                if fmt != "none":
                    kept = True if want[3] is None else want[3]
                    want[2] = want[2] | (interior(x, cfg) & kept)
                fields = (got.values, got.scale, got.trust_mask, got.sparsity_mask, got.codes)
                for name, g, w in zip(("values", "scale", "trust_mask", "sparsity_mask", "codes"),
                                      fields, want):
                    where = f"{name} group_size={group_size} with_codes={with_codes}"
                    if w is None:
                        assert g is None, where
                        continue
                    assert g.dtype == w.dtype and np.array_equal(g, w), where
        assert np.all(x == np.moveaxis(oracle_input(dtype, axis), axis, -1)), "input mutated"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fmt", PROJECTING)
    def test_non_finite_group_is_nan_and_the_rest_matches_reference(self, fmt, dtype, bad):
        # one NaN or inf in the oracle input: its group reads all NaN, and
        # every other value, scale, code and mask is the reference's bits
        # (the mask widened at interior kept entries as above)
        x = oracle_input(dtype, 2)
        x[2, 3, 5] = bad
        for group_size in (None, 4):
            cfg = QuantConfig(format=fmt, group_size=group_size)
            width = group_size or x.shape[-1]
            inside = np.zeros(x.shape, dtype=bool)
            inside[2, 3, 5 // width * width: (5 // width + 1) * width] = True
            outside_group = np.ones(x.shape[:-1] + (x.shape[-1] // width,), dtype=bool)
            outside_group[2, 3, 5 // width] = False
            for with_codes in (False, True):
                with np.errstate(invalid="ignore"):
                    got = project(x, cfg, with_codes=with_codes)
                    want = list(reference_project(x, cfg, -1, with_codes))
                    want[2] = want[2] | (interior(x, cfg) & (True if want[3] is None else want[3]))
                where = f"group_size={group_size} with_codes={with_codes}"
                assert np.isnan(got.values[inside]).all(), where
                assert np.array_equal(got.scale[outside_group], want[1][outside_group]), where
                for name, g, w in zip(("values", "trust_mask", "sparsity_mask", "codes"),
                                      (got.values, got.trust_mask, got.sparsity_mask, got.codes),
                                      want[:1] + want[2:]):
                    if w is None:
                        assert g is None, f"{name} {where}"
                        continue
                    assert g.dtype == w.dtype and np.array_equal(g[~inside], w[~inside]), \
                        f"{name} {where}"

    @given(st.sampled_from(PROJECTING), st.sampled_from([np.float32, np.float64]),
           st.sampled_from([None, 4]), st.integers(-20, 20), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_is_exact(self, fmt, dtype, group_size, j, rows, groups, seed):
        x = np.random.default_rng(seed).standard_normal((rows, 4 * groups)).astype(dtype)
        cfg = QuantConfig(format=fmt, group_size=group_size)
        c = dtype(2.0 ** j)
        base = project(x, cfg, with_codes=True)
        scaled = project(x * c, cfg, with_codes=True)
        assert scaled.values.tobytes() == (base.values * c).tobytes()
        assert scaled.scale.tobytes() == (base.scale * c).tobytes()
        for name in ("trust_mask", "sparsity_mask", "codes"):
            got, want = getattr(scaled, name), getattr(base, name)
            assert (got is None and want is None) or np.array_equal(got, want), name

    @given(st.sampled_from(["int4", "fp4", "int4-sparse-2of4", "int1"]),
           st.sampled_from([np.float32, np.float64]), st.sampled_from([None, 4]),
           st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_permutation_commutes(self, fmt, dtype, group_size, rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, 16)).astype(dtype)
        perm = rng.permutation(rows)
        cfg = QuantConfig(format=fmt, group_size=group_size)
        base, permuted = project(x, cfg), project(x[perm], cfg)
        for name in ("values", "scale", "trust_mask", "sparsity_mask"):
            got, want = getattr(permuted, name), getattr(base, name)
            assert (got is None and want is None) or got.tobytes() == want[perm].tobytes(), name

    def test_grid_exercises_outliers_and_zero_groups(self):
        x = oracle_input(np.float32, 2)
        assert not project(x, QuantConfig(format="int4")).trust_mask.all()
        res = project(x, QuantConfig(format="int4", group_size=4))
        assert (res.scale == 0).sum() == 5  # a zero fiber of four groups, one lone group


class TestCodes:
    """`project(..., with_codes=True)` returns uint8 codes for every
    projecting format, and `grid_values` rebuilds the values from them."""

    @pytest.mark.parametrize("group_size", [None, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fmt", PROJECTING)
    def test_rebuild_is_bitwise(self, fmt, dtype, group_size):
        x = (np.random.default_rng(61).standard_normal((24, 64)) * 3).astype(dtype)
        x[2] = 0.0  # zero-RMS groups: a whole row, and one group in a nonzero row
        x[3, 32:] = 0.0
        x[4, 7] = np.nan  # a non-finite group rebuilds as NaN
        x[5, 40] = -np.inf
        cfg = QuantConfig(format=fmt, group_size=group_size)
        res = project(x, cfg, with_codes=True)
        top = SPARSE_DROPPED if fmt == "int4-sparse-2of4" else len(FP4_GRID) - 1 \
            if fmt == "fp4" else (1 << cfg.bits) - 1
        assert res.codes.dtype == np.uint8 and res.codes.shape == x.shape
        assert res.codes.max() <= top
        assert res.rescale.dtype == dtype and res.rescale.shape == res.scale.shape
        out = np.full_like(x, 7.0)
        assert grid_values(res.codes, res.rescale, cfg, out) is out
        assert out.tobytes() == res.values.tobytes()

    @pytest.mark.parametrize("fmt", PROJECTING)
    def test_without_codes_the_values_are_the_same(self, fmt):
        x = np.random.default_rng(62).standard_normal((4, 16)).astype(np.float32)
        cfg = QuantConfig(format=fmt)
        assert project(x, cfg).codes is None
        assert project(x, cfg).values.tobytes() == project(x, cfg, with_codes=True).values.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fmt", PROJECTING)
    def test_non_finite_group_codes_are_a_zero_group_codes(self, fmt, dtype):
        # a group holding a NaN or an inf gets the in-range codes of a zero
        # group, with no cast warning; its NaN rescale makes the values NaN
        cfg = QuantConfig(format=fmt, group_size=4)
        x = np.array([[np.inf, 1.0, 2.0, 3.0, 0.5, 0.25, -1.0, -2.0],
                      [0.3, np.nan, 1.1, 0.2, 0.0, 0.0, 0.0, 0.0]], dtype=dtype)
        res = project(x, cfg, with_codes=True)
        zero = project(np.zeros((1, 4), dtype), cfg, with_codes=True).codes[0, 0]
        kept = True if res.sparsity_mask is None else res.sparsity_mask
        want = np.where(kept, zero, SPARSE_DROPPED)  # 2:4 still drops two of four
        assert np.array_equal(res.codes[:, :4], np.broadcast_to(want, x.shape)[:, :4])
        assert np.array_equal(res.codes[1, 4:], np.broadcast_to(want, x.shape)[1, 4:])
        assert np.isnan(res.rescale[:, 0]).all() and np.isfinite(res.rescale[:, 1]).all()
        assert np.isnan(res.values[:, :4]).all() and not np.isnan(res.values[:, 4:]).any()


class TestDtypes:
    @pytest.mark.parametrize("fmt", ["fp4", "int1", "int4", "int4-sparse-2of4"])
    def test_float32_stays_float32(self, fmt):
        x = np.random.default_rng(21).standard_normal((4, 16)).astype(np.float32)
        cfg = QuantConfig(format=fmt)
        res = project(x, cfg)
        assert res.values.dtype == np.float32 and res.scale.dtype == np.float32

    @pytest.mark.parametrize("fmt", ["none", "fp4", "int4", "int4-sparse-2of4"])
    def test_project_rejects_integer_input(self, fmt):
        x = np.array([[3, -1, 2, 5, -4, 0, 1, -2]])
        with pytest.raises(TypeError, match="int64"):
            project(x, QuantConfig(format=fmt))

    def test_rounding_rejects_integer_input(self):
        x = np.array([1, 0, -1])
        with pytest.raises(TypeError, match="int64"):
            round_grid(x, 1.5, 2)
        with pytest.raises(TypeError, match="int64"):
            round_grid(x, 1.5, 2, with_codes=True)
        with pytest.raises(TypeError, match="int64"):
            round_fp4(x, 1.5)


class TestQuantConfig:
    def test_unknown_format(self):
        with pytest.raises(ValueError):
            QuantConfig(format="int9")

    @pytest.mark.parametrize("group_size", [0, -4, 2.0, "4"])
    def test_group_size_must_be_positive_int(self, group_size):
        with pytest.raises(ValueError, match="group_size"):
            QuantConfig(format="int4", group_size=group_size)

    @pytest.mark.parametrize("field", ["hadamard", "weight_only"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_switches_must_be_bools(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a bool"):
            QuantConfig(format="int4", **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.3, True])
    def test_outer_trust_scale_must_be_finite_positive(self, value):
        with pytest.raises(ValueError, match="outer_trust_scale must be finite and positive"):
            QuantConfig(format="int1", outer_trust_scale=value)

    def test_bits_property(self):
        assert QuantConfig(format="int4").bits == 4
        assert QuantConfig(format="int4-sparse-2of4").bits == 4
        assert QuantConfig(format="fp4").bits is None
        assert QuantConfig(format="fp4").grid_key == "fp4"

    def test_default_outer_trust(self):
        from trustquant.quantizer import FORMATS

        for fmt in FORMATS:
            for hadamard in (True, False):
                want = (1.30 if hadamard else 1.25) if fmt == "int1" else 1.0
                assert QuantConfig(format=fmt, hadamard=hadamard).trust_scale == want
