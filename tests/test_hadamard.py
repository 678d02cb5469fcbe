import time

import numpy as np
import pytest

from trustquant import hadamard
from trustquant.hadamard import HadamardPlan, ht, iht


def dense_sylvester(n):
    """Independent dense oracle: recursive orthonormal Sylvester matrix."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.vstack([np.hstack([h, h]), np.hstack([h, -h])])
    return h / np.sqrt(n)


def dense_plan(plan):
    """Dense block-diagonal oracle: one Sylvester block per plan block."""
    h = np.zeros((plan.n, plan.n))
    start = 0
    for b in plan.blocks:
        h[start:start + b, start:start + b] = dense_sylvester(b)
        start += b
    return h


class TestPlan:
    def test_power_of_two(self):
        assert HadamardPlan(1024).blocks == (1024,)

    def test_block_diagonal_640(self):
        assert HadamardPlan(640).blocks == (512, 128)

    def test_block_diagonal_1664(self):
        assert HadamardPlan(1664).blocks == (1024, 512, 128)

    def test_bad_blocks_rejected(self):
        with pytest.raises(ValueError):
            HadamardPlan(10, blocks=(3, 7))

    def test_blocks_must_sum(self):
        with pytest.raises(ValueError):
            HadamardPlan(8, blocks=(4, 2))


class TestTransform:
    def test_n2(self):
        out = ht(np.array([1.0, 1.0]), HadamardPlan(2))
        assert np.allclose(out, [1.41421356, 0.0], atol=1e-8)

    def test_n4_impulse(self):
        out = ht(np.array([1.0, 0.0, 0.0, 0.0]), HadamardPlan(4))
        assert np.allclose(out, [0.5, 0.5, 0.5, 0.5])

    def test_inverse_of_n2(self):
        assert np.allclose(iht(np.array([1.41421356, 0.0]), HadamardPlan(2)), [1.0, 1.0])

    def test_norm_preserved_1024(self):
        x = np.random.default_rng(0).standard_normal(1024)
        assert abs(np.linalg.norm(ht(x, HadamardPlan(1024))) / np.linalg.norm(x) - 1) < 1e-5

    def test_dense_oracle_n16(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 16))
        want = x @ dense_sylvester(16).T
        assert np.max(np.abs(ht(x, HadamardPlan(16)) - want)) < 1e-12

    def test_iht_equals_transpose_oracle_n16(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 16))
        want = x @ dense_sylvester(16)  # H^T = H for Sylvester, transpose explicit
        assert np.max(np.abs(iht(x, HadamardPlan(16)) - want)) < 1e-12

    @pytest.mark.parametrize("n", [2, 8, 64, 640, 1024])
    def test_round_trip_f32(self, n):
        x = np.random.default_rng(n).standard_normal(n).astype(np.float32)
        back = iht(ht(x, HadamardPlan(n)), HadamardPlan(n))
        assert np.max(np.abs(back - x)) < 1e-5

    @pytest.mark.parametrize("n", [4, 96, 640])
    def test_round_trip_f64(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        back = iht(ht(x, HadamardPlan(n)), HadamardPlan(n))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ValueError, match="extent"):
            ht(np.ones(8), HadamardPlan(16))

    def test_axis_argument(self):
        x = np.random.default_rng(3).standard_normal((4, 8, 3))
        out = ht(x, HadamardPlan(8), axis=1)
        want = np.moveaxis(ht(np.moveaxis(x, 1, -1), HadamardPlan(8)), -1, 1)
        assert np.allclose(out, want)


class TestFactoredOracle:
    @pytest.mark.parametrize("n", [1 << k for k in range(11)])
    def test_powers_of_two_match_dense_f64(self, n):
        x = np.random.default_rng(n).standard_normal((6, n))
        assert np.max(np.abs(ht(x, HadamardPlan(n)) - x @ dense_sylvester(n).T)) < 1e-12

    @pytest.mark.parametrize("n", [640, 1792])
    def test_block_diagonal_widths_match_dense(self, n):
        plan = HadamardPlan(n)
        x = np.random.default_rng(n).standard_normal((5, n))
        assert np.max(np.abs(ht(x, plan) - x @ dense_plan(plan).T)) < 1e-12

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_each_axis_of_non_contiguous_input(self, axis):
        x = np.random.default_rng(7).standard_normal((8, 12, 10, 2))[..., 0]
        assert not x.flags.c_contiguous
        plan = HadamardPlan(x.shape[axis])
        want = np.moveaxis(np.moveaxis(x, axis, -1) @ dense_plan(plan).T, -1, axis)
        assert np.max(np.abs(ht(x, plan, axis=axis) - want)) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_kept_and_input_untouched(self, dtype):
        x = np.random.default_rng(8).standard_normal((4, 640)).astype(dtype)
        before = x.copy()
        out = ht(x, HadamardPlan(640))
        assert out.dtype == dtype and iht(out, HadamardPlan(640)).dtype == dtype
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [1, 2, 32, 1024])
    def test_output_does_not_alias_read_only_blocks(self, n):
        out = ht(np.ones((3, n)), HadamardPlan(n))
        for f in hadamard._factors(n):
            block = hadamard._sylvester(f, np.dtype(np.float64))
            assert not np.shares_memory(out, block)
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0

    @pytest.mark.parametrize("fn", [ht, iht])
    def test_non_floating_input_rejected(self, fn):
        with pytest.raises(TypeError, match="int64"):
            fn(np.arange(8, dtype=np.int64), HadamardPlan(8))


class TestProperties:
    def test_inner_products_preserved(self):
        rng = np.random.default_rng(4)
        plan = HadamardPlan(256)
        x, y = rng.standard_normal(256), rng.standard_normal(256)
        assert ht(x, plan) @ ht(y, plan) == pytest.approx(x @ y, rel=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        plan = HadamardPlan(64)
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        a, b = 2.5, -1.25
        assert np.allclose(ht(a * x + b * y, plan), a * ht(x, plan) + b * ht(y, plan))

    def test_unitarity_aligns_products_f32(self):
        # with quantization disabled, transformed operands give the same product
        rng = np.random.default_rng(6)
        plan = HadamardPlan(64)
        x = rng.standard_normal((32, 64)).astype(np.float32)
        w = rng.standard_normal((16, 64)).astype(np.float32)
        exact = x @ w.T
        transformed = ht(x, plan) @ ht(w, plan).T
        rel = np.linalg.norm(transformed - exact) / np.linalg.norm(exact)
        assert rel < 1e-4

    def test_runtime_scales_n_log_n(self):
        # both widths are timed in every repetition, so a noise burst on a
        # shared host slows both; best-of over many repetitions drops it
        rows, reps = 64, 40
        cases = {}
        for n in (1024, 4096):
            x = np.random.default_rng(n).standard_normal((rows, n)).astype(np.float32)
            cases[n] = (x, HadamardPlan(n))
            ht(*cases[n])  # warm up
        best = dict.fromkeys(cases, float("inf"))
        for _ in range(reps):
            for n, (x, plan) in cases.items():
                t0 = time.perf_counter()
                ht(x, plan)
                best[n] = min(best[n], time.perf_counter() - t0)

        ratio = best[4096] / best[1024]
        assert ratio < 6.0, f"timing ratio {ratio:.2f}"
