import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustquant import hadamard
from trustquant.hadamard import _blocks, ht, iht


def dense_sylvester(n):
    """Independent dense oracle: recursive orthonormal Sylvester matrix."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.vstack([np.hstack([h, h]), np.hstack([h, -h])])
    return h / np.sqrt(n)


def dense_blocks(n):
    """Dense block-diagonal oracle: one Sylvester block per power-of-two block."""
    h = np.zeros((n, n))
    start = 0
    for b in _blocks(n):
        h[start:start + b, start:start + b] = dense_sylvester(b)
        start += b
    return h


class TestPlan:
    def test_power_of_two(self):
        assert _blocks(1024) == (1024,)

    def test_block_diagonal_640(self):
        assert _blocks(640) == (512, 128)

    def test_block_diagonal_1664(self):
        assert _blocks(1664) == (1024, 512, 128)


class TestTransform:
    def test_n2(self):
        out = ht(np.array([1.0, 1.0]))
        assert np.allclose(out, [1.41421356, 0.0], atol=1e-8)

    def test_n4_impulse(self):
        out = ht(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out, [0.5, 0.5, 0.5, 0.5])

    def test_inverse_of_n2(self):
        assert np.allclose(iht(np.array([1.41421356, 0.0])), [1.0, 1.0])

    def test_norm_preserved_1024(self):
        x = np.random.default_rng(0).standard_normal(1024)
        assert abs(np.linalg.norm(ht(x)) / np.linalg.norm(x) - 1) < 1e-5

    def test_dense_oracle_n16(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 16))
        want = x @ dense_sylvester(16).T
        assert np.max(np.abs(ht(x) - want)) < 1e-12

    def test_iht_equals_transpose_oracle_n16(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 16))
        want = x @ dense_sylvester(16)  # H^T = H for Sylvester, transpose explicit
        assert np.max(np.abs(iht(x) - want)) < 1e-12

    @pytest.mark.parametrize("n", [2, 8, 64, 640, 1024])
    def test_round_trip_f32(self, n):
        x = np.random.default_rng(n).standard_normal(n).astype(np.float32)
        back = iht(ht(x))
        assert np.max(np.abs(back - x)) < 1e-5

    @pytest.mark.parametrize("n", [4, 96, 640])
    def test_round_trip_f64(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        back = iht(ht(x))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_zero_length_axis_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ht(np.ones((3, 0)))

    @pytest.mark.parametrize("fn", [ht, iht])
    def test_zero_d_input_rejected(self, fn):
        with pytest.raises(ValueError, match="at least one axis"):
            fn(np.array(0.4))



class TestFactoredOracle:
    @pytest.mark.parametrize("n", [1 << k for k in range(11)])
    def test_powers_of_two_match_dense_f64(self, n):
        x = np.random.default_rng(n).standard_normal((6, n))
        assert np.max(np.abs(ht(x) - x @ dense_sylvester(n).T)) < 1e-12

    @pytest.mark.parametrize("n", [640, 1792])
    def test_block_diagonal_widths_match_dense(self, n):
        x = np.random.default_rng(n).standard_normal((5, n))
        assert np.max(np.abs(ht(x) - x @ dense_blocks(n).T)) < 1e-12

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_each_axis_of_non_contiguous_input(self, axis):
        # each axis of a strided array in turn becomes the transformed last axis
        x = np.random.default_rng(7).standard_normal((8, 12, 10, 2))[..., 0]
        x = np.moveaxis(x, axis, -1)
        assert x.strides[-1] != x.itemsize
        assert np.max(np.abs(ht(x) - x @ dense_blocks(x.shape[-1]).T)) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_kept_and_input_untouched(self, dtype):
        x = np.random.default_rng(8).standard_normal((4, 640)).astype(dtype)
        before = x.copy()
        out = ht(x)
        assert out.dtype == dtype and iht(out).dtype == dtype
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [1, 2, 32, 1024])
    def test_output_does_not_alias_read_only_blocks(self, n):
        out = ht(np.ones((3, n)))
        for f in hadamard._factors(n):
            block = hadamard._sylvester(f, np.dtype(np.float64))
            assert not np.shares_memory(out, block)
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0

    @pytest.mark.parametrize("fn", [ht, iht])
    def test_non_floating_input_rejected(self, fn):
        with pytest.raises(TypeError, match="int64"):
            fn(np.arange(8, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [128, 512, 640, 1792])
    def test_one_row_has_its_bits_in_a_batch(self, n, dtype):
        # numpy multiplies a single row by gemv, whose float64 bits differ from gemm's
        x = np.random.default_rng(n).standard_normal((8, n)).astype(dtype)
        batch = ht(x)
        for i in range(len(x)):
            assert ht(x[i:i + 1]).tobytes() == batch[i:i + 1].tobytes(), i
            assert ht(x[i]).tobytes() == batch[i].tobytes(), i

    @pytest.mark.parametrize("fn", [ht, iht])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, n", [(1, 640), (5, 128), (3, 1792)])
    def test_out_may_be_the_input(self, fn, dtype, rows, n):
        x = np.random.default_rng(rows).standard_normal((rows, n)).astype(dtype)
        want = fn(x)
        out = np.empty_like(x)
        assert fn(x, out=out) is out and out.tobytes() == want.tobytes()
        first = x[0].copy()
        tile = x[1:] if rows > 1 else x  # a row slice, as qlinear's backward passes
        assert fn(tile, out=tile) is tile
        assert tile.tobytes() == want[len(x) - len(tile):].tobytes()
        assert rows == 1 or x[0].tobytes() == first.tobytes()

    @pytest.mark.parametrize("shape, dtype", [((4, 64), np.float64), ((4, 32), np.float32)])
    def test_out_of_another_shape_or_dtype_rejected(self, shape, dtype):
        with pytest.raises(ValueError, match="output"):
            ht(np.ones((4, 32)), out=np.empty(shape, dtype))


class TestProperties:
    @given(st.lists(st.integers(1, 4), max_size=2), st.integers(1, 300),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_orthonormal_involution(self, lead, n, dtype, seed):
        tol = 1e-5 if dtype == np.float32 else 1e-12
        h = ht(np.eye(n, dtype=dtype))  # rows: the transform of each basis vector
        assert h.dtype == dtype
        assert np.max(np.abs(h @ h.T - np.eye(n))) < tol
        assert np.max(np.abs(h @ h - np.eye(n))) < tol
        x = np.random.default_rng(seed).standard_normal((*lead, n)).astype(dtype)
        assert np.max(np.abs(iht(ht(x)) - x)) < tol * max(1.0, np.abs(x).max())
        norms = np.linalg.norm(ht(x), axis=-1) / np.linalg.norm(x, axis=-1)
        assert np.max(np.abs(norms - 1)) < tol

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(256), rng.standard_normal(256)
        assert ht(x) @ ht(y) == pytest.approx(x @ y, rel=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        a, b = 2.5, -1.25
        assert np.allclose(ht(a * x + b * y), a * ht(x) + b * ht(y))

    def test_unitarity_aligns_products_f32(self):
        # with quantization disabled, transformed operands give the same product
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 64)).astype(np.float32)
        w = rng.standard_normal((16, 64)).astype(np.float32)
        exact = x @ w.T
        transformed = ht(x) @ ht(w).T
        rel = np.linalg.norm(transformed - exact) / np.linalg.norm(exact)
        assert rel < 1e-4

    def test_runtime_scales_n_log_n(self):
        # both widths are timed in every repetition, so a noise burst on a
        # shared host slows both; best-of over many repetitions drops it
        rows, reps = 64, 40
        cases = {}
        for n in (1024, 4096):
            x = np.random.default_rng(n).standard_normal((rows, n)).astype(np.float32)
            cases[n] = x
            ht(x)  # warm up
        best = dict.fromkeys(cases, float("inf"))
        for _ in range(reps):
            for n, x in cases.items():
                t0 = time.perf_counter()
                ht(x)
                best[n] = min(best[n], time.perf_counter() - t0)

        ratio = best[4096] / best[1024]
        assert ratio < 6.0, f"timing ratio {ratio:.2f}"
