import numpy as np
import pytest

from trustquant.packgemm import (
    PackedMatrix,
    bench,
    gemm_dequant,
    layer_shapes,
    pack,
    quantize_pack,
    unpack,
)
from trustquant.quantizer import QuantConfig, project


class TestPack:
    def test_nibble_layout(self):
        pm = pack(np.array([[1, 2]]))
        assert pm.payload.tolist() == [0x21]

    def test_all_zero_codes(self):
        pm = pack(np.zeros((4, 8), dtype=int))
        assert np.all(pm.payload == 0)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(51)
        codes = rng.integers(0, 16, (64, 64))
        assert np.array_equal(unpack(pack(codes)), codes)

    def test_payload_length(self):
        pm = pack(np.zeros((6, 10), dtype=int))
        assert pm.payload.shape == (30,)

    def test_odd_columns_rejected(self):
        with pytest.raises(ValueError, match="even"):
            pack(np.zeros((2, 3), dtype=int))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            pack(np.full((2, 2), 16))


class TestGemmDequant:
    def test_endpoint_product(self):
        # code 15 at unit scale dequantizes to 15/15 = 1; two such terms sum to 2
        a = pack(np.array([[15, 15]]), scales=[[1.0]])
        b = pack(np.array([[15, 15]]), scales=[[1.0]])
        assert gemm_dequant(a, b)[0, 0] == pytest.approx(2.0)
        assert (2 * 15 - 15) * (2 * 15 - 15) / 225.0 == 1.0

    def test_centered_grid_arithmetic(self):
        # code 0 dequantizes to -alpha: all-0 x all-15 at unit scales, k=2 -> -2
        a = pack(np.zeros((1, 2), dtype=int), scales=[[1.0]])
        b = pack(np.full((1, 2), 15), scales=[[1.0]])
        assert gemm_dequant(a, b)[0, 0] == pytest.approx(-2.0)

    def test_matches_float_simulated_path(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((32, 64))
        w = rng.standard_normal((48, 64))
        cfg = QuantConfig(format="int4", hadamard=False)
        px = project(x, cfg, with_codes=True)
        pw = project(w, cfg, with_codes=True)
        float_path = px.values @ pw.values.T
        int_path = gemm_dequant(quantize_pack(x), quantize_pack(w))
        denom = np.abs(float_path).max()
        assert np.abs(int_path - float_path).max() / denom < 1e-6

    def test_integer_accumulator_exact_vs_int64_loop(self):
        # at unit scales the result is exactly accumulator/225.0 in float64
        rng = np.random.default_rng(53)
        ca = rng.integers(0, 16, (8, 12))
        cb = rng.integers(0, 16, (6, 12))
        a = pack(ca, scales=np.ones((8, 1)))
        b = pack(cb, scales=np.ones((6, 1)))
        got = gemm_dequant(a, b)
        want = np.zeros((8, 6), dtype=np.int64)
        for i in range(8):
            for j in range(6):
                for k in range(12):
                    want[i, j] += (2 * ca[i, k] - 15) * (2 * cb[j, k] - 15)
        assert np.array_equal(got, want.astype(np.float64) / 225.0)

    def test_grouped_scales(self):
        rng = np.random.default_rng(54)
        x = rng.standard_normal((8, 16))
        w = rng.standard_normal((4, 16))
        cfg = QuantConfig(format="int4", hadamard=False, group_size=4)
        px = project(x, cfg, with_codes=True)
        pw = project(w, cfg, with_codes=True)
        float_path = px.values @ pw.values.T
        pa = pack(px.codes, scales=px.scale, group_size=4)
        pb = pack(pw.codes, scales=pw.scale, group_size=4)
        assert np.abs(gemm_dequant(pa, pb) - float_path).max() < 1e-6 * np.abs(float_path).max()

    def test_incompatible_operands(self):
        a = pack(np.zeros((2, 4), dtype=int))
        b = pack(np.zeros((2, 6), dtype=int))
        with pytest.raises(ValueError, match="incompatible"):
            gemm_dequant(a, b)

    def test_inner_dim_bound_documented(self):
        pm = PackedMatrix(rows=1, cols=1 << 24, payload=np.zeros(1 << 23, dtype=np.uint8),
                          scales=np.ones((1, 1)), group_size=1 << 24)
        with pytest.raises(ValueError, match="exactness"):
            gemm_dequant(pm, pm)


class TestBench:
    def test_rows_and_columns(self):
        rows = bench([("probe", 8, 16, 8)], reps=2)
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == ["shape", "dense_ms", "quant_pack_ms", "ht_ms", "int_gemm_ms",
                             "speedup"]
        assert row["shape"] == "probe:8x16x8"
        for col in ("dense_ms", "quant_pack_ms", "ht_ms", "int_gemm_ms", "speedup"):
            assert row[col] >= 0

    @pytest.mark.parametrize("hidden", [128, 640, 1000, 2048])
    def test_layer_shapes_match_frozen_table(self, hidden):
        inter = ((8 * hidden + 2) // 3 + 255) // 256 * 256  # the table as it was hard-coded
        want = [(name, 512, hidden, hidden) for name in ("wq", "wk", "wv", "wo")]
        want += [("w_gate", 512, hidden, inter), ("w_up", 512, hidden, inter)]
        want += [("w_down", 512, inter, hidden)]
        assert layer_shapes(hidden) == want

    def test_odd_hidden_rejected(self):
        with pytest.raises(ValueError, match="head dimension"):
            layer_shapes(65)

    def test_800m_layer_shapes(self):
        shapes = layer_shapes(2048)
        names = [s[0] for s in shapes]
        assert names == ["wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"]
        assert all(s[2] == 2048 and s[3] == 2048 for s in shapes[:4])
        assert shapes[4][3] == 5632 and shapes[6][2] == 5632
