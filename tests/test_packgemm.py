import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustquant.packgemm import (
    MAX_F32_GROUP,
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


class TestQuantizePack:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_rows_rejected(self, bad):
        x = np.random.default_rng(52).standard_normal((3, 8)).astype(np.float32)
        x[1, 2] = bad
        with pytest.raises(ValueError, match="finite RMS"):
            quantize_pack(x)

    def test_finite_rows_pack_their_codes(self):
        x = np.random.default_rng(53).standard_normal((3, 8))
        res = project(x, QuantConfig(format="int4", hadamard=False), with_codes=True)
        assert np.array_equal(unpack(quantize_pack(x)), res.codes)


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


def frozen_gemm_dequant(a, b):
    """gemm_dequant as it was with int32 accumulators, before it ran on BLAS."""
    ca = (2 * unpack(a) - 15).astype(np.int32)
    cb = (2 * unpack(b) - 15).astype(np.int32)
    g = a.group_size
    out = np.zeros((a.rows, b.rows), dtype=np.float64)
    for gi in range(a.n_groups):
        sl = slice(gi * g, (gi + 1) * g)
        acc = ca[:, sl] @ cb[:, sl].T
        out += np.outer(a.scales[:, gi], b.scales[:, gi]) * acc / 225.0
    return out


def packed_pair(rng, rows_a, rows_b, cols, group, extreme):
    """Two packed operands. `extreme` draws mostly code 15 and makes row 0
    all 15, so out[0, 0] sums 225 per code, as large as a sum can grow."""
    def codes(rows):
        if not extreme:
            return rng.integers(0, 16, (rows, cols))
        c = np.where(rng.random((rows, cols)) < 0.97, 15, rng.integers(0, 16, (rows, cols)))
        c[0] = 15
        return c

    def scales(rows):
        return np.exp(rng.standard_normal((rows, cols // group)))

    return (pack(codes(rows_a), scales(rows_a), group),
            pack(codes(rows_b), scales(rows_b), group))


class TestGemmDequantOracle:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 48), st.integers(1, 3),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_int32_oracle_bytewise(self, rows_a, rows_b, group, pairs, extreme, seed):
        rng = np.random.default_rng(seed)
        cols = group * 2 * pairs  # an even number of groups, so any group size packs
        a, b = packed_pair(rng, rows_a, rows_b, cols, group, extreme)
        assert gemm_dequant(a, b).tobytes() == frozen_gemm_dequant(a, b).tobytes()

    @pytest.mark.parametrize("group", [MAX_F32_GROUP, MAX_F32_GROUP + 2])
    @pytest.mark.parametrize("extreme", [False, True])
    def test_equals_int32_oracle_at_the_float32_bound(self, group, extreme):
        # an all-15 group of odd size sums to an odd 225 * group, which float32
        # holds at the bound and rounds just above it
        assert 225 * (MAX_F32_GROUP + 2) > 1 << 24 > 225 * MAX_F32_GROUP
        rng = np.random.default_rng(group + extreme)
        a, b = packed_pair(rng, 3, 2, 2 * group, group, extreme)
        assert gemm_dequant(a, b).tobytes() == frozen_gemm_dequant(a, b).tobytes()


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
