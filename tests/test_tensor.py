import numpy as np
import pytest

from trustquant import tensor
from trustquant.quantizer import QuantConfig, project
from trustquant.tensor import Rng


def rms(x, group_size=None):
    return project(x, QuantConfig(format="none", group_size=group_size)).scale


class TestRms:
    """The per-group RMS step, which `quantizer.project` owns: with format
    "none" its scale is exactly the RMS of each group."""

    def test_whole_tensor_group(self):
        out = rms(np.array([3.0, 4.0]))
        assert out.shape == (1,)
        assert abs(out[0] - 3.5355339) < 1e-6

    def test_constant_vector(self):
        assert rms(np.ones(4))[0] == pytest.approx(1.0)

    def test_standard_normal_scale(self):
        x = Rng(99).normal((4096,), dtype=np.float64)
        assert abs(rms(x)[0] - 1.0) < 0.05

    def test_zero_group(self):
        assert rms(np.zeros(8))[0] == 0.0

    def test_grouped_shape(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 12)
        out = rms(x, group_size=4)
        assert out.shape == (2, 3)
        assert out[0, 0] == pytest.approx(np.sqrt(np.mean(np.square([0, 1, 2, 3]))))

    @pytest.mark.parametrize("c", [2.0, -3.5, 0.25])
    def test_absolute_homogeneity(self, c, rng_np):
        x = rng_np.standard_normal((3, 8))
        got = rms(c * x, group_size=4)
        want = abs(c) * rms(x, group_size=4)
        assert np.allclose(got, want, rtol=1e-12)

    def test_bad_group_size(self):
        with pytest.raises(ValueError):
            rms(np.ones(10), group_size=3)


class TestRng:
    def test_determinism(self):
        a = Rng(42).normal((100,))
        b = Rng(42).normal((100,))
        assert np.array_equal(a, b)

    def test_streams_differ_across_seeds(self):
        assert not np.array_equal(Rng(1).normal((64,)), Rng(2).normal((64,)))

    def test_normal_moments(self):
        z = Rng(2024).normal((1_000_000,), dtype=np.float64)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01

    def test_uniform_range(self):
        u = Rng(5).uniform((10000,))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_permutation_is_permutation(self):
        p = Rng(3).permutation(257)
        assert sorted(p.tolist()) == list(range(257))

    def test_counter_advances(self):
        r = Rng(7)
        first = r.normal((16,))
        second = r.normal((16,))
        assert not np.array_equal(first, second)

    def test_sample_normal_bit_identical_across_calls(self):
        a = Rng(42).normal((3, 5))
        b = Rng(42).normal((3, 5))
        assert a.dtype == np.float32
        assert np.array_equal(a, b)



_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def frozen_unit(seed, start, count):
    """The stream's uniforms at counters start .. start + count - 1, as
    `Rng` computed them before it ran in chunks."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (idx ^ (np.uint64(seed) * _M2)) * _GAMMA + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def frozen_normal(seed, counter, shape, dtype):
    """Whole-array Box-Muller as `Rng.normal` computed it before it ran in
    chunks: (values, counter after the draw)."""
    n = int(np.prod(shape)) if shape else 1
    half = (n + 1) // 2
    u1 = 1.0 - frozen_unit(seed, counter, half)
    u2 = frozen_unit(seed, counter + half, half)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].astype(dtype)
    return (out.reshape(shape) if shape else out[0]), counter + 2 * half


class TestNormalChunks:
    """`Rng.normal` runs Box-Muller in chunks of `tensor._PAIRS` pairs; it
    gives the whole-array draw's bits and advances the counter alike."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 64 - 1])
    def test_bits_and_counter_match_the_whole_array_draw(self, seed, dtype):
        c = tensor._PAIRS
        shapes = [(), (1,), (7,), (3, 5), (c,), (c + 1,), (2 * c - 1,), (2 * c,),
                  (2 * c + 1,), (2 * c + 2,), (4 * c + 3,), (0,), (1792, 640)]
        rng = Rng(seed)
        for shape in shapes:  # one stream, so each draw starts where the last ended
            want, counter = frozen_normal(seed, int(rng.counter), shape, dtype)
            got = rng.normal(shape, dtype=dtype)
            assert type(got) is type(want), shape
            assert np.shape(got) == np.shape(want) and got.dtype == want.dtype, shape
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), shape
            assert not shape or got.flags.owndata, shape  # `Model.operand` keeps these
            assert rng.counter == counter and isinstance(rng.counter, np.uint64), shape

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_uniform_continues_the_same_stream(self, seed):
        rng = Rng(seed)
        rng.normal((2 * tensor._PAIRS + 1,))
        counter = int(rng.counter)
        assert rng.uniform((5,)).tobytes() == frozen_unit(seed, counter, 5).tobytes()
        assert rng.uniform() == frozen_unit(seed, counter + 5, 1)[0]
        assert rng.counter == counter + 6
