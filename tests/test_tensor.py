import numpy as np
import pytest

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

