import math
import warnings

import numpy as np
import pytest

from trustquant import qlinear as ql
from trustquant.diagnostics import (
    alignment_sweep,
    cosine,
    estimator_config,
    mask_fraction,
    mask_persistence,
    summarize,
)
from trustquant.hadamard import ht
from trustquant.model import ModelConfig, build
from trustquant.quantizer import QuantConfig, alpha_star, project
from trustquant.tensor import Rng


def phi_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def student_t3(rng: Rng, n: int) -> np.ndarray:
    z = rng.normal((n,), dtype=np.float64)
    chi2 = np.sum(np.square(rng.normal((3, n), dtype=np.float64)), axis=0)
    return z / np.sqrt(chi2 / 3.0)


def tiny_model(quant):
    cfg = ModelConfig(num_blocks=2, hidden_size=32, num_heads=2, max_seq_len=32,
                      quant=quant)
    return build(cfg, Rng(61))


class TestCosine:
    def test_identical_vectors(self):
        v = np.random.default_rng(0).standard_normal(100)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_fixture(self):
        a = np.array([1.0, 0.0, 2.0, 0.0])
        b = np.array([0.0, 3.0, 0.0, -1.0])
        assert cosine(a, b) == 0.0

    def test_zero_norm_undefined(self):
        assert cosine(np.zeros(4), np.ones(4)) is None

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        assert abs(cosine(1000.0 * a, b) - cosine(a, b)) < 1e-6
        assert abs(cosine(a, 1e-4 * b) - cosine(a, b)) < 1e-6


class TestGradAlignment:
    def test_unquantized_passes_align_exactly(self):
        model = tiny_model(QuantConfig(format="none", hadamard=False))
        tokens = Rng(62).integers(0, 256, (2, 17))
        records = alignment_sweep(model, [tokens])
        assert len(records) == 3 * 2
        assert all(r.xi == pytest.approx(1.0, abs=1e-9) for r in records)

    def test_weight_only_also_aligns_exactly(self):
        # disabling activation quantization twice gives identical passes
        model = tiny_model(QuantConfig(format="int4", weight_only=True))
        tokens = Rng(63).integers(0, 256, (2, 17))
        records = alignment_sweep(model, [tokens])
        assert all(r.xi == pytest.approx(1.0, abs=1e-9) for r in records)

    def test_quantized_alignment_in_range(self):
        model = tiny_model(QuantConfig(format="int4"))
        tokens = Rng(64).integers(0, 256, (2, 17))
        records = alignment_sweep(model, [tokens])
        assert all(r.xi is not None and abs(r.xi) <= 1.0 + 1e-6 for r in records)

    def test_sweep_covers_tags_and_blocks(self):
        model = tiny_model(QuantConfig(format="int8"))
        batches = [Rng(65 + i).integers(0, 256, (2, 17)) for i in range(2)]
        records = alignment_sweep(model, batches)
        assert len(records) == 2 * 3 * 2  # samples x tags x blocks
        tags = {r.tag for r in records}
        assert tags == {"quest", "quest-no-ht", "ste"}
        for r in records:
            assert r.xi is None or abs(r.xi) <= 1.0 + 1e-6

    def test_sweep_projects_each_weight_once_per_model(self, monkeypatch):
        model = tiny_model(QuantConfig(format="int4"))
        weights = {p.shape for n, p in model.params.items()
                   if n.startswith("block") and p.ndim == 2}
        shapes = []

        def counted(a, cfg, **kwargs):
            shapes.append(a.shape)
            return project(a, cfg, **kwargs)

        monkeypatch.setattr(ql, "project", counted)
        batches = [Rng(70 + i).integers(0, 256, (3, 10)) for i in range(3)]  # 27-row activations
        projected = []
        for count in (1, 3):
            shapes.clear()
            alignment_sweep(model, batches[:count])
            projected.append(sum(shape in weights for shape in shapes))
        assert projected == [3 * 2 * 14] * 2  # tags x (quantized, reference) x weights

    def test_estimator_config_tags(self):
        base = QuantConfig(format="int8")
        assert estimator_config(base, "quest").hadamard
        assert not estimator_config(base, "quest-no-ht").hadamard
        assert estimator_config(base, "ste").estimator == "ste"
        with pytest.raises(ValueError):
            estimator_config(base, "nonsense")


class TestMaskStats:
    def test_fraction_all_trusted(self):
        assert mask_fraction(np.ones((4, 4), dtype=bool)) == 0.0

    def test_fraction_half(self):
        mask = np.array([True, False, True, False])
        assert mask_fraction(mask) == 0.5

    def test_fraction_of_an_empty_mask_is_none(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mask_fraction(np.ones((0, 4), dtype=bool)) is None

    def test_gaussian_b8_matches_normal_tail(self):
        cfg = QuantConfig(format="int8", hadamard=False)
        x = Rng(66).normal((256, 1024), dtype=np.float64)
        res = project(x, cfg)
        frac = mask_fraction(res.trust_mask)
        alpha = alpha_star(8)
        t = alpha / 255
        expected = 2.0 * (1.0 - phi_cdf(alpha + t))
        assert frac == pytest.approx(expected, rel=0.2)

    def test_persistence_identical(self):
        m = np.array([True, False, False, True])
        assert mask_persistence(m, m) == 1.0

    def test_persistence_disjoint(self):
        m1 = np.array([False, True, True])
        m2 = np.array([True, False, False])
        assert mask_persistence(m1, m2) == 0.0

    def test_persistence_undefined_when_all_trusted(self):
        m1 = np.ones(4, dtype=bool)
        m2 = np.zeros(4, dtype=bool)
        assert mask_persistence(m1, m2) is None

    def test_persistence_shape_check(self):
        with pytest.raises(ValueError):
            mask_persistence(np.ones(3, dtype=bool), np.ones(4, dtype=bool))

    def test_ht_on_gaussian_is_neutral(self):
        # HT of a Gaussian stays Gaussian: masked fractions agree within 20%
        cfg = QuantConfig(format="int8", hadamard=False)
        x = Rng(67).normal((256, 1024), dtype=np.float64)
        plain = mask_fraction(project(x, cfg).trust_mask)
        mixed = mask_fraction(
            project(ht(x), cfg).trust_mask
        )
        assert mixed == pytest.approx(plain, rel=0.2)

    def test_ht_halves_heavy_tail_masking(self):
        cfg = QuantConfig(format="int8", hadamard=False)
        rng = Rng(68)
        x = student_t3(rng, 256 * 1024).reshape(256, 1024)
        plain = mask_fraction(project(x, cfg).trust_mask)
        mixed = mask_fraction(
            project(ht(x), cfg).trust_mask
        )
        assert mixed <= 0.5 * plain, (plain, mixed)


class TestEmitters:
    def test_summarize_skips_undefined(self):
        med, iqr = summarize([0.5, None, 1.0, 0.0])
        assert med == 0.5 and iqr == 0.5
        assert summarize([None, None]) == (None, None)
