import numpy as np
import pytest

from trustquant.model import (
    Model,
    ModelConfig,
    build,
    forward_logits,
    forward_loss,
    load_checkpoint,
    pad_to_multiple,
    save_checkpoint,
)
from trustquant.quantizer import QuantConfig
from trustquant.tensor import Rng


def tiny_cfg(**kw):
    defaults = dict(
        num_blocks=2, hidden_size=64, num_heads=2, vocab_size=256,
        max_seq_len=64, quant=QuantConfig(format="none", hadamard=False),
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestConfig:
    def test_mlp_padding(self):
        assert pad_to_multiple(341) == 512
        assert ModelConfig(2, 128, 4).mlp_intermediate == 512
        assert ModelConfig(6, 640, 5).mlp_intermediate == 1792
        assert ModelConfig(16, 2048, 16).mlp_intermediate == 5632

    def test_paper_30m_shape(self):
        cfg = ModelConfig(num_blocks=6, hidden_size=640, num_heads=5)
        assert cfg.head_dim == 128
        assert 25e6 < cfg.non_embedding_params() < 40e6

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            ModelConfig(2, 65, 2)

    def test_param_count_formula(self):
        cfg = tiny_cfg()
        model = build(cfg, Rng(0))
        total = sum(a.size for n, a in model.params.items() if n != "embedding")
        h, i, v, nb = 64, cfg.mlp_intermediate, 256, 2
        want = nb * (2 * h + 4 * h * h + 3 * h * i) + h + v * h
        assert total == want == cfg.non_embedding_params()

    def test_json_round_trip(self):
        cfg = tiny_cfg(quant=QuantConfig(format="int4", outer_trust_scale=1.3))
        back = ModelConfig.from_json(cfg.to_json())
        assert back == cfg


class TestBuild:
    def test_deterministic(self):
        a = build(tiny_cfg(), Rng(5))
        b = build(tiny_cfg(), Rng(5))
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name]), name

    def test_residual_outputs_scaled_down(self):
        model = build(tiny_cfg(), Rng(6))
        wq_std = model.params["block0.wq"].std()
        wo_std = model.params["block0.wo"].std()
        assert wo_std == pytest.approx(wq_std / 2.0, rel=0.1)  # 1/sqrt(2*2 blocks)

    def test_norm_gains_start_at_one(self):
        model = build(tiny_cfg(), Rng(7))
        assert np.all(model.params["block0.attn_norm"] == 1.0)
        assert np.all(model.params["final_norm"] == 1.0)


class TestForward:
    def test_initial_loss_near_log_vocab(self):
        model = build(tiny_cfg(), Rng(8))
        tokens = Rng(9).integers(0, 256, (4, 33))
        loss, _, _ = forward_loss(model, tokens)
        assert float(loss.value) == pytest.approx(np.log(256), rel=0.05)

    def test_causality_exact(self):
        model = build(tiny_cfg(), Rng(10))
        tokens = Rng(11).integers(0, 256, (1, 16))
        logits_a, _, _ = forward_logits(model, tokens)
        perturbed = tokens.copy()
        t = 10
        perturbed[0, t] = (perturbed[0, t] + 1) % 256
        logits_b, _, _ = forward_logits(model, perturbed)
        diff = np.abs(logits_a.value - logits_b.value)[0]
        assert np.all(diff[:t] == 0.0)
        assert np.any(diff[t:] != 0.0)

    def test_quantized_init_loss_close_to_dense(self):
        tokens = Rng(12).integers(0, 256, (4, 33))
        dense = build(tiny_cfg(), Rng(13))
        quant = Model(dense.cfg, dense.params)
        loss_d, _, _ = forward_loss(dense, tokens)
        loss_q, _, _ = forward_loss(
            quant, tokens, quant=QuantConfig(format="int8", hadamard=True)
        )
        assert float(loss_q.value) == pytest.approx(float(loss_d.value), rel=0.02)

    def test_single_token_attention_is_value_path(self):
        cfg = tiny_cfg(num_blocks=1)
        model = build(cfg, Rng(14))
        tokens = np.array([[42]])
        logits, _, trace = forward_logits(model, tokens)
        # with one key, softmax weight is 1: block output = x + wo(v(rmsnorm(x)))
        from trustquant import qlinear as ql

        x = model.params["embedding"][tokens]
        eps = 1e-6
        inv = 1.0 / np.sqrt(np.mean(x ** 2, axis=-1, keepdims=True) + eps)
        a = (x * inv * model.params["block0.attn_norm"]).reshape(1, 64)
        v, _ = ql.forward(a, model.params["block0.wv"], cfg.quant, model.table)
        o, _ = ql.forward(v, model.params["block0.wo"], cfg.quant, model.table)
        pre_mlp = x[0, 0] + o[0]
        inv2 = 1.0 / np.sqrt(np.mean(pre_mlp ** 2) + eps)
        m = (pre_mlp * inv2 * model.params["block0.mlp_norm"]).reshape(1, 64)
        gate, _ = ql.forward(m, model.params["block0.w_gate"], cfg.quant, model.table)
        up, _ = ql.forward(m, model.params["block0.w_up"], cfg.quant, model.table)
        s = 1.0 / (1.0 + np.exp(-gate))
        act = gate * s * up
        down, _ = ql.forward(act, model.params["block0.w_down"], cfg.quant, model.table)
        want = pre_mlp + down[0]
        assert np.allclose(trace.block_outputs[0].value[0, 0], want, atol=1e-5)

    def test_rmsnorm_rows_unit_rms_before_gain(self):
        from trustquant import autodiff as ad

        rng = np.random.default_rng(15)
        x = rng.standard_normal((32, 64)).astype(np.float32)
        t = ad.Tape()
        out = ad.rmsnorm(t.leaf(x), t.leaf(np.ones(64, dtype=np.float32)))
        row_rms = np.sqrt(np.mean(out.value ** 2, axis=-1))
        assert np.abs(row_rms - 1.0).max() < 1e-5

    def test_sequence_length_guard(self):
        model = build(tiny_cfg(max_seq_len=8), Rng(16))
        with pytest.raises(ValueError, match="max_seq_len"):
            forward_logits(model, np.zeros((1, 9), dtype=int))

    def test_token_range_guard(self):
        model = build(tiny_cfg(), Rng(17))
        with pytest.raises(ValueError, match="vocabulary"):
            forward_logits(model, np.array([[300]]))

    def test_untrusted_fraction_available_per_layer(self):
        model = build(tiny_cfg(quant=QuantConfig(format="int2")), Rng(18))
        tokens = Rng(19).integers(0, 256, (2, 17))
        _, _, trace = forward_loss(model, tokens)
        assert len(trace.layer_contexts) == 7 * 2
        for ctx in trace.layer_contexts.values():
            assert 0.0 <= ctx.untrusted_weight_fraction <= 1.0


class TestGradients:
    def test_full_precision_model_finite_difference(self):
        cfg = ModelConfig(
            num_blocks=1, hidden_size=8, num_heads=2, vocab_size=7, max_seq_len=8,
            quant=QuantConfig(format="none", hadamard=False),
        )
        model = build(cfg, Rng(20))
        model.params = {k: v.astype(np.float64) for k, v in model.params.items()}
        tokens = Rng(21).integers(0, 7, (2, 5))

        loss, tape, trace = forward_loss(model, tokens)
        tape.backward(loss)

        def loss_value():
            l, _, _ = forward_loss(model, tokens)
            return float(l.value)

        h = 1e-5
        check_rng = np.random.default_rng(22)
        for name, leaf in trace.param_leaves.items():
            arr = model.params[name]
            flat = arr.reshape(-1)
            idxs = check_rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                got = leaf.grad.reshape(-1)[i]
                denom = max(abs(fd), abs(got), 1e-6)
                assert abs(got - fd) / denom < 1e-4, f"{name}[{i}]: {got} vs {fd}"


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_cfg(quant=QuantConfig(format="int4", outer_trust_scale=1.1))
        model = build(cfg, Rng(23))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.cfg == cfg
        assert set(back.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(back.params[name], model.params[name])

    def test_truncation_at_every_offset_raises_value_error(self, tmp_path):
        # the small tensors only, so every field kind is cut without a 30 kB file
        model = build(tiny_cfg(num_blocks=1, hidden_size=8, vocab_size=4), Rng(5))
        small = {name: p for name, p in model.params.items() if p.size <= 64}
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(model.cfg, small), path)
        assert len(load_checkpoint(path).params) == len(small) > 2
        whole = path.read_bytes()
        cut_path = tmp_path / "cut.ckpt"
        for cut in range(len(whole)):
            cut_path.write_bytes(whole[:cut])
            with pytest.raises(ValueError, match="truncated|not a model checkpoint") as err:
                load_checkpoint(cut_path)
            assert type(err.value) is ValueError, f"cut at {cut}: {err.value!r}"

    def test_truncated_field_is_named(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build(tiny_cfg(num_blocks=1, hidden_size=8, vocab_size=4), Rng(5)), path)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(ValueError, match="truncated checkpoint: header length needs 4 bytes, got 2"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)
