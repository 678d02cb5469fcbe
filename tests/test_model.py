import dataclasses
import json
import math
import os
import tempfile
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustquant.diagnostics import mask_fraction
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
from trustquant.quantizer import FORMATS, QuantConfig
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

    @pytest.mark.parametrize("hidden, heads", [(12, 4), (9, 1), (30, 2)])
    def test_odd_head_dim_rejected(self, hidden, heads):
        with pytest.raises(ValueError, match="head dimension"):
            ModelConfig(num_blocks=1, hidden_size=hidden, num_heads=heads)

    @pytest.mark.parametrize("field, value", [
        ("num_heads", 0), ("hidden_size", 0), ("vocab_size", 0), ("max_seq_len", 0),
        ("num_blocks", -1), ("num_blocks", 0), ("hidden_size", 8.0), ("num_heads", True),
        ("vocab_size", "256"),
    ])
    def test_sizes_must_be_positive_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive int"):
            tiny_cfg(**{field: value})

    @pytest.mark.parametrize("value", [0, -5, math.nan, math.inf, "10000"])
    def test_rope_base_must_be_finite_positive(self, value):
        with pytest.raises(ValueError, match="rope_base must be finite and positive"):
            tiny_cfg(rope_base=value)

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
        quant = Model(dataclasses.replace(
            dense.cfg, quant=QuantConfig(format="int8", hadamard=True)), dense.params)
        loss_d, _, _ = forward_loss(dense, tokens)
        loss_q, _, _ = forward_loss(quant, tokens)
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
        v, _ = ql.forward(a, model.params["block0.wv"], cfg.quant)
        o, _ = ql.forward(v, model.params["block0.wo"], cfg.quant)
        pre_mlp = x[0, 0] + o[0]
        inv2 = 1.0 / np.sqrt(np.mean(pre_mlp ** 2) + eps)
        m = (pre_mlp * inv2 * model.params["block0.mlp_norm"]).reshape(1, 64)
        gate, _ = ql.forward(m, model.params["block0.w_gate"], cfg.quant)
        up, _ = ql.forward(m, model.params["block0.w_up"], cfg.quant)
        s = 1.0 / (1.0 + np.exp(-gate))
        act = gate * s * up
        down, _ = ql.forward(act, model.params["block0.w_down"], cfg.quant)
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

    @pytest.mark.parametrize("last", [-1, 256])
    def test_target_range_guard(self, last):
        model = build(tiny_cfg(num_blocks=1, hidden_size=16), Rng(17))
        tokens = Rng(20).integers(0, 256, (2, 9))
        tokens[1, -1] = last  # a target only: forward_logits never sees it
        with pytest.raises(ValueError, match="target id"):
            forward_loss(model, tokens)

    def test_untrusted_fraction_available_per_layer(self):
        model = build(tiny_cfg(quant=QuantConfig(format="int2")), Rng(18))
        tokens = Rng(19).integers(0, 256, (2, 17))
        _, _, trace = forward_loss(model, tokens)
        assert len(trace.layer_contexts) == 7 * 2
        for ctx in trace.layer_contexts.values():
            assert 0.0 <= mask_fraction(ctx.mask_w) <= 1.0

    def test_two_block_tape_node_count(self):
        # 21 parameter leaves and the embedding gather; per block two rmsnorms,
        # seven projections, attention, swiglu and two residual adds; then the
        # final rmsnorm, the head's reshape, transpose, matmul and reshape, and the loss
        model = build(tiny_cfg(quant=QuantConfig(format="int4")), Rng(20))
        _, tape, _ = forward_loss(model, Rng(21).integers(0, 256, (2, 17)))
        assert len(tape.nodes) == 54


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
        path = tmp_path / "model.ckpt"
        # an unset outer trust scale stays unset, so its default still follows the format
        for quant in [QuantConfig(format="int4", outer_trust_scale=1.1),
                      QuantConfig(format="int1")]:
            cfg = tiny_cfg(quant=quant)
            model = build(cfg, Rng(23))
            save_checkpoint(model, path)
            assert not (tmp_path / "model.ckpt.tmp").exists()
            back = load_checkpoint(path)
            assert back.cfg == cfg
            assert list(back.params) == list(model.params)
            for name, want in model.params.items():
                got = back.params[name]
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
                assert got.flags.writeable  # training continues from a loaded model

    @given(
        st.builds(
            lambda heads, head_half, **kw: ModelConfig(
                hidden_size=heads * 2 * head_half, num_heads=heads, **kw),
            heads=st.integers(1, 2), head_half=st.integers(1, 4),
            num_blocks=st.integers(1, 2), vocab_size=st.integers(2, 16),
            max_seq_len=st.integers(2, 64), rope_base=st.floats(1.0, 1e6),
            quant=st.builds(
                QuantConfig, format=st.sampled_from(FORMATS),
                group_size=st.none() | st.integers(1, 8), hadamard=st.booleans(),
                outer_trust_scale=st.none() | st.floats(0.1, 4.0),
                weight_only=st.booleans(), estimator=st.sampled_from(["trust", "ste"]))),
        st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, cfg, seed):
        model = build(cfg, Rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            save_checkpoint(model, path)
            back = load_checkpoint(path)
        assert back.cfg == cfg
        assert list(back.params) == list(model.params)
        for name, want in model.params.items():
            got = back.params[name]
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_truncation_at_every_offset_raises_value_error(self, tmp_path):
        # the small tensors only, so every field kind is cut without a 30 kB file
        model = build(tiny_cfg(num_blocks=1, hidden_size=8, vocab_size=4), Rng(5))
        small = {name: p for name, p in model.params.items() if p.size <= 64}
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(model.cfg, small), path)
        assert len(small) > 2
        # the whole file decodes; only the layout check rejects it
        with pytest.raises(ValueError, match="'block0.w_gate': missing") as err:
            load_checkpoint(path)
        assert err.value.__cause__ is None
        whole = path.read_bytes()
        cut_path = tmp_path / "cut.ckpt"
        for cut in range(len(whole)):
            cut_path.write_bytes(whole[:cut])
            with pytest.raises(ValueError, match="truncated|not a model checkpoint") as err:
                load_checkpoint(cut_path)
            assert type(err.value) is ValueError, f"cut at {cut}: {err.value!r}"
            assert err.value.__cause__ is not None, f"cut at {cut} decoded: {err.value!r}"

    def test_flipped_payload_byte_raises_value_error(self, tmp_path):
        model = build(tiny_cfg(num_blocks=1, hidden_size=8, vocab_size=4), Rng(5))
        # distinct values everywhere, so each payload occurs once in the file
        params = {name: Rng(i).normal(p.shape) for i, (name, p) in enumerate(model.params.items())}
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(model.cfg, params), path)
        whole = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for name, p in params.items():
            payload = p.tobytes()
            assert whole.count(payload) == 1, name
            flipped = bytearray(whole)
            flipped[whole.find(payload) + len(payload) // 2] ^= 0x10
            bad.write_bytes(bytes(flipped))
            with pytest.raises(ValueError, match="not a model checkpoint") as err:
                load_checkpoint(bad)
            assert type(err.value) is ValueError, f"{name}: {err.value!r}"

    @pytest.mark.parametrize("marker,offset", [
        (b"'descr': '<", 10),  # the .npy dtype text: '<f4' -> ',f4'
        (b"'shape': (", 9),  # the .npy shape text: '(256, 8)' -> '8256, 8)'
        (b"PK\x01\x02", 10),  # the zip directory entry's compression method
    ], ids=["npy-descr", "npy-shape", "zip-method"])
    def test_flipped_header_byte_raises_value_error(self, tmp_path, marker, offset):
        # the last member, head (256, 8) float32, is over 4 KiB, so numpy parses
        # its .npy header before zip reaches the CRC
        path = tmp_path / "model.ckpt"
        save_checkpoint(build(tiny_cfg(num_blocks=1, hidden_size=8), Rng(1)), path)
        load_checkpoint(path)
        data = bytearray(path.read_bytes())
        data[data.rfind(marker) + offset] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="not a model checkpoint") as err:
            load_checkpoint(path)
        assert type(err.value) is ValueError, repr(err.value.__cause__)
        assert err.value.__cause__ is not None  # a decoding error, not the layout check

    def test_flipped_npy_header_length_raises_value_error(self, tmp_path):
        # np.load reads a member over 4 KiB only as far as its .npy header says,
        # so without a CRC pass of its own a longer header length loaded other values
        path = tmp_path / "model.ckpt"
        save_checkpoint(build(tiny_cfg(num_blocks=1, hidden_size=8, vocab_size=4), Rng(5)), path)
        whole = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            large = [info for info in archive.infolist() if info.file_size > 4096]
        assert [info.filename for info in large] == [
            "block0.w_gate.npy", "block0.w_up.npy", "block0.w_down.npy"]
        bad = tmp_path / "bad.ckpt"
        for info in large:
            at = whole.index(b"\x93NUMPY", info.header_offset) + 8  # header length, low byte
            flipped = bytearray(whole)
            flipped[at] ^= 0x10
            bad.write_bytes(bytes(flipped))
            with pytest.raises(ValueError, match="not a model checkpoint") as err:
                load_checkpoint(bad)
            assert type(err.value) is ValueError, f"{info.filename}: {err.value!r}"

    def test_flipped_end_record_byte_never_raises_os_error(self, tmp_path):
        # the zip end record's directory offset once sent a seek before the
        # file's start, and the OSError escaped the decoding errors
        path = tmp_path / "model.ckpt"
        model = build(tiny_cfg(num_blocks=1, hidden_size=8), Rng(1))
        save_checkpoint(model, path)
        whole = path.read_bytes()
        assert whole[-22:].startswith(b"PK\x05\x06")
        bad = tmp_path / "bad.ckpt"
        for at in range(len(whole) - 22, len(whole)):
            flipped = bytearray(whole)
            flipped[at] ^= 0x10
            bad.write_bytes(bytes(flipped))
            try:
                back = load_checkpoint(bad)
            except ValueError as err:
                assert type(err) is ValueError, f"byte {at}: {err!r}"
                continue
            assert back.cfg == model.cfg, at
            for name, want in model.params.items():
                assert back.params[name].tobytes() == want.tobytes(), (at, name)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        first = build(tiny_cfg(num_blocks=1), Rng(1))
        save_checkpoint(first, path)
        before = path.read_bytes()
        savez = np.savez

        def write_then_fail(f, *args, **kwargs):
            savez(f, *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build(tiny_cfg(num_blocks=1), Rng(2)), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not (tmp_path / "model.ckpt.tmp").exists()
        back = load_checkpoint(path)
        for name, want in first.params.items():
            assert back.params[name].tobytes() == want.tobytes()

    def test_equal_models_give_equal_bytes(self, tmp_path, monkeypatch):
        save_checkpoint(build(tiny_cfg(num_blocks=1), Rng(3)), tmp_path / "a.ckpt")
        clock = time.time  # an hour later: no timestamp may reach the file
        monkeypatch.setattr(time, "time", lambda: clock() + 3600.0)
        save_checkpoint(build(tiny_cfg(num_blocks=1), Rng(3)), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    def test_npz_without_config_rejected(self, tmp_path):
        path = tmp_path / "arrays.npz"
        np.savez(path, w=np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda d: {**d, "dropout": 0.1},  # a key ModelConfig does not take
        lambda d: {**d, "quant": {"bits": 4}},  # a key QuantConfig does not take
        lambda d: [1, 2],  # JSON that is not an object
        lambda d: {**d, "num_heads": 0},  # a size that divides by zero
    ], ids=["model-key", "quant-key", "not-object", "zero-heads"])
    def test_config_that_does_not_decode_rejected(self, tmp_path, edit):
        model = build(tiny_cfg(num_blocks=1, hidden_size=8, vocab_size=4), Rng(5))
        text = json.dumps(edit(json.loads(model.cfg.to_json())))
        path = tmp_path / "model.npz"
        np.savez(path, config=np.array(text), **model.params)
        with pytest.raises(ValueError, match="not a model checkpoint") as err:
            load_checkpoint(path)
        assert type(err.value) is ValueError

    def test_missing_parameter_rejected(self, tmp_path):
        model = build(tiny_cfg(num_blocks=1, hidden_size=8, vocab_size=4), Rng(5))
        params = dict(model.params)
        del params["block0.wv"]
        path = tmp_path / "model.npz"
        np.savez(path, config=np.array(model.cfg.to_json()), **params)
        with pytest.raises(ValueError, match=r"not a model checkpoint: .*'block0.wv': missing"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        model = build(tiny_cfg(num_blocks=1, hidden_size=8, vocab_size=4), Rng(5))
        params = dict(model.params, head=model.params["head"].T)
        path = tmp_path / "model.npz"
        np.savez(path, config=np.array(model.cfg.to_json()), **params)
        with pytest.raises(ValueError, match=r"'head': shape \(8, 4\), expected \(4, 8\)"):
            load_checkpoint(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.ckpt")
