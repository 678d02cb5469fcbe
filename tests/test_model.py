import dataclasses
import gc
import json
import math
import os
import tempfile
import time
import weakref
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustquant import autodiff as ad
from trustquant import qlinear as ql
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
from trustquant.trainer import AdamWState, TrainConfig, eval_loss, train_step


def tiny_cfg(**kw):
    defaults = dict(
        num_blocks=2, hidden_size=64, num_heads=2, vocab_size=256,
        max_seq_len=64, quant=QuantConfig(format="none", hadamard=False),
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def runnable_cfg(**kw):
    """ModelConfig(**kw), or None where it rejects a config the model cannot run."""
    try:
        return ModelConfig(**kw)
    except ValueError:
        return None


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

    @pytest.mark.parametrize("kw, match", [
        (dict(max_seq_len=1), "max_seq_len 1 is below 2"),
        (dict(quant=QuantConfig(format="int4", group_size=3)), "group_size 3 .* width 64"),
        (dict(hidden_size=48, quant=QuantConfig(format="int4", group_size=48)),
         "group_size 48 .* width 256"),
        (dict(hidden_size=10, num_heads=1, quant=QuantConfig(format="int4-sparse-2of4")),
         "multiple of 4, got 10"),
        (dict(quant=QuantConfig(format="int4-sparse-2of4", group_size=2)),
         "multiple of 4, got 2"),
    ], ids=["seq-1", "group-3", "group-48-mlp", "sparse-hidden-10", "sparse-group-2"])
    def test_unrunnable_configs_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            tiny_cfg(**kw)

    def test_runnable_edge_configs_accepted(self):
        tiny_cfg(max_seq_len=2)
        tiny_cfg(quant=QuantConfig(format="none", group_size=3))  # nothing is projected
        tiny_cfg(quant=QuantConfig(format="int4-sparse-2of4", group_size=4))
        tiny_cfg(hidden_size=12, quant=QuantConfig(format="int4-sparse-2of4"))

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


class TestRelease:
    """`forward_logits` drops each intermediate's value once its last forward
    reader has run, and keeps what the backward reads."""

    @pytest.mark.parametrize("quant", [QuantConfig(format="int4"),
                                       QuantConfig(format="none", hadamard=True)])
    def test_released_values_are_freed_and_backward_is_unchanged(self, quant, monkeypatch):
        model = build(tiny_cfg(quant=quant), Rng(22))
        tokens = Rng(23).integers(0, 256, (2, 17))
        with monkeypatch.context() as patch:  # the same forward, nothing released
            patch.setattr(ad.Tape, "release", lambda tape, *nodes: None)
            kept, tape_kept, trace_kept = forward_loss(model, tokens)
        assert all(node.value is not None for node in tape_kept.nodes)

        recorded = []  # (node, its shape, weakrefs to its value and the value's base)
        record = ad.Tape.record

        def recording(tape, value, parents, backward_fn):
            node = record(tape, value, parents, backward_fn)
            arrays = [node.value] + ([node.value.base] if node.value.base is not None else [])
            recorded.append((node, node.shape, [weakref.ref(a) for a in arrays]))
            return node

        monkeypatch.setattr(ad.Tape, "record", recording)
        loss, tape, trace = forward_loss(model, tokens)
        gc.collect()
        released = [(node, shape, refs) for node, shape, refs in recorded if node.value is None]
        assert len(released) == 8 * model.cfg.num_blocks
        for node, shape, refs in released:
            assert node.shape == shape
            assert all(ref() is None for ref in refs), shape
        outputs = {id(node) for node in trace.block_outputs}
        assert not any(id(node) in outputs for node, _, _ in released)
        for node, shape, refs in recorded:
            if node.value is not None:
                assert all(ref() is not None for ref in refs) and node.shape == shape

        tape.backward(loss)
        tape_kept.backward(kept)
        assert loss.value.tobytes() == kept.value.tobytes()
        for name, leaf in trace.param_leaves.items():
            assert leaf.grad.tobytes() == trace_kept.param_leaves[name].grad.tobytes(), name


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
            # training continues from a loaded model: a step replaces its arrays
            loaded = dict(back.params)
            train_step(back, Rng(24).integers(0, 256, (2, 17)), AdamWState(), 1e-3,
                       TrainConfig(peak_lr=1e-3, total_steps=1, batch_tokens=32))
            for name, old in loaded.items():
                new = back.params[name]
                assert new is not old and not new.flags.writeable, name
                assert new.tobytes() != old.tobytes(), name

    @given(
        st.builds(
            lambda heads, head_half, **kw: runnable_cfg(
                hidden_size=heads * 2 * head_half, num_heads=heads, **kw),
            heads=st.integers(1, 2), head_half=st.integers(1, 4),
            num_blocks=st.integers(1, 2), vocab_size=st.integers(2, 16),
            max_seq_len=st.integers(2, 64), rope_base=st.floats(1.0, 1e6),
            quant=st.builds(
                QuantConfig, format=st.sampled_from(FORMATS),
                group_size=st.none() | st.integers(1, 8), hadamard=st.booleans(),
                outer_trust_scale=st.none() | st.floats(0.1, 4.0),
                weight_only=st.booleans(), estimator=st.sampled_from(["trust", "ste"])),
        ).filter(lambda cfg: cfg is not None),
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


@pytest.fixture()
def calls(monkeypatch):
    """Counts the transforms and projections the quantized layer runs."""
    counts = {"ht": 0, "project": 0}

    def counted(name):
        run = getattr(ql, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return run(*args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(ql, name, counted(name))

    def take():
        got = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        return got
    return take


def _projection_weights(model: Model) -> list[str]:
    return [n for n, p in model.params.items() if n.startswith("block") and p.ndim == 2]


class TestWeightMemo:
    """A model transforms and projects a weight once per read-only array."""

    @pytest.mark.parametrize("quant", [
        QuantConfig(format="int4"), QuantConfig(format="fp4", group_size=16),
        QuantConfig(format="int4-sparse-2of4"), QuantConfig(format="int1", hadamard=False),
        QuantConfig(format="none"), QuantConfig(format="none", hadamard=False),
    ], ids=["int4", "fp4-g16", "sparse", "int1-no-ht", "none-ht", "none"])
    def test_eval_losses_cold_warm_and_bypassed_are_identical(self, quant, calls):
        model = build(tiny_cfg(num_blocks=1, hidden_size=32, quant=quant), Rng(30))
        windows = Rng(31).integers(0, 256, (40, 17))
        # one block: 4 activations (attention and MLP inputs, wo's and
        # w_down's) and 7 weights; each op runs on all of them or on none
        every = {"ht": quant.hadamard, "project": quant.format != "none"}
        cold_calls = {op: 4 + 7 if runs else 0 for op, runs in every.items()}
        warm_calls = {op: 4 if runs else 0 for op, runs in every.items()}
        cold = float(forward_loss(model, windows[:16])[0].value)
        assert calls() == cold_calls
        warm = float(forward_loss(model, windows[:16])[0].value)
        assert calls() == warm_calls
        copies = Model(model.cfg, {n: p.copy() for n, p in model.params.items()})
        bypassed = [float(forward_loss(copies, windows[:16])[0].value) for _ in range(2)]
        assert calls() == {op: 2 * n for op, n in cold_calls.items()}  # writeable
        assert cold == warm == bypassed[0] == bypassed[1]
        assert eval_loss(model, windows) == eval_loss(copies, windows)

    def test_one_entry_per_weight_key(self, calls):
        """Models that share parameter arrays keep their own operands, each
        computed once under that model's config."""
        model = build(tiny_cfg(num_blocks=1, hidden_size=16,
                               quant=QuantConfig(format="int4")), Rng(32))
        tokens = Rng(33).integers(0, 256, (2, 9))
        others = [Model(dataclasses.replace(model.cfg, quant=quant), model.params) for quant in
                  [dataclasses.replace(model.cfg.quant, weight_only=True),
                   dataclasses.replace(model.cfg.quant, hadamard=False)]]
        first = forward_loss(model, tokens)[2].layer_contexts["block0.wq"].w_hat_h
        assert calls()["project"] == 4 + 7
        for other in others:
            forward_loss(other, tokens)
        assert calls()["project"] == 7 + 4 + 7  # weight_only projects no activation
        for m in [model, *others]:
            forward_loss(m, tokens)
        assert calls()["project"] == 4 + 0 + 4
        assert forward_loss(model, tokens)[2].layer_contexts["block0.wq"].w_hat_h is first
        assert not first.flags.writeable

    def test_views_bypass_the_memo(self, calls):
        model = build(tiny_cfg(num_blocks=1, hidden_size=16,
                               quant=QuantConfig(format="int4")), Rng(34))
        views = Model(model.cfg, {n: p[:] for n, p in model.params.items()})
        assert not any(p.flags.writeable or p.flags.owndata for p in views.params.values())
        tokens = Rng(35).integers(0, 256, (2, 9))
        losses = [float(forward_loss(m, tokens)[0].value) for m in (model, views, views)]
        assert calls()["project"] == 3 * (4 + 7)
        assert losses[0] == losses[1] == losses[2]

    def test_next_forward_after_adamw_equals_a_fresh_model(self):
        model = build(tiny_cfg(num_blocks=1, hidden_size=32,
                               quant=QuantConfig(format="int4")), Rng(35))
        tokens = Rng(36).integers(0, 256, (4, 17))
        tcfg = TrainConfig(peak_lr=1e-2, total_steps=3, batch_tokens=64)
        state = AdamWState()
        for _ in range(2):
            before = dict(model.params)
            train_step(model, tokens, state, 1e-2, tcfg)
            assert all(model.params[n] is not p for n, p in before.items())
            loss = float(forward_loss(model, tokens)[0].value)
            fresh = Model(model.cfg, {n: p.copy() for n, p in model.params.items()})
            assert loss == float(forward_loss(fresh, tokens)[0].value)

    def test_built_loaded_and_updated_parameters_are_read_only(self, tmp_path):
        model = build(tiny_cfg(num_blocks=1, hidden_size=16), Rng(37))
        save_checkpoint(model, tmp_path / "model.ckpt")
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        updated = Model(model.cfg, dict(model.params))
        train_step(updated, Rng(38).integers(0, 256, (2, 9)), AdamWState(), 1e-3,
                   TrainConfig(peak_lr=1e-3, total_steps=1, batch_tokens=16))
        for params in (model.params, loaded.params, updated.params):
            for name, p in params.items():
                assert p.flags.owndata, name
                with pytest.raises(ValueError, match="read-only"):
                    p += 1
                with pytest.raises(ValueError, match="read-only"):
                    p.reshape(-1)[0] = 0

    def test_entries_go_with_their_model(self):
        model = build(tiny_cfg(num_blocks=1, hidden_size=16,
                               quant=QuantConfig(format="int4")), Rng(39))
        contexts = forward_loss(model, Rng(40).integers(0, 256, (2, 9)))[2].layer_contexts
        held = [weakref.ref(p) for p in model.params.values()]
        # the stored bits: a `mask_w` read is a fresh unpacked copy that dies at once
        held += [weakref.ref(a) for ctx in contexts.values() for a in (ctx.w_hat_h, ctx.bits_w)]
        assert len(held) == len(model.params) + 2 * 7
        del model, contexts
        gc.collect()
        assert all(ref() is None for ref in held)

    @pytest.mark.parametrize("fmt", ["int4", "none"])
    def test_operands_keep_their_masks_as_bits(self, fmt, monkeypatch):
        monkeypatch.setattr(ql, "TILE", 64)  # every weight and activation runs in row tiles
        model = build(tiny_cfg(num_blocks=1, hidden_size=12, num_heads=2,
                               quant=QuantConfig(format=fmt)), Rng(43))
        contexts = forward_loss(model, Rng(44).integers(0, 256, (2, 9)))[2].layer_contexts
        assert len(contexts) == 7
        for name, ctx in contexts.items():
            (rows, k), (_, bits) = model.params[name].shape, model.operand(name)
            assert bits is ctx.bits_w
            if fmt == "none":
                assert bits is None and ctx.bits_x is None
            else:
                assert bits.nbytes == rows * -(-k // 8)
                assert ctx.bits_x.nbytes == len(ctx.x_hat_h) * -(-k // 8)

    @pytest.mark.parametrize("hadamard", [True, False])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_memo_never_holds_a_parameter(self, fmt, hadamard):
        """The next forward after an update frees the replaced parameters
        and the operands made from them."""
        model = build(tiny_cfg(num_blocks=1, hidden_size=16,
                               quant=QuantConfig(format=fmt, hadamard=hadamard)), Rng(41))
        tokens = Rng(42).integers(0, 256, (2, 9))
        tcfg = TrainConfig(peak_lr=1e-3, total_steps=3, batch_tokens=16)
        state = AdamWState()
        for _ in range(2):
            replaced = [weakref.ref(p) for p in model.params.values()]
            replaced += [weakref.ref(a) for name in _projection_weights(model)
                         for a in model.operand(name) if a is not None]
            train_step(model, tokens, state, 1e-3, tcfg)
            forward_loss(model, tokens)
            gc.collect()
            assert all(ref() is None for ref in replaced)
