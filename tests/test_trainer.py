import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import write_corpus
from trustquant import autodiff as ad
from trustquant.model import ModelConfig, build, forward_loss, load_checkpoint
from trustquant.quantizer import QuantConfig
from trustquant.tensor import Rng
from trustquant.trainer import (
    ADAM_EPS,
    EVAL_BATCH,
    AdamWState,
    BatchStream,
    TrainConfig,
    TrainingDiverged,
    adamw_step,
    clip_grad_norm,
    eval_loss,
    ingest,
    lr_at,
    peak_lr_for,
    steps,
    train,
    train_step,
)


def basic_cfg(**kw):
    defaults = dict(peak_lr=1e-3, total_steps=100, batch_tokens=256, data_path="unused")
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestConfig:
    @pytest.mark.parametrize("field, value, rule", [
        ("peak_lr", math.nan, "finite and at least 0"),
        ("peak_lr", -1e-3, "finite and at least 0"),
        ("weight_decay", math.nan, "finite and at least 0"),
        ("weight_decay", -0.1, "finite and at least 0"),
        ("clip_norm", math.nan, "finite and positive"),
        ("clip_norm", 0.0, "finite and positive"),
        ("clip_norm", math.inf, "finite and positive"),
        ("total_steps", 2.5, "a positive int"),
        ("total_steps", 0, "a positive int"),
        ("batch_tokens", 0, "a positive int"),
        ("batch_tokens", -64, "a positive int"),
        ("eval_interval", -3, "a non-negative int"),
        ("eval_interval", 1.5, "a non-negative int"),
    ])
    def test_rejects_values_that_break_a_run(self, field, value, rule):
        with pytest.raises(ValueError, match=f"{field} must be {rule}"):
            basic_cfg(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = basic_cfg(peak_lr=0.0, weight_decay=0.0, total_steps=1, batch_tokens=1,
                        eval_interval=0, clip_norm=1e-12)
        assert cfg.total_steps == 1


class TestSchedule:
    def test_peak_at_warmup_end(self):
        cfg = basic_cfg(total_steps=100)
        assert lr_at(10, cfg) == pytest.approx(cfg.peak_lr)

    def test_zero_at_total_steps(self):
        cfg = basic_cfg()
        assert lr_at(cfg.total_steps, cfg) == pytest.approx(0.0)

    def test_half_peak_at_decay_midpoint(self):
        cfg = basic_cfg(total_steps=100)
        assert lr_at(55, cfg) == pytest.approx(cfg.peak_lr / 2)

    def test_starts_at_zero(self):
        assert lr_at(0, basic_cfg()) == 0.0

    def test_continuous(self):
        cfg = basic_cfg(total_steps=200)
        lrs = [lr_at(s, cfg) for s in range(201)]
        deltas = np.abs(np.diff(lrs))
        assert deltas.max() < cfg.peak_lr * 0.06

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(101, basic_cfg(total_steps=100))


class TestAdamW:
    def test_pure_decay_with_zero_gradient(self):
        cfg = basic_cfg(weight_decay=0.1)
        p = {"w": np.full(3, 2.0)}
        adamw_step(p, {"w": np.zeros(3)}, AdamWState(), lr=0.01, cfg=cfg)
        assert np.allclose(p["w"], 2.0 * (1 - 0.001))

    def test_first_step_direction(self):
        cfg = basic_cfg(weight_decay=0.0)
        g = np.array([0.5, -2.0, 0.01])
        p = {"w": np.zeros(3)}
        adamw_step(p, {"w": g.copy()}, AdamWState(), lr=0.01, cfg=cfg)
        want = -0.01 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(p["w"], want, rtol=1e-6)

    def test_quadratic_bowl_convergence(self):
        # convex oracle: linearly annealed lr, 100 steps, below 1e-3
        cfg = basic_cfg(weight_decay=0.0)
        target = np.array([0.2, 0.1, -0.4])
        p = {"w": np.array([1.0, -0.7, 0.3])}
        state = AdamWState()
        for step in range(100):
            grads = {"w": p["w"] - target}
            adamw_step(p, grads, state, lr=0.3 * (1 - step / 100), cfg=cfg)
        assert np.abs(p["w"] - target).max() < 1e-3

    def test_decay_skipped_for_norm_gains(self):
        cfg = basic_cfg(weight_decay=0.1)
        p = {"norm": np.ones(3)}
        adamw_step(p, {"norm": np.zeros(3)}, AdamWState(), 0.01, cfg, skip_decay={"norm"})
        assert np.array_equal(p["norm"], np.ones(3))


class TestClip:
    def test_below_threshold_unchanged(self):
        g = {"a": np.array([0.3, 0.4])}
        clipped, norm = clip_grad_norm(g, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(clipped["a"], [0.3, 0.4])

    def test_scaled_to_threshold(self):
        g = {"a": np.array([4.0, 0.0]), "b": np.zeros(2)}
        clipped, norm = clip_grad_norm(g, 1.0)
        assert norm == pytest.approx(4.0)
        new_norm = math.sqrt(sum(float(np.sum(x**2)) for x in clipped.values()))
        assert abs(new_norm - 1.0) < 1e-6

    def test_single_tensor_matches_per_tensor_formula(self):
        g = {"a": np.array([3.0, 4.0])}
        clipped, norm = clip_grad_norm(g, 1.0)
        assert np.allclose(clipped["a"], np.array([3.0, 4.0]) / 5.0)

    @given(st.sampled_from([np.float32, np.float64]).flatmap(lambda dtype: st.lists(
        hnp.arrays(dtype, hnp.array_shapes(max_dims=2, max_side=5),
                   elements=st.floats(-1e3, 1e3, width=np.finfo(dtype).bits)),
        min_size=1, max_size=4)), st.floats(1e-3, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_norm_at_or_below_threshold(self, arrays, threshold):
        def global_norm(gs):
            return math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in gs))

        grads = {f"g{i}": a.copy() for i, a in enumerate(arrays)}
        clipped, norm = clip_grad_norm(grads, threshold)
        assert norm == global_norm(arrays)
        if norm <= threshold:
            for g, a in zip(clipped.values(), arrays):
                assert g.tobytes() == a.tobytes()
        else:  # each entry, and the factor, rounds once in the gradient's dtype
            eps = np.finfo(arrays[0].dtype).eps
            assert global_norm(clipped.values()) <= threshold * (1 + 4 * eps)

    def test_two_leaves_of_one_add_clip_independently(self):
        # add hands one upstream array to both parents; each leaf must still
        # own its gradient, or the in-place clip scales a shared array twice
        tape = ad.Tape()
        a, b = tape.leaf(np.zeros(4)), tape.leaf(np.zeros(4))
        tape.backward(ad.sum_all(ad.add(a, b)))
        clipped, norm = clip_grad_norm({"a": a.grad, "b": b.grad}, 1.0)
        assert norm == pytest.approx(math.sqrt(8))
        for g in clipped.values():
            assert np.allclose(g, 1 / math.sqrt(8), rtol=1e-12)


class TestIngest:
    def test_bytes_are_token_ids(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"abc")
        assert ingest(path, 3).tolist() == [[97, 98, 99]]

    def test_window_count_is_floor(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"x" * 100)
        assert ingest(path, 32).shape == (3, 32)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            ingest(path, 8)

    def test_batch_order_deterministic(self):
        windows = np.arange(64).reshape(16, 4)
        a = BatchStream(windows, 4, seed=9)
        b = BatchStream(windows, 4, seed=9)
        for _ in range(8):  # crosses an epoch boundary
            assert np.array_equal(a.next_batch(), b.next_batch())

    @given(st.integers(1, 40), st.data(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_each_window_at_most_once_per_epoch(self, count, data, seed, epochs):
        batch = data.draw(st.integers(1, count))
        stream = BatchStream(np.arange(count)[:, None], batch, seed)
        for _ in range(epochs):
            drawn = np.concatenate([stream.next_batch()[:, 0] for _ in range(count // batch)])
            assert len(np.unique(drawn)) == len(drawn)
            assert count - len(drawn) == count % batch  # these windows sit this epoch out

    def test_a_window_can_sit_out_an_epoch(self):
        stream = BatchStream(np.arange(10)[:, None], 3, seed=1)
        drawn = np.concatenate([stream.next_batch()[:, 0] for _ in range(3)])
        assert sorted(set(range(10)) - set(drawn.tolist())) == [5]

    def test_batch_tokens_below_one_window_rejected(self):
        windows = np.arange(96).reshape(3, 32)
        batch_size = 16 // 32  # batch_tokens // max_seq_len, as the loop computes it
        with pytest.raises(ValueError, match="batch size 0 is not between 1 and 3 windows"):
            BatchStream(windows, batch_size, seed=1)

    def test_batch_larger_than_corpus_rejected(self):
        windows = np.arange(96).reshape(3, 32)
        with pytest.raises(ValueError, match="batch size 5 is not between 1 and 3 windows"):
            BatchStream(windows, 5, seed=1)


class TestPlanning:
    def test_lr_anchors_take_precedence(self):
        assert peak_lr_for(30e6) == 1.2e-3
        assert peak_lr_for(430e6) == 1.5e-4

    def test_lr_inverse_interpolation(self):
        assert peak_lr_for(120e6) == pytest.approx(6e4 / 120e6)
        assert peak_lr_for(100e6) == 6e-4  # anchor agrees with the 1/N fit


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    corpus = write_corpus(root / "corpus.txt", 96_000, seed=5)
    cfg = ModelConfig(
        num_blocks=1, hidden_size=32, num_heads=2, max_seq_len=32,
        quant=QuantConfig(format="none", hadamard=False),
    )
    model = build(cfg, Rng(1))
    tcfg = TrainConfig(
        peak_lr=3e-3, total_steps=200, batch_tokens=256,
        data_path=str(corpus), seed=11,
    )
    records = train(model, tcfg, root / "out")
    return root, model, tcfg, records


class TestTrainLoop:
    def test_smoothed_loss_decreases_after_warmup(self, tiny_run):
        _, _, _, records = tiny_run
        losses = np.array([r["loss"] for r in records])
        segments = [losses[20:65].mean(), losses[65:110].mean(),
                    losses[110:155].mean(), losses[155:200].mean()]
        assert all(b < a for a, b in zip(segments, segments[1:])), segments

    def test_lr_column_matches_schedule(self, tiny_run):
        _, _, tcfg, records = tiny_run
        for r in records[:: 17]:
            assert r["lr"] == lr_at(r["step"], tcfg)

    def test_metrics_jsonl_schema(self, tiny_run):
        root, _, _, records = tiny_run
        lines = (root / "out" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == len(records)
        row = json.loads(lines[0])
        assert set(row) >= {"step", "lr", "loss", "grad_norm", "untrusted_fraction"}

    def test_checkpoint_written(self, tiny_run):
        root, _, _, _ = tiny_run
        assert (root / "out" / "model.ckpt").exists()

    def test_identical_runs_identical_logs(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 16_000, seed=6)
        def one(out):
            cfg = ModelConfig(num_blocks=1, hidden_size=32, num_heads=2, max_seq_len=32,
                              quant=QuantConfig(format="int4"))
            model = build(cfg, Rng(3))
            tcfg = TrainConfig(peak_lr=2e-3, total_steps=20, batch_tokens=128,
                               data_path=str(corpus), seed=21)
            train(model, tcfg, tmp_path / out)
            return (tmp_path / out / "metrics.jsonl").read_text()

        assert one("a") == one("b")

    def test_mid_run_eval_windows_are_held_out(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "c.txt", 2_048, seed=6)  # 64 windows of 32
        held_out = ingest(corpus, 32)[:8]
        drawn = []
        next_batch = BatchStream.next_batch

        def recording(stream):
            drawn.append(next_batch(stream))
            return drawn[-1]

        monkeypatch.setattr(BatchStream, "next_batch", recording)
        cfg = ModelConfig(num_blocks=1, hidden_size=16, num_heads=2, max_seq_len=32,
                          quant=QuantConfig(format="none", hadamard=False))
        tcfg = TrainConfig(peak_lr=2e-3, total_steps=24, batch_tokens=128,
                           data_path=str(corpus), seed=21, eval_interval=6)
        records = train(build(cfg, Rng(3)), tcfg, tmp_path / "out")
        assert [r["step"] for r in records if "eval_loss" in r] == [5, 11, 17, 23]
        rows = np.concatenate(drawn)
        assert len(rows) == 24 * 4  # more than the 56 training windows: a second epoch
        assert not (rows[:, None, :] == held_out[None]).all(axis=-1).any()

    def test_eval_matches_train_corpus_loss(self, tiny_run):
        root, model, tcfg, records = tiny_run
        windows = ingest(tcfg.data_path, 32)
        loss = eval_loss(model, windows[:32])
        assert loss == pytest.approx(records[-1]["loss"], rel=0.15)


def test_eval_loss_holds_one_batch_graph_at_a_time():
    model = int4_model()
    windows = Rng(8).integers(0, 256, (2 * EVAL_BATCH, 33))
    eval_loss(model, windows[:EVAL_BATCH])  # alpha* and the weight operands, once
    peaks = []
    for n in (EVAL_BATCH, 2 * EVAL_BATCH):
        tracemalloc.start()
        try:
            eval_loss(model, windows[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_eval_loss_of_no_windows_is_a_value_error():
    with pytest.raises(ValueError, match="empty window set"):
        eval_loss(int4_model(), np.zeros((0, 33), dtype=np.int64))


def int4_model(seed=3):
    cfg = ModelConfig(num_blocks=1, hidden_size=32, num_heads=2, max_seq_len=32,
                      quant=QuantConfig(format="int4"))
    return build(cfg, Rng(seed))


def reference_train(model, cfg):
    """The loop body as it stood before train_step existed: it pins the
    operation order train_step must keep."""
    windows = ingest(cfg.data_path, model.cfg.max_seq_len)
    stream = BatchStream(windows, cfg.batch_tokens // model.cfg.max_seq_len, cfg.seed)
    state = AdamWState()
    skip_decay = {n for n in model.params if model.is_norm_gain(n)}
    losses = []
    for step in range(cfg.total_steps):
        loss, tape, trace = forward_loss(model, stream.next_batch())
        losses.append(float(loss.value))
        tape.backward(loss)
        grads = {name: trace.param_leaves[name].grad for name in model.params}
        grads, _ = clip_grad_norm(grads, cfg.clip_norm)
        adamw_step(model.params, grads, state, lr_at(step, cfg), cfg, skip_decay)
    return losses


class TestTrainStep:
    def test_train_matches_reference_loop(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 16_000, seed=8)
        tcfg = TrainConfig(peak_lr=2e-3, total_steps=5, batch_tokens=128,
                           data_path=str(corpus), seed=21)
        ref_model, model = int4_model(), int4_model()
        ref_losses = reference_train(ref_model, tcfg)
        records = train(model, tcfg, tmp_path / "out")
        assert [r["loss"] for r in records] == ref_losses
        for name, p in ref_model.params.items():
            assert p.tobytes() == model.params[name].tobytes(), name

    def test_steps_follow_schedule_and_match_train(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 16_000, seed=10)
        tcfg = TrainConfig(peak_lr=2e-3, total_steps=6, batch_tokens=128,
                           data_path=str(corpus), seed=21)
        model = int4_model()
        yielded = list(steps(model, tcfg, ingest(tcfg.data_path, model.cfg.max_seq_len)))
        assert [s for s, *_ in yielded] == list(range(tcfg.total_steps))
        assert all(lr == lr_at(s, tcfg) for s, lr, *_ in yielded)
        train(int4_model(), tcfg, tmp_path / "out")
        rows = [json.loads(line)
                for line in (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()]
        assert [loss for _, _, loss, _, _ in yielded] == [r["loss"] for r in rows]

    def test_leaf_gradients_share_no_memory(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 16_000, seed=8)
        tcfg = TrainConfig(peak_lr=2e-3, total_steps=1, batch_tokens=128,
                           data_path=str(corpus), seed=21)
        model = int4_model()
        stream = BatchStream(ingest(corpus, model.cfg.max_seq_len), 4, seed=21)
        *_, trace = train_step(model, stream.next_batch(), AdamWState(), 1e-3, tcfg)
        grads = [(name, leaf.grad) for name, leaf in trace.param_leaves.items()]
        assert len(grads) == len(model.params)
        for i, (name, g) in enumerate(grads):
            assert g is not None, name
            for other, h in grads[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)

    def test_divergence_saves_checkpoint_and_applies_no_update(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.txt", 16_000, seed=9)
        tcfg = TrainConfig(peak_lr=2e-3, total_steps=5, batch_tokens=128,
                           data_path=str(corpus), seed=21)
        model = int4_model()
        head = model.params["head"].copy()  # parameters are read-only: replace, not write
        head[0, 0] = np.nan
        model.params["head"] = head
        before = {name: p.copy() for name, p in model.params.items()}
        out = tmp_path / "out"
        with pytest.raises(TrainingDiverged) as err:
            train(model, tcfg, out)
        ckpt = out / "model.ckpt"
        assert "step 0" in str(err.value) and str(ckpt) in str(err.value)
        saved = load_checkpoint(ckpt)
        for name, p in model.params.items():
            assert saved.params[name].tobytes() == p.tobytes() == before[name].tobytes(), name
        assert (out / "metrics.jsonl").read_text() == ""

    def test_non_finite_gradient_saves_last_good_checkpoint(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "c.txt", 16_000, seed=9)
        tcfg = TrainConfig(peak_lr=2e-3, total_steps=5, batch_tokens=128,
                           data_path=str(corpus), seed=21)
        reference = int4_model()  # the state after one good step
        next(steps(reference, tcfg, ingest(tcfg.data_path, reference.cfg.max_seq_len)))
        backward = ad.Tape.backward
        calls = []

        def nan_in_second_step(tape, loss):
            first_leaf = next(node for node in tape.nodes if not node.parents)
            backward(tape, loss)
            calls.append(loss)
            if len(calls) == 2:  # the loss stays finite; one gradient entry does not
                first_leaf.grad = first_leaf.grad.copy()
                first_leaf.grad.flat[0] = np.nan

        monkeypatch.setattr(ad.Tape, "backward", nan_in_second_step)
        model = int4_model()
        out = tmp_path / "out"
        with pytest.raises(TrainingDiverged) as err:
            train(model, tcfg, out)
        ckpt = out / "model.ckpt"
        assert math.isfinite(float(calls[1].value))
        assert "step 1" in str(err.value) and "gradient" in str(err.value)
        assert str(ckpt) in str(err.value)
        saved = load_checkpoint(ckpt)
        for name, p in reference.params.items():
            assert saved.params[name].tobytes() == model.params[name].tobytes() == p.tobytes(), name
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 1
