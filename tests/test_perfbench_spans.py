"""The benchmark's tracer patches program functions by name; these tests keep
every name it patches present, so a refactor cannot silently break
`perfbench/run.py --trace 1`."""

import importlib.util
import os

import pytest

from trustquant import autodiff, scaling
from trustquant import model as tq_model
from trustquant.quantizer import QuantConfig
from trustquant.tensor import Rng

_SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_an_attribute_of_its_owner(spans):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans._targets() if attr not in owner.__dict__]
    assert not missing, f"names the tracer patches are gone: {missing}"


@pytest.mark.parametrize("quant", [
    QuantConfig(format="int4"),
    QuantConfig(format="none", hadamard=False),  # train_fp's layers: nothing projected
], ids=["int4", "none"])
def test_install_then_uninstall_restores_originals(spans, quant):
    targets = [(owner, attr) for owner, attr, _, _ in spans._targets()]
    targets.append((autodiff.Tape, "record"))
    originals = {key: key[0].__dict__[key[1]] for key in targets}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not originals[owner, attr]
                   for owner, attr in targets)
        # one traced step runs every wrapper of its path and its counter
        tracer.begin_unit(0)
        cfg = tq_model.ModelConfig(num_blocks=1, hidden_size=16, num_heads=2,
                                   max_seq_len=8, quant=quant)
        model = tq_model.build(cfg, Rng(0))
        loss, tape, _ = tq_model.forward_loss(model, Rng(1).integers(0, 256, (2, 9)))
        tape.backward(loss)
        agg, counts = tracer.end_unit()
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is originals[owner, attr] for owner, attr in targets)
    for span in ("qlinear.forward", "qlinear.backward", "qlinear.qlinear",
                 "model.forward_loss"):
        assert agg[span][0] > 0, span
    projected = ("hadamard.ht", "hadamard.iht", "quantizer.project")
    if quant.format == "none":
        assert not any(span in agg for span in projected)
        assert counts["qlinear.mask_x.kept"] == counts["qlinear.mask_x.size"] > 0
        assert counts["qlinear.mask_w.kept"] == counts["qlinear.mask_w.size"] > 0
    else:
        assert all(agg[span][0] > 0 for span in projected)
        assert counts["quantizer.project.elems"] > 0


def test_traced_fit_counts_huber_rows(spans):
    # 2 sizes x 2 token counts at 16 and 4 bits, fitted from one start
    records = [scaling.RunRecord(n, r * n, p, 2.0 + 1e3 / n ** 0.3 + 1e3 / (r * n) ** 0.3)
               for n in (1e7, 1e8) for r in (20, 80) for p in (4, 16)]
    grid = {"alpha": [0.5], "beta": [0.5], "e": [0.0], "a": [5.0], "b": [5.0]}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_unit(0)
        scaling.fit(records, grid=grid)
        agg, counts = tracer.end_unit()
    finally:
        tracer.uninstall()
    assert agg["scaling.fit"][0] == 1
    assert agg["scaling.huber"][0] > 0
    assert counts["scaling.huber.rows"] > 0


@pytest.mark.parametrize("quant", [
    QuantConfig(format="int4"),
    QuantConfig(format="none", hadamard=False),
], ids=["int4", "none"])
def test_forward_transforms_and_projects_each_operand_once(spans, quant):
    # q/k/v share the attention norm's operand and gate/up the MLP norm's, so
    # a block transforms and projects 4 activations and 7 weights, not 7 + 7
    cfg = tq_model.ModelConfig(num_blocks=1, hidden_size=16, num_heads=2, max_seq_len=8,
                               quant=quant)
    model = tq_model.build(cfg, Rng(0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_unit(0)
        tq_model.forward_loss(model, Rng(1).integers(0, 256, (2, 9)))
        agg, counts = tracer.end_unit()
    finally:
        tracer.uninstall()
    m, h, i = 2 * 8, cfg.hidden_size, cfg.mlp_intermediate
    assert agg["qlinear.forward"][0] == 7
    assert counts["qlinear.gemm_flop"] == 2 * m * (4 * h * h + 3 * h * i)
    if quant.format == "none":
        assert "hadamard.ht" not in agg and "quantizer.project" not in agg
    else:
        assert agg["hadamard.ht"][0] == agg["quantizer.project"][0] == 4 + 7
        weights = 4 * h * h + 3 * h * i
        assert counts["quantizer.project.elems"] == m * (3 * h + i) + weights
