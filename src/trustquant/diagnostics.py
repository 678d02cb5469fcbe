"""Gradient-alignment measurement and trust-mask statistics.

Alignment (`alignment_sweep`) runs backward twice on the same input: once
with the model's quantization under an estimator tag, once with activation
quantization disabled (weights stay quantized), and reports the cosine
similarity of the activation gradients captured after each transformer
block (block boundary = residual-stream output). Undefined values
(zero-norm gradients, empty mask denominators) are None, never silently
dropped; the CLI's tables show them as empty cells.

Estimator tags: "quest" (trust masks + Hadamard), "quest-no-ht" (trust
masks, no Hadamard), "ste" (straight-through, no Hadamard).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import Model, forward_loss
from .quantizer import QuantConfig

ESTIMATOR_TAGS = ("quest", "quest-no-ht", "ste")


@dataclass
class AlignmentRecord:
    block: int
    tag: str
    xi: float | None
    sample: int


def estimator_config(base: QuantConfig, tag: str) -> QuantConfig:
    if tag == "quest":
        return dataclasses.replace(base, hadamard=True, estimator="trust")
    if tag == "quest-no-ht":
        return dataclasses.replace(base, hadamard=False, estimator="trust")
    if tag == "ste":
        return dataclasses.replace(base, hadamard=False, estimator="ste")
    raise ValueError(f"unknown estimator tag {tag!r}; expected one of {ESTIMATOR_TAGS}")


def cosine(a: np.ndarray, b: np.ndarray) -> float | None:
    """Cosine similarity of flattened tensors; None on a zero-norm operand."""
    a = np.asarray(a).reshape(-1).astype(np.float64)
    b = np.asarray(b).reshape(-1).astype(np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return None
    return float(a @ b / (na * nb))


def _variants(model: Model, quant: QuantConfig) -> tuple[Model, Model]:
    """Models over `model`'s parameter arrays under `quant`, and under
    `quant` with activation quantization disabled."""
    return tuple(Model(dataclasses.replace(model.cfg, quant=q), model.params)
                 for q in (quant, dataclasses.replace(quant, weight_only=True)))


def _block_grads(model: Model, tokens: np.ndarray):
    loss, tape, trace = forward_loss(model, tokens)
    tape.backward(loss)
    return [node.grad for node in trace.block_outputs]


def _block_cosines(quantized: Model, reference: Model,
                   tokens: np.ndarray) -> list[float | None]:
    """Per-block cosine of the activation gradients of two models."""
    return [cosine(q, r) for q, r in zip(_block_grads(quantized, tokens),
                                         _block_grads(reference, tokens))]


def alignment_sweep(model: Model, batches, tags=ESTIMATOR_TAGS) -> list[AlignmentRecord]:
    """Alignment for every block x estimator tag over a batch population.
    Each tag's two models are built once, so their weight operands are
    computed once per sweep, not once per batch."""
    variants = {tag: _variants(model, estimator_config(model.cfg.quant, tag)) for tag in tags}
    records = []
    for sample, tokens in enumerate(batches):
        for tag in tags:
            for block, xi in enumerate(_block_cosines(*variants[tag], tokens)):
                records.append(AlignmentRecord(block=block, tag=tag, xi=xi, sample=sample))
    return records


def mask_fraction(mask: np.ndarray) -> float | None:
    """Fraction of masked (untrusted, M == 0) entries; None (undefined) for
    an empty mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return None
    return float(np.mean(~mask))


def mask_persistence(mask_t1: np.ndarray, mask_t2: np.ndarray) -> float | None:
    """Of the entries masked at t1, the fraction still masked at t2.

    None (undefined) when nothing was masked at t1.
    """
    m1 = ~np.asarray(mask_t1, dtype=bool)
    m2 = ~np.asarray(mask_t2, dtype=bool)
    if m1.shape != m2.shape:
        raise ValueError(f"shape mismatch {m1.shape} vs {m2.shape}")
    masked_t1 = int(m1.sum())
    if masked_t1 == 0:
        return None
    return float((m1 & m2).sum() / masked_t1)


def summarize(values):
    """Median and interquartile range over defined entries."""
    defined = np.array([v for v in values if v is not None], dtype=np.float64)
    if defined.size == 0:
        return None, None
    q1, med, q3 = np.percentile(defined, [25, 50, 75])
    return float(med), float(q3 - q1)
