"""Span tracing from outside the program: wrap public functions of each layer.

`Tracer.install()` replaces the functions listed in `_targets` with wrappers
that record a span (name, start, end, parent, unit) and, for some, a work
count computed from argument shapes. Names that `qlinear` and `model`
imported at load time are patched too, so every call path is seen.
Backward closures of autodiff ops are timed by wrapping `Tape.record`: a
closure recorded while an op span is open is replaced by one that records
`<op>.bwd`. `uninstall()` puts the originals back.

Self time is a span's duration minus the durations of its direct children;
spans nest strictly (one thread), so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from trustquant import autodiff, hadamard, model, qlinear, quantizer, scaling, tensor, trainer

AUTODIFF_OPS = ("matmul", "softmax", "rmsnorm", "rotary", "silu", "embedding_gather",
                "cross_entropy_with_logits", "add", "mul", "reshape", "transpose")


def _count_ht(tr, args, kwargs, out):
    tr.count("hadamard.ht.bytes", np.asarray(args[0]).nbytes)


def _count_project(tr, args, kwargs, out):
    tr.count("quantizer.project.elems", np.asarray(args[0]).size)


def _count_forward(tr, args, kwargs, out):
    x, w = args[0], args[1]
    ctx = out[1]
    tr.count("qlinear.gemm_flop", 2 * x.shape[0] * x.shape[1] * w.shape[0])
    tr.count("qlinear.mask_x.kept", np.count_nonzero(ctx.mask_x))
    tr.count("qlinear.mask_x.size", ctx.mask_x.size)
    tr.count("qlinear.mask_w.kept", np.count_nonzero(ctx.mask_w))
    tr.count("qlinear.mask_w.size", ctx.mask_w.size)


def _count_backward(tr, args, kwargs, out):
    ctx = args[0]
    m, k = ctx.x_hat_h.shape
    tr.count("qlinear.gemm_flop", 4 * m * k * ctx.w_hat_h.shape[0])


def _count_nodes(tr, args, kwargs, out):
    tr.count("autodiff.Tape.nodes", len(out[1].nodes))


def _count_huber(tr, args, kwargs, out):
    tr.count("scaling.huber.rows", np.shape(args[0])[0])


def _targets():
    """(owner, attribute, span name, counter) for every wrapped function."""
    t = [
        (hadamard, "ht", "hadamard.ht", _count_ht),
        (qlinear, "ht", "hadamard.ht", _count_ht),
        (hadamard, "iht", "hadamard.iht", None),
        (qlinear, "iht", "hadamard.iht", None),
        (quantizer, "project", "quantizer.project", _count_project),
        (qlinear, "project", "quantizer.project", _count_project),
        (quantizer, "trust_mask", "quantizer.trust_mask", None),
        (quantizer, "solve_alpha_star", "quantizer.AlphaTable.alpha.solve", None),
        (qlinear, "forward", "qlinear.forward", _count_forward),
        (qlinear, "backward", "qlinear.backward", _count_backward),
        (model, "qlinear", "qlinear.qlinear", None),
        (autodiff.Tape, "backward", "autodiff.Tape.backward", None),
        (model, "forward_loss", "model.forward_loss", _count_nodes),
        (model, "build", "model.build", None),
        (trainer, "adamw_step", "trainer.adamw_step", None),
        (trainer, "clip_grad_norm", "trainer.clip_grad_norm", None),
        (trainer.BatchStream, "next_batch", "trainer.BatchStream.next_batch", None),
        (trainer, "ingest", "trainer.ingest", None),
        (tensor.Rng, "normal", "tensor.Rng.normal", None),
        (scaling, "fit", "scaling.fit", None),
        (scaling, "huber", "scaling.huber", _count_huber),
    ]
    t += [(autodiff, op, f"autodiff.{op}", None) for op in AUTODIFF_OPS]
    return t


class Tracer:
    """In-memory span recorder with per-unit aggregates."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[list] = []  # [span index, name, start, child ns]
        self._saved: list[tuple[object, str, object]] = []
        self.unit = 0
        self.agg: dict = {}
        self.counts: dict = {}

    # --- spans and counts ---------------------------------------------------
    def begin_unit(self, unit: int) -> None:
        self.unit = unit
        self.agg = defaultdict(lambda: [0, 0, 0])
        self.counts = defaultdict(int)
        self._open("unit")

    def end_unit(self) -> tuple[dict, dict]:
        """Close the unit; returns ({span: [calls, total ns, self ns]}, counts)."""
        self._close()
        return dict(self.agg), dict(self.counts)

    def count(self, key: str, amount) -> None:
        self.counts[key] += int(amount)

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0, 0, parent, self.unit))
        self._stack.append([len(self.spans) - 1, name, time.perf_counter_ns(), 0])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        idx, name, start, child = self._stack.pop()
        dur = end - start
        self.spans[idx] = (name, start, end) + self.spans[idx][3:]
        if self._stack:
            self._stack[-1][3] += dur
        entry = self.agg[name]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                counter(self, args, kwargs, out)
            return out
        return wrapper

    # --- patching -----------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, counter in _targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, counter))
        record = autodiff.Tape.__dict__["record"]
        self._saved.append((autodiff.Tape, "record", record))
        tracer = self

        op_spans = {f"autodiff.{op}" for op in AUTODIFF_OPS}

        def traced_record(tape, value, parents, backward_fn):
            op = tracer._stack[-1][1] if tracer._stack else ""
            if op in op_spans:
                inner, name = backward_fn, op + ".bwd"

                def backward_fn(g):
                    tracer._open(name)
                    try:
                        return inner(g)
                    finally:
                        tracer._close()
            return record(tape, value, parents, backward_fn)

        autodiff.Tape.record = traced_record

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def write(self, path: str) -> None:
        """Spans as JSON lines: [name, start_ns, end_ns, parent index, unit]."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
