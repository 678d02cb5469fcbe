"""Tape-based reverse-mode differentiation over numpy arrays.

One tape per training step: build the graph forward, call backward once,
discard. Nodes hold the forward value, parent refs, and a closure computing
parent gradients from the upstream gradient. `Tape.record` is the public
extension point used both by the built-in primitives below and by the
quantized-linear op, whose backward is a gradient estimator rather than the
true derivative.
"""

from __future__ import annotations

import weakref

import numpy as np

RMSNORM_EPS = 1e-6  # added to rmsnorm's mean square under the root


class Node:
    # the tape backref is weak: a strong tape<->node cycle would keep every
    # forward intermediate alive until the cycle collector ran, which at one
    # ~100MB graph per training step exhausts memory long before it does
    __slots__ = ("_tape", "value", "parents", "backward_fn", "grad")

    def __init__(self, tape, value, parents, backward_fn):
        self._tape = weakref.ref(tape)
        self.value = value
        self.parents = parents
        self.backward_fn = backward_fn
        self.grad = None

    @property
    def tape(self):
        return self._tape()

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Ordered record of operations; inputs of a node always precede it.

    Single-use: build the graph, call backward once, discard. backward
    releases each node's saved closure as it is consumed and detaches the
    node list, so the step's intermediates free by reference counting.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._consumed = False

    def leaf(self, value) -> Node:
        node = Node(self, np.asarray(value), (), None)
        self.nodes.append(node)
        return node

    def record(self, value, parents, backward_fn) -> Node:
        """Append an op node. backward_fn(upstream) returns one gradient per
        parent (None for no contribution)."""
        for p in parents:
            if not isinstance(p, Node) or p.tape is not self:
                raise ValueError("input ref does not belong to this tape")
        node = Node(self, np.asarray(value), tuple(parents), backward_fn)
        self.nodes.append(node)
        return node

    def backward(self, loss: Node) -> None:
        """Reverse-topological accumulation of gradients into every node."""
        if self._consumed:
            raise RuntimeError("tape is single-use and was already consumed")
        if loss.tape is not self:
            raise ValueError("loss node does not belong to this tape")
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        loss.grad = np.ones_like(loss.value)
        leaf_buffers = set()  # ids of the buffers behind the leaves' gradients
        for node in reversed(self.nodes):
            if node.grad is None or not node.parents:
                continue
            grads = node.backward_fn(node.grad)
            node.backward_fn = None
            for parent, g in zip(node.parents, grads):
                if g is None:
                    continue
                if parent.grad is not None:
                    g = parent.grad + g
                elif not parent.parents:  # a leaf owns its gradient: copy one another leaf got
                    if id(_buffer(g)) in leaf_buffers:
                        g = g.copy()
                    leaf_buffers.add(id(_buffer(g)))
                parent.grad = g
        self._consumed = True
        self.nodes = []


def _buffer(a):
    """The array that owns a's memory (a itself unless a is a view)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


# --- built-in differentiable primitives -------------------------------------

def add(a: Node, b) -> Node:
    if isinstance(b, Node):
        if a.value.shape != b.value.shape:
            raise ValueError(f"add shape mismatch {a.value.shape} vs {b.value.shape}")
        return a.tape.record(a.value + b.value, (a, b), lambda g: (g, g))
    const = np.asarray(b)
    value = a.value + const
    if value.shape != a.value.shape:
        raise ValueError("constant add must not broadcast the node's shape up")
    return a.tape.record(value, (a,), lambda g: (g,))


def mul(a: Node, b) -> Node:
    if isinstance(b, Node):
        if a.value.shape != b.value.shape:
            raise ValueError(f"mul shape mismatch {a.value.shape} vs {b.value.shape}")
        av, bv = a.value, b.value
        return a.tape.record(av * bv, (a, b), lambda g: (g * bv, g * av))
    const = np.asarray(b)
    return a.tape.record(a.value * const, (a,), lambda g: (g * const,))


def matmul(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {av.shape} x {bv.shape}")
    if av.shape[:-2] != bv.shape[:-2]:
        raise ValueError(f"matmul leading dims disagree: {av.shape} x {bv.shape}")

    def backward(g):
        return g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g

    return a.tape.record(av @ bv, (a, b), backward)


def transpose(a: Node, axes) -> Node:
    inverse = tuple(np.argsort(axes))
    return a.tape.record(
        np.transpose(a.value, axes), (a,), lambda g: (np.transpose(g, inverse),)
    )


def reshape(a: Node, shape) -> Node:
    old = a.value.shape
    return a.tape.record(
        np.ascontiguousarray(a.value).reshape(shape), (a,), lambda g: (g.reshape(old),)
    )


def silu(a: Node) -> Node:
    x = a.value
    with np.errstate(over="ignore"):  # exp overflow saturates sigmoid to 0
        s = 1.0 / (1.0 + np.exp(-x))
    return a.tape.record(x * s, (a,), lambda g: (g * s * (1.0 + x * (1.0 - s)),))


def softmax(a: Node) -> Node:
    x = a.value
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return ((g - (g * p).sum(axis=-1, keepdims=True)) * p,)

    return a.tape.record(p, (a,), backward)


def embedding_gather(table: Node, ids: np.ndarray) -> Node:
    ids = np.asarray(ids)

    def backward(g):
        out = np.zeros_like(table.value)
        np.add.at(out, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        return (out,)

    return table.tape.record(table.value[ids], (table,), backward)


def rotary(a: Node, cos: np.ndarray, sin: np.ndarray) -> Node:
    """Rotate pairs (x[..., i], x[..., i + d/2]) by per-position angles."""
    x = a.value
    d = x.shape[-1]
    half = d // 2
    x1, x2 = x[..., :half], x[..., half:]
    value = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

    def backward(g):
        g1, g2 = g[..., :half], g[..., half:]
        return (np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos], axis=-1),)

    return a.tape.record(value, (a,), backward)


def rmsnorm(a: Node, gain: Node) -> Node:
    x = a.value
    n = x.shape[-1]
    inv = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + RMSNORM_EPS)
    normed = x * inv
    value = normed * gain.value

    def backward(g):
        gg = g * gain.value
        dot = (gg * x).sum(axis=-1, keepdims=True)
        dx = inv * gg - (inv ** 3) * x * (dot / n)
        dgain = (g * normed).reshape(-1, n).sum(axis=0).astype(gain.value.dtype)
        return dx, dgain

    return a.tape.record(value, (a, gain), backward)


def cross_entropy_with_logits(logits: Node, targets: np.ndarray) -> Node:
    """Mean token cross-entropy. logits (..., V), targets (...) integer ids."""
    x = logits.value.reshape(-1, logits.shape[-1])
    targets = np.asarray(targets).reshape(-1)
    if targets.min() < 0 or targets.max() >= x.shape[1]:
        raise ValueError(f"target id out of range [0, {x.shape[1]})")
    n = x.shape[0]
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    log_probs = (x - m) - np.log(z)
    value = np.asarray(-log_probs[np.arange(n), targets].mean(), dtype=x.dtype)

    def backward(g):
        p = e / z
        p[np.arange(n), targets] -= 1.0
        return (((float(g) / n) * p).reshape(logits.shape),)

    return logits.tape.record(value, (logits,), backward)


def sum_all(a: Node) -> Node:
    shape = a.value.shape
    return a.tape.record(
        np.asarray(a.value.sum(), dtype=a.value.dtype),
        (a,),
        lambda g: (np.broadcast_to(g, shape).copy(),),
    )
