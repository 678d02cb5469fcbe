"""Tape-based reverse-mode differentiation over numpy arrays.

One tape per training step: build the graph forward, call backward once,
discard. Nodes hold the forward value, parent refs, and a closure computing
parent gradients from the upstream gradient. `Tape.record` is the public
extension point used both by the built-in primitives below and by the
quantized-linear op, whose backward is a gradient estimator rather than the
true derivative.

Two ops fuse what would otherwise be a chain of primitives into one node
with a hand-written backward: `causal_attention` (head split, rotary on q
and k, q k^T, scale, causal mask, softmax, p v, head merge) and `swiglu`
(silu(gate) * up). They run their elementwise steps in place on buffers
they own and keep the chain's arithmetic order, so their values and
gradients equal the chain's bit for bit. `causal_attention` rotates q and k
once per (B, S, h) tensor, as x * cos_w + swap(x) * sin_w with full-width
(S, h) tables built from the (S, d/2) cos and sin; its backward keeps the
rotated q and k and un-rotates the gathered q and k gradients once, in
place. The primitives they replace (`softmax`, `rotary`, `silu`, `mul`,
`reshape`, `transpose`) stay: the tests use them as the fused ops' oracle,
and the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import weakref

import numpy as np

RMSNORM_EPS = 1e-6  # added to rmsnorm's mean square under the root
MASKED = -1e9  # causal_attention adds this to the scores of future positions


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
        # one flat index per element, rows in id order: numpy's fast 1-D
        # ufunc.at path, adding in the same order as a row-wise scatter
        out = np.zeros_like(table.value)
        width = out.shape[-1]
        flat = (ids.astype(np.intp).reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        np.add.at(out.reshape(-1), flat, g.reshape(-1))
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
    value = np.square(x)
    inv = 1.0 / np.sqrt(np.mean(value, axis=-1, keepdims=True) + RMSNORM_EPS)
    np.multiply(x, inv, out=value)  # x normalized, then scaled by the gain
    value *= gain.value

    def backward(g):
        # dx = inv * (g * gain) - (inv ** 3) * x * (dot / n), in that order, in two buffers
        dx = g * gain.value
        t = dx * x
        dot = t.sum(axis=-1, keepdims=True)
        np.multiply(inv ** 3, x, out=t)
        t *= dot / n
        np.multiply(inv, dx, out=dx)
        dx -= t
        t = np.multiply(x, inv, out=t)  # x normalized, recomputed
        t *= g
        dgain = t.reshape(-1, n).sum(axis=0).astype(gain.value.dtype)
        return dx, dgain

    return a.tape.record(value, (a, gain), backward)


def causal_mask(seq_len: int) -> np.ndarray:
    """(1, 1, S, S) additive mask: MASKED above the diagonal, 0 elsewhere."""
    return np.triu(np.full((seq_len, seq_len), MASKED, dtype=np.float32), k=1)[None, None]


def causal_attention(q: Node, k: Node, v: Node, cos: np.ndarray, sin: np.ndarray,
                     scale) -> Node:
    """Causal multi-head self-attention as one node.

    q, k and v are (B, S, h) projections; cos and sin are the (S, d/2)
    rotary tables of the head dimension d, so there are h / d heads. Returns
    the heads' merged context, (B, S, h). The value and each gradient equal
    those of the primitive chain bit for bit: split the heads, `rotary` on
    q and k, q k^T, `mul` by scale, `add` causal_mask, `softmax`, p v, merge
    the heads. Rotary runs once per (B, S, h) tensor, on (S, h) tables built
    from cos and sin (see `_rotate`). The score steps run one batch row
    at a time, on (heads, S, S) blocks that stay in cache. The backward keeps
    the rotated q and k and the probabilities; it gathers the rotated-space
    gradients of q and k for every row, then un-rotates each once, in place.
    """
    for node in (k, v):
        if node.shape != q.shape:
            raise ValueError(f"attention shape mismatch {q.shape} vs {node.shape}")
    batch, seq, h = q.shape
    half = cos.shape[-1]
    d = 2 * half
    if cos.shape != (seq, half) or sin.shape != cos.shape or h % d:
        raise ValueError(f"rotary tables {cos.shape} do not fit a (B, S, h) = {q.shape} input")
    heads = h // d
    dtype = np.result_type(q.value, cos)
    mask = causal_mask(seq)[0]

    def split(x):  # (B, S, h) -> (B, heads, S, d) view
        return np.ascontiguousarray(x).reshape(batch, seq, heads, d).transpose(0, 2, 1, 3)

    def merged():  # an empty (B, S, h) array and its (B, heads, S, d) view
        out = np.empty(q.shape, dtype)
        return out, split(out)

    p = np.empty((batch, heads, seq, seq), dtype)  # scores, then the probabilities in place

    # `_rotate`'s scratch is p's memory while p holds no probabilities (before the
    # score loop, and after the backward's), where it is large enough (seq >= d),
    # so the rotations add no buffer to the step's peak
    def scratch():
        return p.reshape(-1)[:q.value.size].reshape(q.shape) if seq >= d else np.empty(q.shape, dtype)

    (q_rot, qr), (k_rot, kr) = merged(), merged()  # rotated q and k, and their head views
    _rotate(q.value, q_rot, cos, sin, scratch())
    _rotate(k.value, k_rot, cos, sin, scratch())
    vh = split(v.value)
    value, out = merged()
    for b in range(batch):
        pb = np.matmul(qr[b], np.swapaxes(kr[b], -1, -2), out=p[b])
        pb *= scale
        pb += mask
        pb -= pb.max(axis=-1, keepdims=True)
        np.exp(pb, out=pb)
        pb /= pb.sum(axis=-1, keepdims=True)
        np.matmul(pb, vh[b], out=out[b])

    def backward(g):
        gh = split(g)
        (dq, dqh), (dk, dkh), (dv, dvh) = merged(), merged(), merged()
        ds, t = np.empty((2, heads, seq, seq), dtype)
        for b in range(batch):
            pb = p[b]
            np.matmul(gh[b], np.swapaxes(vh[b], -1, -2), out=ds)
            np.matmul(np.swapaxes(pb, -1, -2), gh[b], out=dvh[b])
            ds -= np.multiply(ds, pb, out=t).sum(axis=-1, keepdims=True)
            ds *= pb
            ds *= scale
            dqh[b] = ds @ kr[b]
            dkh[b] = (np.swapaxes(qr[b], -1, -2) @ ds).transpose(0, 2, 1)
        _rotate(dq, dq, cos, sin, scratch(), inverse=True)  # p is spent from here
        _rotate(dk, dk, cos, sin, scratch(), inverse=True)
        return dq, dk, dv

    return q.tape.record(value, (q, k, v), backward)


def _rotate(x, out, cos, sin, swapped, inverse=False):
    """`rotary` on (B, S, h) arrays whose heads are d = 2 * cos.shape[-1]
    wide, or its backward if `inverse`; out may be x, and `swapped` is
    scratch of out's shape and dtype.

    out = x * cos_w + swap(x) * sin_w, where swap exchanges the two halves
    of each head and the (S, h) tables hold [cos, cos] and [-sin, sin] per
    head ([sin, -sin] for the inverse). That equals `rotary` bit for bit:
    a - b == a + (-b), x * (-s) == -(x * s), and addition commutes.
    """
    half = cos.shape[-1]
    heads = x.shape[-1] // (2 * half)
    cos_w = np.tile(cos, (1, 2 * heads))
    sin_w = np.tile(np.concatenate([sin, -sin] if inverse else [-sin, sin], axis=1), (1, heads))
    lead = x.shape[:-1]
    np.copyto(swapped.reshape(*lead, heads, 2, half),
              x.reshape(*lead, heads, 2, half)[..., ::-1, :])
    np.multiply(x, cos_w, out=out)
    swapped *= sin_w
    out += swapped


def swiglu(gate: Node, up: Node) -> Node:
    """silu(gate) * up as one node, equal bit for bit in value and gradients
    to `mul(silu(gate), up)`. The backward keeps the sigmoid of gate."""
    if gate.shape != up.shape:
        raise ValueError(f"swiglu shape mismatch {gate.shape} vs {up.shape}")
    x, u = gate.value, up.value
    s = np.negative(x)
    with np.errstate(over="ignore"):  # exp overflow saturates sigmoid to 0
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    value = x * s
    value *= u

    def backward(g):
        dgate = g * u
        dgate *= s
        dup = x * s
        dup *= g
        t = np.subtract(1.0, s, out=s)  # s is spent from here: t = 1 + x * (1 - s)
        t *= x
        t += 1.0
        dgate *= t
        return dgate, dup

    return gate.tape.record(value, (gate, up), backward)


def cross_entropy_with_logits(logits: Node, targets: np.ndarray) -> Node:
    """Mean token cross-entropy. logits (..., V), targets (...) integer ids."""
    x = logits.value.reshape(-1, logits.shape[-1])
    targets = np.asarray(targets).reshape(-1)
    if targets.min() < 0 or targets.max() >= x.shape[1]:
        raise ValueError(f"target id out of range [0, {x.shape[1]})")
    n = x.shape[0]
    rows = np.arange(n)
    e = x - x.max(axis=-1, keepdims=True)  # shifted, then exponentiated in place
    picked = e[rows, targets]
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    value = np.asarray(-(picked - np.log(z[:, 0])).mean(), dtype=x.dtype)

    def backward(g):
        p = np.divide(e, z, out=e)  # e is spent from here
        p[rows, targets] -= 1.0
        p *= float(g) / n
        return (p.reshape(logits.shape),)

    return logits.tape.record(value, (logits,), backward)


def sum_all(a: Node) -> Node:
    shape = a.value.shape
    return a.tape.record(
        np.asarray(a.value.sum(), dtype=a.value.dtype),
        (a,),
        lambda g: (np.broadcast_to(g, shape).copy(),),
    )
