import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustquant import autodiff as ad


def finite_difference(fn, arrays, h=1e-5):
    """Central-difference gradient oracle over a list of float64 arrays."""
    grads = []
    for idx, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn(arrays)
            flat[i] = orig - h
            down = fn(arrays)
            flat[i] = orig
            gf[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestTapeBasics:
    def test_sum_rule(self):
        t = ad.Tape()
        a, b = t.leaf(np.array([1.0, 2.0])), t.leaf(np.array([3.0, 4.0]))
        loss = ad.sum_all(ad.add(a, b))
        t.backward(loss)
        assert np.array_equal(a.grad, np.ones(2))
        assert np.array_equal(b.grad, np.ones(2))

    def test_product_rule(self):
        t = ad.Tape()
        a, b = t.leaf(np.array([1.0, 2.0])), t.leaf(np.array([3.0, 4.0]))
        t.backward(ad.sum_all(ad.mul(a, b)))
        assert np.array_equal(a.grad, b.value)
        assert np.array_equal(b.grad, a.value)

    def test_chain_of_three_matches_hand_derivation(self):
        # f(x) = sum((2x + 3)^2): df/dx = 4 (2x + 3)
        t = ad.Tape()
        x = t.leaf(np.array([0.5, -1.0, 2.0]))
        y = ad.add(ad.mul(x, 2.0), 3.0)
        t.backward(ad.sum_all(ad.mul(y, y)))
        assert np.allclose(x.grad, 4 * (2 * x.value + 3))

    def test_loss_sum_gives_ones(self):
        t = ad.Tape()
        x = t.leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
        t.backward(ad.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_half_squared_norm_gives_x(self):
        t = ad.Tape()
        x = t.leaf(np.array([1.0, -2.0, 3.0]))
        t.backward(ad.mul(ad.sum_all(ad.mul(x, x)), 0.5))
        assert np.allclose(x.grad, x.value)

    def test_non_scalar_loss_rejected(self):
        t = ad.Tape()
        x = t.leaf(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            t.backward(ad.mul(x, 2.0))

    def test_dangling_input_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ValueError, match="tape"):
            ad.add(a, b)

    def test_duplicate_consumer_doubles_gradient(self):
        t = ad.Tape()
        x = t.leaf(np.array([1.0, 2.0]))
        t.backward(ad.add(ad.sum_all(x), ad.sum_all(x)))
        assert np.array_equal(x.grad, 2 * np.ones(2))

    def test_leaves_own_their_gradients(self):
        # add passes one array to both parents, reshape passes a view of it on
        t = ad.Tape()
        a, b, c = (t.leaf(np.zeros(4)) for _ in range(3))
        t.backward(ad.sum_all(ad.add(ad.add(a, b), ad.reshape(ad.reshape(c, (2, 2)), (4,)))))
        for x, y in ((a, b), (a, c), (b, c)):
            assert not np.shares_memory(x.grad, y.grad)
        for x in (a, b, c):
            assert np.array_equal(x.grad, np.ones(4))

    def test_backward_preserves_forward_values(self):
        t = ad.Tape()
        x = t.leaf(np.array([1.0, 2.0]))
        y = ad.mul(x, x)
        snapshot = y.value.copy()
        t.backward(ad.sum_all(y))
        assert np.array_equal(y.value, snapshot)

    def test_release_drops_the_value_and_keeps_the_shape(self):
        t = ad.Tape()
        x = t.leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
        y = ad.mul(x, 2.0)
        loss = ad.sum_all(y)
        t.release(y)
        assert y.value is None and y.shape == (2, 3)
        t.backward(loss)
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))

    def test_release_of_another_tapes_node_rejected(self):
        node = ad.Tape().leaf(np.ones(2))
        with pytest.raises(ValueError, match="does not belong"):
            ad.Tape().release(node)
        assert node.value is not None


class TestDenseNetFiniteDifference:
    def test_three_layer_net(self):
        rng = np.random.default_rng(21)
        w1 = rng.standard_normal((8, 6))
        w2 = rng.standard_normal((6, 5))
        w3 = rng.standard_normal((5, 3))
        x0 = rng.standard_normal((4, 8))

        def run(arrays):
            a1, a2, a3 = arrays
            t = ad.Tape()
            n1, n2, n3 = t.leaf(a1), t.leaf(a2), t.leaf(a3)
            h1 = ad.silu(ad.matmul(t.leaf(x0), n1))
            h2 = ad.silu(ad.matmul(h1, n2))
            out = ad.matmul(h2, n3)
            loss = ad.mul(ad.sum_all(ad.mul(out, out)), 0.5)
            return float(loss.value)

        t = ad.Tape()
        n1, n2, n3 = t.leaf(w1.copy()), t.leaf(w2.copy()), t.leaf(w3.copy())
        h1 = ad.silu(ad.matmul(t.leaf(x0), n1))
        h2 = ad.silu(ad.matmul(h1, n2))
        out = ad.matmul(h2, n3)
        t.backward(ad.mul(ad.sum_all(ad.mul(out, out)), 0.5))

        fd = finite_difference(run, [w1.copy(), w2.copy(), w3.copy()])
        for node, g in zip((n1, n2, n3), fd):
            assert rel_err(node.grad, g) < 1e-4


PRIMITIVE_CASES = {
    "matmul": lambda t, xs: ad.matmul(t.leaf(xs[0]), t.leaf(xs[1])),
    "add": lambda t, xs: ad.add(t.leaf(xs[0]), t.leaf(xs[1])),
    "mul": lambda t, xs: ad.mul(t.leaf(xs[0]), t.leaf(xs[1])),
    "silu": lambda t, xs: ad.silu(t.leaf(xs[0])),
    "softmax": lambda t, xs: ad.softmax(t.leaf(xs[0])),
    "transpose": lambda t, xs: ad.transpose(t.leaf(xs[0]), (1, 0)),
    "reshape": lambda t, xs: ad.reshape(t.leaf(xs[0]), (-1,)),
}


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
    def test_finite_difference(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        if name == "matmul":
            arrays = [rng.standard_normal((5, 7)), rng.standard_normal((7, 4))]
        elif name in ("add", "mul"):
            arrays = [rng.standard_normal((6, 3)), rng.standard_normal((6, 3))]
        else:
            arrays = [rng.standard_normal((4, 6))]
        build = PRIMITIVE_CASES[name]
        # random linear functional makes the output scalar without hiding terms
        probe = rng.standard_normal(build(ad.Tape(), [a.copy() for a in arrays]).value.shape)

        def run(xs):
            t = ad.Tape()
            out = build(t, xs)
            return float((out.value * probe).sum())

        t = ad.Tape()
        leaves = []
        orig_leaf = t.leaf

        def capture(value):
            node = orig_leaf(value)
            leaves.append(node)
            return node

        t.leaf = capture
        out = build(t, [a.copy() for a in arrays])
        t.backward(t.record(np.asarray((out.value * probe).sum()), (out,), lambda g: (g * probe,)))

        fd = finite_difference(run, [a.copy() for a in arrays])
        for node, g in zip(leaves[: len(arrays)], fd):
            assert rel_err(node.grad, g) < 1e-4, name

    def test_batched_matmul(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 3, 5, 6))
        probe = rng.standard_normal((2, 3, 4, 6))

        def run(xs):
            return float((xs[0] @ xs[1] * probe).sum())

        t = ad.Tape()
        na, nb = t.leaf(a.copy()), t.leaf(b.copy())
        out = ad.matmul(na, nb)
        t.backward(t.record(np.asarray((out.value * probe).sum()), (out,), lambda g: (g * probe,)))
        fd = finite_difference(run, [a.copy(), b.copy()])
        assert rel_err(na.grad, fd[0]) < 1e-4
        assert rel_err(nb.grad, fd[1]) < 1e-4

    def test_rotary_finite_difference_and_norms(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((3, 8))
        angles = rng.uniform(0, 2 * np.pi, (3, 4))
        cos, sin = np.cos(angles), np.sin(angles)
        probe = rng.standard_normal((3, 8))

        def run(xs):
            x1, x2 = xs[0][..., :4], xs[0][..., 4:]
            v = np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
            return float((v * probe).sum())

        t = ad.Tape()
        n = t.leaf(x.copy())
        out = ad.rotary(n, cos, sin)
        # rotation preserves per-pair norms
        pairs_in = x[..., :4] ** 2 + x[..., 4:] ** 2
        pairs_out = out.value[..., :4] ** 2 + out.value[..., 4:] ** 2
        assert np.allclose(pairs_in, pairs_out, rtol=1e-12)
        t.backward(t.record(np.asarray((out.value * probe).sum()), (out,), lambda g: (g * probe,)))
        fd = finite_difference(run, [x.copy()])
        assert rel_err(n.grad, fd[0]) < 1e-4

    def test_rmsnorm_finite_difference(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((5, 6))
        gain = rng.standard_normal(6)
        probe = rng.standard_normal((5, 6))
        eps = 1e-6

        def run(xs):
            xv, gv = xs
            inv = 1 / np.sqrt(np.mean(xv ** 2, axis=-1, keepdims=True) + eps)
            return float((xv * inv * gv * probe).sum())

        t = ad.Tape()
        nx, ng = t.leaf(x.copy()), t.leaf(gain.copy())
        out = ad.rmsnorm(nx, ng)
        t.backward(t.record(np.asarray((out.value * probe).sum()), (out,), lambda g: (g * probe,)))
        fd = finite_difference(run, [x.copy(), gain.copy()])
        assert rel_err(nx.grad, fd[0]) < 1e-4
        assert rel_err(ng.grad, fd[1]) < 1e-4

    def test_cross_entropy_finite_difference(self):
        rng = np.random.default_rng(25)
        logits = rng.standard_normal((7, 5))
        targets = rng.integers(0, 5, 7)

        def run(xs):
            x = xs[0]
            m = x.max(axis=-1, keepdims=True)
            lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
            return float(np.mean(lse[:, 0] - x[np.arange(7), targets]))

        t = ad.Tape()
        n = t.leaf(logits.copy())
        loss = ad.cross_entropy_with_logits(n, targets)
        assert loss.value == pytest.approx(run([logits.copy()]))
        t.backward(loss)
        fd = finite_difference(run, [logits.copy()])
        assert rel_err(n.grad, fd[0]) < 1e-4

    def test_cross_entropy_leading_axes_match_flattened_call(self):
        rng = np.random.default_rng(26)
        logits = rng.standard_normal((3, 4, 5)).astype(np.float32)
        targets = rng.integers(0, 5, (3, 4))

        def run(x, tg):
            t = ad.Tape()
            n = t.leaf(x)
            loss = ad.cross_entropy_with_logits(n, tg)
            t.backward(loss)
            return loss.value, n.grad

        loss3, grad3 = run(logits, targets)
        loss2, grad2 = run(logits.reshape(12, 5), targets.reshape(12))
        assert loss3.tobytes() == loss2.tobytes()
        assert grad3.shape == logits.shape
        assert grad3.tobytes() == grad2.tobytes()

    def test_embedding_gather_gradient(self):
        rng = np.random.default_rng(26)
        table = rng.standard_normal((10, 4))
        ids = np.array([[1, 3], [3, 0]])
        probe = rng.standard_normal((2, 2, 4))

        t = ad.Tape()
        n = t.leaf(table.copy())
        out = ad.embedding_gather(n, ids)
        t.backward(t.record(np.asarray((out.value * probe).sum()), (out,), lambda g: (g * probe,)))
        want = np.zeros_like(table)
        for (i, j), tok in np.ndenumerate(ids):
            want[tok] += probe[i, j]
        assert np.allclose(n.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_gather_gradient_equals_row_loop_bytewise(self, dtype):
        rng = np.random.default_rng(29)
        table = rng.standard_normal((256, 128)).astype(dtype)
        ids = rng.integers(0, 6, (8, 128))  # every row hit about 170 times
        ids[0, :3] = [255, -1, -256]  # negative ids index from the end, as in the forward
        probe = (rng.standard_normal((8, 128, 128)) * 10.0 ** rng.integers(-3, 4, (8, 128, 1))
                 ).astype(dtype)
        t = ad.Tape()
        n = t.leaf(table.copy())
        probed_backward(t, ad.embedding_gather(n, ids), probe)
        want = np.zeros_like(table)
        for i, tok in enumerate(ids.reshape(-1)):
            want[tok] += probe.reshape(-1, 128)[i]
        assert n.grad.dtype == want.dtype and n.grad.tobytes() == want.tobytes()


def probed_backward(t, out, probe):
    """Backward through `out` with upstream gradient `probe`."""
    t.backward(t.record(np.zeros((), out.value.dtype), (out,), lambda g: (probe,)))


def attention_chain(q, k, v, cos, sin, scale):
    """The primitive chain that `causal_attention` fuses."""
    batch, seq, h = q.shape
    d = 2 * cos.shape[-1]
    q, k, v = (ad.transpose(ad.reshape(n, (batch, seq, h // d, d)), (0, 2, 1, 3))
               for n in (q, k, v))
    q, k = ad.rotary(q, cos, sin), ad.rotary(k, cos, sin)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
    probs = ad.softmax(ad.add(scores, ad.causal_mask(seq)))
    return ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)), (batch, seq, h))


def swiglu_chain(gate, up):
    return ad.mul(ad.silu(gate), up)


def attention_inputs(rng, batch, seq, heads, half, dtype):
    h = 2 * half * heads
    q, k, v = (rng.standard_normal((batch, seq, h)).astype(dtype) for _ in range(3))
    angles = rng.uniform(0, 2 * np.pi, (seq, half))
    return [q, k, v], np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


class TestFusedOps:
    def test_causal_attention_finite_difference(self):
        rng = np.random.default_rng(27)
        arrays, cos, sin = attention_inputs(rng, 2, 4, 2, 2, np.float64)
        probe = rng.standard_normal(arrays[0].shape)

        def run(xs):
            t = ad.Tape()
            out = ad.causal_attention(*(t.leaf(x) for x in xs), cos, sin)
            return float((out.value * probe).sum())

        t = ad.Tape()
        leaves = [t.leaf(x.copy()) for x in arrays]
        probed_backward(t, ad.causal_attention(*leaves, cos, sin), probe)
        fd = finite_difference(run, [x.copy() for x in arrays])
        for node, g in zip(leaves, fd):
            assert rel_err(node.grad, g) < 1e-4

    def test_swiglu_finite_difference(self):
        rng = np.random.default_rng(28)
        arrays = [rng.standard_normal((3, 5)) * 3, rng.standard_normal((3, 5))]
        probe = rng.standard_normal((3, 5))

        def run(xs):
            t = ad.Tape()
            return float((ad.swiglu(t.leaf(xs[0]), t.leaf(xs[1])).value * probe).sum())

        t = ad.Tape()
        leaves = [t.leaf(x.copy()) for x in arrays]
        probed_backward(t, ad.swiglu(*leaves), probe)
        fd = finite_difference(run, [x.copy() for x in arrays])
        for node, g in zip(leaves, fd):
            assert rel_err(node.grad, g) < 1e-4

    @pytest.mark.parametrize("op, args", [
        ("causal_attention", lambda t: (t.leaf(np.ones((1, 2, 4))), t.leaf(np.ones((1, 3, 4))),
                                        t.leaf(np.ones((1, 2, 4))), np.ones((2, 1)),
                                        np.ones((2, 1)))),
        ("causal_attention", lambda t: (*(t.leaf(np.ones((1, 2, 6))) for _ in range(3)),
                                        np.ones((2, 2)), np.ones((2, 2)))),
        ("swiglu", lambda t: (t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 2))))),
    ], ids=["qkv-shapes", "tables-vs-width", "swiglu-shapes"])
    def test_shape_mismatch_rejected(self, op, args):
        with pytest.raises(ValueError):
            getattr(ad, op)(*args(ad.Tape()))

    @given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fused_ops_equal_their_chains_bytewise(self, batch, seq, heads, half, dtype, seed):
        rng = np.random.default_rng(seed)
        arrays, cos, sin = attention_inputs(rng, batch, seq, heads, half, dtype)
        scale = dtype(1.0 / np.sqrt(2 * half))
        probe = rng.standard_normal(arrays[0].shape).astype(dtype)
        cases = [(ad.causal_attention, lambda *n: attention_chain(*n, cos, sin, scale),
                  arrays, (cos, sin)),
                 (ad.swiglu, swiglu_chain, arrays[:2], ())]
        for fused, chain, xs, extra in cases:
            results = []
            for build in (lambda *n: fused(*n, *extra), chain):
                t = ad.Tape()
                leaves = [t.leaf(x.copy()) for x in xs]
                out = build(*leaves)
                value = out.value.copy()
                probed_backward(t, out, probe)
                results.append([value, *(leaf.grad for leaf in leaves)])
            for got, want in zip(*results):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), fused.__name__


def frozen_rmsnorm_backward(x, gain, g):
    """rmsnorm's backward as it was before it reused its buffers."""
    n = x.shape[-1]
    inv = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + ad.RMSNORM_EPS)
    normed = x * inv
    gg = g * gain
    dot = (gg * x).sum(axis=-1, keepdims=True)
    dx = inv * gg - (inv ** 3) * x * (dot / n)
    dgain = (g * normed).reshape(-1, n).sum(axis=0).astype(gain.dtype)
    return dx, dgain


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (5, 6), (2, 3, 16)])
def test_rmsnorm_backward_equals_frozen_copy_bytewise(dtype, shape):
    rng = np.random.default_rng(30)
    x, g = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
    gain = rng.standard_normal(shape[-1]).astype(dtype)
    t = ad.Tape()
    nx, ng = t.leaf(x.copy()), t.leaf(gain.copy())
    probed_backward(t, ad.rmsnorm(nx, ng), g)
    dx, dgain = frozen_rmsnorm_backward(x, gain, g)
    assert nx.grad.dtype == dx.dtype and nx.grad.tobytes() == dx.tobytes()
    assert ng.grad.dtype == dgain.dtype and ng.grad.tobytes() == dgain.tobytes()


def frozen_cross_entropy(x, targets):
    """cross_entropy_with_logits' value and gradient as they were before it
    reused its buffers."""
    n = x.shape[0]
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    log_probs = (x - m) - np.log(z)
    value = np.asarray(-log_probs[np.arange(n), targets].mean(), dtype=x.dtype)
    p = e / z
    p[np.arange(n), targets] -= 1.0
    return value, (1.0 / n) * p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_equals_frozen_copy_bytewise(dtype):
    rng = np.random.default_rng(31)
    x = (rng.standard_normal((37, 11)) * 4).astype(dtype)
    targets = rng.integers(0, 11, 37)
    t = ad.Tape()
    n = t.leaf(x.copy())
    loss = ad.cross_entropy_with_logits(n, targets)
    t.backward(loss)
    value, grad = frozen_cross_entropy(x, targets)
    assert loss.value.dtype == value.dtype and loss.value.tobytes() == value.tobytes()
    assert n.grad.dtype == grad.dtype and n.grad.tobytes() == grad.tobytes()
