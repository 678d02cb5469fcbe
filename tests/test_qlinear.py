import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustquant import autodiff as ad
from trustquant import qlinear as ql
from trustquant.hadamard import ht, iht
from trustquant.quantizer import FORMATS, QuantConfig, project


def dense_sylvester(n):
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.vstack([np.hstack([h, h]), np.hstack([h, -h])])
    return h / np.sqrt(n)


@pytest.fixture()
def operands():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((12, 16)).astype(np.float64)
    w = rng.standard_normal((10, 16)).astype(np.float64)
    return x, w


class TestForward:
    def test_format_none_is_exact_dense(self, operands):
        x, w = operands
        cfg = QuantConfig(format="none", hadamard=False)
        y, ctx = ql.forward(x, w, cfg)
        assert np.array_equal(y, x @ w.T)
        assert np.all(ctx.mask_x) and np.all(ctx.mask_w)

    def test_hadamard_only_preserves_product(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((32, 64)).astype(np.float32)
        w = rng.standard_normal((16, 64)).astype(np.float32)
        cfg = QuantConfig(format="none", hadamard=True)
        y, _ = ql.forward(x, w, cfg)
        exact = x @ w.T
        assert np.linalg.norm(y - exact) / np.linalg.norm(exact) < 1e-4

    def test_8bit_quantization_noise_is_small(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((32, 64)).astype(np.float32)
        w = rng.standard_normal((16, 64)).astype(np.float32)
        y, _ = ql.forward(x, w, QuantConfig(format="int8"))
        exact = x @ w.T
        assert np.linalg.norm(y - exact) / np.linalg.norm(exact) < 0.05

    def test_weight_only_skips_activation_projection(self, operands):
        x, w = operands
        cfg = QuantConfig(format="int4", hadamard=False, weight_only=True)
        y, ctx = ql.forward(x, w, cfg)
        assert np.array_equal(ctx.x_hat_h, x)
        assert np.all(ctx.mask_x)
        assert not np.array_equal(ctx.w_hat_h, w)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            ql.forward(np.ones((2, 3)), np.ones((4, 5)), QuantConfig())

    def test_context_shapes(self, operands):
        x, w = operands
        _, ctx = ql.forward(x, w, QuantConfig(format="int4"))
        assert ctx.x_hat_h.shape == x.shape
        assert ctx.w_hat_h.shape == w.shape
        assert ctx.mask_x.shape == x.shape and ctx.mask_x.dtype == bool
        assert ctx.mask_w.shape == w.shape and ctx.mask_w.dtype == bool


def frozen_forward(x, w, cfg):
    """qlinear.forward as it stood with one hand-copied block per operand and
    dense bool masks: the oracle the one per-operand step must match bit for
    bit. Its context is the fields a QLinearContext reads out."""
    if cfg.hadamard:
        x_h = ht(x)
        w_h = ht(w)
    else:
        x_h, w_h = x, w
    if cfg.format == "none" or cfg.weight_only:
        x_hat, mask_x = x_h, np.ones(x_h.shape, dtype=bool)
    else:
        px = project(x_h, cfg)
        x_hat, mask_x = px.values, px.trust_mask
    if cfg.format == "none":
        w_hat, mask_w = w_h, np.ones(w_h.shape, dtype=bool)
    else:
        pw = project(w_h, cfg)
        w_hat, mask_w = pw.values, pw.trust_mask
    return x_hat @ w_hat.T, SimpleNamespace(x_hat_h=x_hat, w_hat_h=w_hat, mask_x=mask_x,
                                            mask_w=mask_w, hadamard=cfg.hadamard)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_only", [False, True])
@pytest.mark.parametrize("hadamard", [False, True])
@pytest.mark.parametrize("fmt", FORMATS)
def test_forward_matches_frozen_oracle(fmt, hadamard, weight_only, dtype):
    rng = np.random.default_rng(38)
    x = (rng.standard_normal((12, 16)) * 3).astype(dtype)  # outliers leave masked entries
    w = (rng.standard_normal((10, 16)) * 3).astype(dtype)
    cfg = QuantConfig(format=fmt, hadamard=hadamard, weight_only=weight_only)
    y, ctx = ql.forward(x, w, cfg)
    want_y, want = frozen_forward(x, w, cfg)
    for name, got, ref in [("y", y, want_y)] + [
            (f, getattr(ctx, f), getattr(want, f))
            for f in ("x_hat_h", "w_hat_h", "mask_x", "mask_w")]:
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    assert ctx.hadamard is want.hadamard


def untiled_operand(a, cfg):
    """An operand as `qlinear` computed it before row tiles: the transform
    and the projection each on the whole array, the mask packed along k."""
    a_h = ht(a) if cfg.hadamard else a
    if cfg.format == "none":
        return a_h, None
    p = project(a_h, cfg)
    return p.values, np.packbits(p.trust_mask, axis=-1)


def same_operand(got, want):
    """Each half of two operands is the same bytes, or None in both."""
    return all(g is None if w is None else
               g is not None and g.dtype == w.dtype and g.shape == w.shape
               and g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestRowTiles:
    """A projected operand of more than `qlinear.TILE` elements runs a row
    tile at a time, with the bits of the whole-array transform and projection."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        monkeypatch.setattr(ql, "project", lambda a, cfg: calls.append(a.shape) or project(a, cfg))
        return calls

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_tiles_match_the_untiled_operand(self, fmt, monkeypatch):
        calls = self._counted(monkeypatch)
        rng = np.random.default_rng(41)
        for width, dtype, hadamard, group_size in itertools.product(
                (640, 1792), (np.float32, np.float64), (False, True), (None, 16)):
            monkeypatch.setattr(ql, "TILE", 3 * width + width // 2)  # 3 rows per tile
            cfg = QuantConfig(format=fmt, hadamard=hadamard, group_size=group_size)
            # one row, tile - 1, tile, tile + 1 (a tile and a lone last row, which
            # `ht` runs as a batch), several tiles with that lone row, several with
            # a short tail
            for n, tiles in ((1, 1), (2, 1), (3, 1), (4, 2), (10, 4), (11, 4)):
                a = (rng.standard_normal((n, width)) * 3).astype(dtype)
                if n > 3:  # the rows either side of the first tile boundary
                    a[2] = 0.0
                    a[3, 5] = np.nan
                want = untiled_operand(a, cfg)
                for side in (ql.activation, ql.weight):
                    calls.clear()
                    got = side(a, cfg)
                    assert same_operand(got, want), (side.__name__, width, dtype,
                                                     hadamard, group_size, n)
                    assert len(calls) == (0 if fmt == "none" else tiles)
                if n == 11:  # leading axes tile as their flattened rows
                    got3 = ql.activation(a.reshape(1, n, width), cfg)
                    assert all(g is w is None or g.tobytes() == w.tobytes()
                               for g, w in zip(got3, want))

    def test_wide_eval_activation_matches_the_untiled_operand(self, monkeypatch):
        calls = self._counted(monkeypatch)
        cfg = QuantConfig(format="int4")
        a = np.random.default_rng(42).standard_normal((2032, 1792)).astype(np.float32)
        step = ql.TILE // 1792
        a[step - 1] = 0.0
        a[step, 7] = np.nan
        got = ql.activation(a, cfg)
        assert step == 73 and len(calls) == 28  # 27 tiles of 73 rows and one of 61
        assert same_operand(got, untiled_operand(a, cfg))
        assert np.isnan(got[0][step]).all() and not got[0][step - 1].any()

    def test_tiles_bound_the_temporary_memory(self):
        # past its two outputs, the operand holds a few tiles, not full-size buffers
        cfg = QuantConfig(format="int4")
        a = np.random.default_rng(43).standard_normal((2032, 1792)).astype(np.float32)
        ql.activation(a[:8], cfg)  # alpha* and the Sylvester blocks are cached
        tracemalloc.start()
        try:
            values, bits = ql.activation(a, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes - bits.nbytes < 8 * ql.TILE * a.itemsize

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [128, 640, 1792])
    def test_backward_iht_in_tiles_matches_the_allocating_iht(self, k, dtype):
        # grad_x runs as two tiles and a lone row, grad_w as one tile and a lone row
        step = ql.TILE // k
        rng = np.random.default_rng(k)
        x = rng.standard_normal((2 * step + 1, k)).astype(dtype)
        w = rng.standard_normal((step + 1, k)).astype(dtype)
        _, ctx = ql.forward(x, w, QuantConfig(format="int4"))
        gy = rng.standard_normal((len(x), len(w))).astype(dtype)
        for estimator, masked in ((ql.backward, True), (ql.ste_backward, False)):
            want_x, want_w = gy @ ctx.w_hat_h, gy.T @ ctx.x_hat_h
            if masked:
                want_x *= ctx.mask_x
                want_w *= ctx.mask_w
            got_x, got_w = estimator(ctx, gy)
            assert got_x.tobytes() == iht(want_x).tobytes()
            assert got_w.tobytes() == iht(want_w).tobytes()


class TestStoredMasks:
    """A saved trust mask is one bit per coordinate, ceil(k / 8) bytes a row;
    an operand that is not projected saves none."""

    def test_untiled_and_tiled_masks_are_bits(self, monkeypatch):
        rng = np.random.default_rng(44)
        x = (rng.standard_normal((11, 12)) * 3).astype(np.float32)
        w = (rng.standard_normal((7, 12)) * 3).astype(np.float32)
        cfg = QuantConfig(format="int4")
        _, dense = frozen_forward(x, w, cfg)
        for tile in (ql.TILE, 3 * 12):  # the whole array; tiles of 3 rows
            monkeypatch.setattr(ql, "TILE", tile)
            _, ctx = ql.forward(x, w, cfg)
            for bits, mask in ((ctx.bits_x, dense.mask_x), (ctx.bits_w, dense.mask_w)):
                assert bits.dtype == np.uint8 and bits.shape == (len(mask), 2)
                assert bits.nbytes == len(mask) * 2
                assert bits.tobytes() == np.packbits(mask, axis=-1).tobytes()
            for view, mask in ((ctx.mask_x, dense.mask_x), (ctx.mask_w, dense.mask_w)):
                assert view.dtype == bool and not view.flags.writeable
                assert view.tobytes() == mask.tobytes()

    def test_an_unprojected_operand_saves_no_mask(self):
        rng = np.random.default_rng(45)
        x, w = rng.standard_normal((11, 12)), rng.standard_normal((7, 12))
        for cfg, w_masked in ((QuantConfig(format="none"), False),
                              (QuantConfig(format="int4", weight_only=True), True)):
            _, ctx = ql.forward(x, w, cfg)
            assert ctx.bits_x is None
            assert ctx.mask_x.shape == x.shape and ctx.mask_x.all()
            assert (ctx.bits_w is not None) == w_masked
            if w_masked:
                assert ctx.bits_w.nbytes == 7 * 2
            else:
                assert ctx.mask_w.shape == w.shape and ctx.mask_w.all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hadamard", [False, True])
@pytest.mark.parametrize("fmt", ["int1", "int4", "int8", "fp4", "int4-sparse-2of4"])
def test_backward_equals_the_dense_mask_reference(fmt, hadamard, dtype):
    """At k = 12, not a multiple of 8, the unpacked bits give the gradients of
    the dense bool masks byte for byte."""
    rng = np.random.default_rng(46)
    x = rng.standard_t(1.5, (16, 12)).astype(dtype)  # heavy tails leave masked entries
    w = rng.standard_t(1.5, (10, 12)).astype(dtype)
    g = rng.standard_normal((16, 10)).astype(dtype)
    cfg = QuantConfig(format=fmt, hadamard=hadamard)
    _, ctx = ql.forward(x, w, cfg)
    _, dense = frozen_forward(x, w, cfg)
    # a 12-wide row holds no |x| / RMS beyond sqrt(12) = 3.46, inside int8's alpha* = 3.92
    if not hadamard and fmt != "int8":
        assert not (dense.mask_x.all() and dense.mask_w.all()), "fixture should mask entries"
    want_x, want_w = g @ dense.w_hat_h, g.T @ dense.x_hat_h
    want_x *= dense.mask_x
    want_w *= dense.mask_w
    got_x, got_w = ql.backward(ctx, g)
    finish = iht if hadamard else np.asarray
    assert got_x.tobytes() == finish(want_x).tobytes()
    assert got_w.tobytes() == finish(want_w).tobytes()


class TestBackward:
    def test_all_true_masks_equal_ste(self, operands):
        x, w = operands
        cfg = QuantConfig(format="int8", hadamard=False)
        y, ctx = ql.forward(x, w, cfg)
        gy = np.random.default_rng(34).standard_normal(y.shape)
        # every bit set: the mask multiply runs and trusts every coordinate
        ctx.bits_x, ctx.bits_w = np.full_like(ctx.bits_x, 255), np.full_like(ctx.bits_w, 255)
        gx_t, gw_t = ql.backward(ctx, gy)
        gx_s, gw_s = ql.ste_backward(ctx, gy)
        assert np.array_equal(gx_t, gx_s)
        assert np.array_equal(gw_t, gw_s)

    def test_all_false_masks_zero_gradients(self, operands):
        x, w = operands
        cfg = QuantConfig(format="int4", hadamard=False)
        y, ctx = ql.forward(x, w, cfg)
        ctx.bits_x, ctx.bits_w = np.zeros_like(ctx.bits_x), np.zeros_like(ctx.bits_w)
        gx, gw = ql.backward(ctx, np.ones(y.shape))
        assert np.all(gx == 0)
        assert np.all(gw == 0)

    def test_mask_gradient_consistency_no_ht(self, operands):
        # untrusted coordinates get exactly zero, trusted exactly the STE value
        x, w = operands
        cfg = QuantConfig(format="int2", hadamard=False)
        y, ctx = ql.forward(x * 3, w * 3, cfg)
        gy = np.random.default_rng(35).standard_normal(y.shape)
        gx, gw = ql.backward(ctx, gy)
        gx_ste, gw_ste = ql.ste_backward(ctx, gy)
        assert np.all(gx[~ctx.mask_x] == 0)
        assert np.all(gw[~ctx.mask_w] == 0)
        assert np.array_equal(gx[ctx.mask_x], gx_ste[ctx.mask_x])
        assert np.array_equal(gw[ctx.mask_w], gw_ste[ctx.mask_w])

    def test_ste_differs_exactly_on_masked_coordinates(self, operands):
        x, w = operands
        cfg = QuantConfig(format="int2", hadamard=False)
        y, ctx = ql.forward(x * 3, w * 3, cfg)
        assert not np.all(ctx.mask_w), "fixture should clip some outliers"
        gy = np.random.default_rng(36).standard_normal(y.shape)
        gw_trust = ql.backward(ctx, gy)[1]
        gw_ste = ql.ste_backward(ctx, gy)[1]
        differs = gw_trust != gw_ste
        assert np.array_equal(np.flatnonzero(differs), np.flatnonzero(~ctx.mask_w & (gw_ste != 0)))

    def test_finite_difference_through_ht_only_path(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((3, 8))
        w = rng.standard_normal((4, 8))
        probe = rng.standard_normal((3, 4))
        cfg = QuantConfig(format="none", hadamard=True)

        def scalar(xv, wv):
            y, _ = ql.forward(xv, wv, cfg)
            return float((y * probe).sum())

        y, ctx = ql.forward(x, w, cfg)
        gx, gw = ql.backward(ctx, probe)
        h = 1e-5
        for arr, grad in ((x, gx), (w, gw)):
            fd = np.zeros_like(arr)
            flat, fdf = arr.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = scalar(x, w)
                flat[i] = orig - h
                down = scalar(x, w)
                flat[i] = orig
                fdf[i] = (up - down) / (2 * h)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(grad - fd).max() / denom < 1e-4

    def test_masked_grad_matches_dense_ht_oracle_k16(self):
        rng = np.random.default_rng(38)
        x = rng.standard_normal((6, 16))
        w = rng.standard_normal((5, 16))
        cfg = QuantConfig(format="int4", hadamard=True)
        y, ctx = ql.forward(x, w, cfg)
        gy = rng.standard_normal(y.shape)
        gx, _ = ql.backward(ctx, gy)
        h16 = dense_sylvester(16)
        want = (ctx.mask_x * (gy @ ctx.w_hat_h)) @ h16.T
        assert np.abs(gx - want).max() < 1e-10

    def test_linear_in_upstream_gradient(self, operands):
        x, w = operands
        cfg = QuantConfig(format="int4")
        y, ctx = ql.forward(x, w, cfg)
        rng = np.random.default_rng(39)
        g1, g2 = rng.standard_normal(y.shape), rng.standard_normal(y.shape)
        a = 2.5
        gx_lhs, gw_lhs = ql.backward(ctx, a * g1 + g2)
        gx1, gw1 = ql.backward(ctx, g1)
        gx2, gw2 = ql.backward(ctx, g2)
        assert np.allclose(gx_lhs, a * gx1 + gx2, rtol=1e-10, atol=1e-12)
        assert np.allclose(gw_lhs, a * gw1 + gw2, rtol=1e-10, atol=1e-12)

    def test_gradient_flows_to_all_weights_with_ht(self):
        # with HT on and at least one trusted coordinate per block, the
        # standard-domain weight gradient has no identically-zero rows
        rng = np.random.default_rng(40)
        x = rng.standard_normal((16, 32))
        w = rng.standard_normal((8, 32))
        cfg = QuantConfig(format="int2", hadamard=True)
        y, ctx = ql.forward(x, w, cfg)
        assert np.all(ctx.mask_w.sum(axis=1) > 0)
        _, gw = ql.backward(ctx, rng.standard_normal(y.shape))
        assert np.all(np.abs(gw).sum(axis=1) > 0)

    def test_upstream_shape_check(self, operands):
        x, w = operands
        _, ctx = ql.forward(x, w, QuantConfig(format="int4"))
        with pytest.raises(ValueError, match="upstream"):
            ql.backward(ctx, np.ones((3, 3)))

    def test_missing_context_rejected(self):
        with pytest.raises(ValueError, match="context"):
            ql.backward(None, np.ones((2, 2)))


class TestTapeIntegration:
    def test_estimator_selection(self, operands):
        x, w = operands
        for estimator in ("trust", "ste"):
            cfg = QuantConfig(format="int2", hadamard=False, estimator=estimator)
            t = ad.Tape()
            nx, nw = t.leaf(x * 3), t.leaf(w * 3)
            [(node, ctx)] = ql.qlinear(nx, [nw], cfg, [ql.weight(nw.value, cfg)])
            t.backward(ad.sum_all(node))
            ref = (ql.backward if estimator == "trust" else ql.ste_backward)(
                ctx, np.ones(node.value.shape)
            )
            assert np.array_equal(nx.grad, ref[0])
            assert np.array_equal(nw.grad, ref[1])

    @pytest.mark.parametrize("estimator", ["trust", "ste"])
    def test_leading_axes_match_flattened_call(self, estimator):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((3, 5, 16)).astype(np.float32)
        w = rng.standard_normal((10, 16)).astype(np.float32)
        upstream = rng.standard_normal((3, 5, 10)).astype(np.float32)
        cfg = QuantConfig(format="int4", estimator=estimator)

        def run(xv, gv):
            t = ad.Tape()
            nx, nw = t.leaf(xv), t.leaf(w)
            [(node, _)] = ql.qlinear(nx, [nw], cfg, [ql.weight(w, cfg)])
            t.backward(ad.sum_all(ad.mul(node, gv)))
            return node.value, nx.grad, nw.grad

        y3, gx3, gw3 = run(x, upstream)
        y2, gx2, gw2 = run(x.reshape(15, 16), upstream.reshape(15, 10))
        assert y3.shape == (3, 5, 10) and gx3.shape == x.shape
        assert y3.tobytes() == y2.tobytes()
        assert gx3.tobytes() == gx2.tobytes()
        assert gw3.tobytes() == gw2.tobytes()


def _draw_case(draw, dtype):
    """Leading axes, inner width k (a multiple of 4, for the 2:4 format) and a
    seeded generator; values scaled so the grids leave masked entries."""
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    k = 4 * draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return lead, k, lambda shape: (rng.standard_normal(shape) * 3).astype(dtype)


@st.composite
def group_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lead, k, normal = _draw_case(draw, dtype)
    cfg = QuantConfig(format=draw(st.sampled_from(FORMATS)), hadamard=draw(st.booleans()),
                      weight_only=draw(st.booleans()),
                      estimator=draw(st.sampled_from(["trust", "ste"])))
    ns = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    x = normal(lead + (k,))
    return cfg, x, [normal((n, k)) for n in ns], [normal(lead + (n,)) for n in ns]


def _run_tape(cfg, x, ws, upstreams):
    """One tape over qlinear(x, ws) with loss sum_i <y_i, upstream_i>; returns
    the (node, context) pairs, x's gradient and the weights' gradients."""
    t = ad.Tape()
    nx, nws = t.leaf(x), [t.leaf(w) for w in ws]
    outs = ql.qlinear(nx, nws, cfg, [ql.weight(w, cfg) for w in ws])
    terms = [ad.sum_all(ad.mul(node, u)) for (node, _), u in zip(outs, upstreams)]
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    t.backward(loss)
    return outs, nx.grad, [nw.grad for nw in nws]


def _same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@given(group_cases())
@settings(max_examples=60, deadline=None)
def test_group_equals_members_run_alone(case):
    cfg, x, ws, upstreams = case
    outs, gx, gws = _run_tape(cfg, x, ws, upstreams)
    alone = [_run_tape(cfg, x, [w], [u]) for w, u in zip(ws, upstreams)]
    for i, ((node, ctx), ([(node1, ctx1)], _, [gw1])) in enumerate(zip(outs, alone)):
        _same_bytes(node.value, node1.value, f"y{i}")
        for f in dataclasses.fields(ctx):
            got, want = getattr(ctx, f.name), getattr(ctx1, f.name)
            if f.name == "hadamard" or want is None:
                assert got is want
            else:
                _same_bytes(got, want, f"{f.name}{i}")
        _same_bytes(gws[i], gw1, f"grad_w{i}")
    # the tape runs a group's nodes last to first, so x's gradient sums that way
    want_gx = alone[-1][1]
    for _, gx1, _ in reversed(alone[:-1]):
        want_gx = want_gx + gx1
    _same_bytes(gx, want_gx, "grad_x")


@st.composite
def backward_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    _, k, normal = _draw_case(draw, dtype)
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cfg = QuantConfig(format=draw(st.sampled_from(FORMATS)), hadamard=draw(st.booleans()))
    return cfg, normal((m, k)), normal((n, k)), normal((m, n))


# the oracle's float64 result against the layer's own dtype, relative to its scale
_ORACLE_TOL = {np.float32: 1e-5, np.float64: 1e-12}


@given(backward_cases())
@settings(max_examples=60, deadline=None)
def test_backward_matches_dense_masked_oracle(case):
    cfg, x, w, g = case
    _, ctx = ql.forward(x, w, cfg)
    k = x.shape[1]
    # H as a matrix, ht(v) = H @ v: the transform of the identity's rows is H^T
    h = ht(np.eye(k)).T if cfg.hadamard else np.eye(k)
    g64, x_hat, w_hat = (a.astype(np.float64) for a in (g, ctx.x_hat_h, ctx.w_hat_h))
    for estimator, mask_x, mask_w in [(ql.backward, ctx.mask_x, ctx.mask_w),
                                      (ql.ste_backward, True, True)]:
        # rows: dL/dx_i = H^T (M_x,i * (g @ w_hat)_i), and likewise for w
        want_x = (mask_x * (g64 @ w_hat)) @ h
        want_w = (mask_w * (g64.T @ x_hat)) @ h
        gx, gw = estimator(ctx, g)
        tol = _ORACLE_TOL[x.dtype.type]
        for got, want in ((gx, want_x), (gw, want_w)):
            assert got.dtype == x.dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=tol,
                                       atol=tol * max(1.0, np.abs(want).max()))
    # before the inverse transform the masked coordinates are exactly zero
    gx_h, gw_h = ql.backward(dataclasses.replace(ctx, hadamard=False), g)
    assert not gx_h[~ctx.mask_x].any() and not gw_h[~ctx.mask_w].any()
