"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The training ladder (criteria 5, 6, 9) shares one session fixture that
trains six tiny models with identical configs, differing only in numeric
format. Its token budget defaults to 300 steps x 1024 tokens per run and
scales via QUEST_LADDER_STEPS for full-budget reproduction runs on faster
hardware.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from helpers import write_corpus
from trustquant import qlinear as ql
from trustquant.diagnostics import alignment_sweep, mask_fraction, summarize
from trustquant.hadamard import HadamardPlan, ht, iht
from trustquant.model import ModelConfig, build, forward_loss, load_checkpoint
from trustquant.packgemm import bench, gemm_dequant, pack, quantize_pack, unpack
from trustquant.quantizer import (
    AlphaTable,
    QuantConfig,
    gaussian_grid_mse,
    project,
    quantize_uniform,
    sparsify_2of4,
    trust_mask,
)
from trustquant.scaling import (
    RunRecord,
    ScalingLawParams,
    efficiency,
    fit,
    predict_loss,
)
from trustquant.tensor import Rng
from trustquant.trainer import BatchStream, TrainConfig, ingest, train

pytestmark = pytest.mark.acceptance

TABLE_EFF = {1: 0.02, 2: 0.16, 3: 0.43, 4: 0.70, 8: 1.02, 16: 1.00}

LADDER_STEPS = int(os.environ.get("QUEST_LADDER_STEPS", "300"))
LADDER_BATCH_TOKENS = int(os.environ.get("QUEST_LADDER_BATCH_TOKENS", "1024"))
LADDER_PEAK_LR = float(os.environ.get("QUEST_LADDER_LR", "3e-3"))

LADDER_FORMATS = {
    "fp": QuantConfig(format="none", hadamard=False),
    "w8a8": QuantConfig(format="int8"),
    "w4a4": QuantConfig(format="int4"),
    "w1a1": QuantConfig(format="int1", outer_trust_scale=1.30),
    "fp4": QuantConfig(format="fp4"),
    "sparse": QuantConfig(format="int4-sparse-2of4"),
}


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def phi_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def dense_sylvester(n: int) -> np.ndarray:
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.vstack([np.hstack([h, h]), np.hstack([h, -h])])
    return h / np.sqrt(n)


@pytest.fixture(scope="session")
def ladder(tmp_path_factory):
    """Six training runs on one shared corpus (identical configs per rung)."""
    root = tmp_path_factory.mktemp("ladder")
    corpus = write_corpus(root / "corpus.txt", 600_000, seed=5)
    results = {}
    t0 = time.time()
    for tag, quant in LADDER_FORMATS.items():
        cfg = ModelConfig(num_blocks=2, hidden_size=128, num_heads=4,
                          max_seq_len=128, quant=quant)
        model = build(cfg, Rng(7))
        tcfg = TrainConfig(
            peak_lr=LADDER_PEAK_LR, total_steps=LADDER_STEPS,
            batch_tokens=LADDER_BATCH_TOKENS, data_path=str(corpus), seed=13,
        )
        records = train(model, tcfg, root / tag)
        losses = np.array([r["loss"] for r in records])
        results[tag] = {
            "final": float(losses[-20:].mean()),
            "losses": losses,
            "out": root / tag,
            "params": cfg.non_embedding_params(),
        }
    results["wall"] = time.time() - t0
    results["corpus"] = corpus
    return results


class TestCriterion1AlphaStar:
    def test_alpha_star_correctness(self):
        t0 = time.time()
        table = AlphaTable()
        analytic = math.sqrt(2.0 / math.pi)
        a1 = table.alpha(1)
        local_opt = {}
        for key in [2, 3, 4, 5, 6, 7, 8, "fp4"]:
            a = table.alpha(key)
            center = gaussian_grid_mse(a, key)
            local_opt[key] = (center <= gaussian_grid_mse(a * 1.01, key)
                              and center <= gaussian_grid_mse(a * 0.99, key))
        fp4_worse = table.mse("fp4") > table.mse(4)
        wall = time.time() - t0
        ok = (abs(a1 - analytic) < 1e-4 and all(local_opt.values())
              and fp4_worse and wall < 120)
        report(
            "criterion 1 (alpha* correctness)", ok,
            f"alpha*(1)={a1:.6f} vs sqrt(2/pi)={analytic:.6f}; "
            f"local optimality at +-1%: {sum(local_opt.values())}/8; "
            f"MSE fp4 {table.mse('fp4'):.4e} > int4 {table.mse(4):.4e}: {fp4_worse}; "
            f"wall {wall:.1f}s < 120s",
        )


class TestCriterion2Transforms:
    def test_transform_suite(self):
        sizes = [1 << k for k in range(1, 13)]  # 2 .. 4096
        worst_rt, worst_norm = 0.0, 0.0
        for n in sizes:
            plan = HadamardPlan(n)
            x = Rng(n).normal((n,), dtype=np.float32)
            y = ht(x, plan)
            back = iht(y, plan)
            worst_rt = max(worst_rt, float(np.abs(back - x).max()))
            worst_norm = max(
                worst_norm,
                abs(float(np.linalg.norm(y)) / float(np.linalg.norm(x)) - 1.0),
            )
        x16 = Rng(99).normal((8, 16), dtype=np.float64)
        dense_err = float(np.abs(ht(x16, HadamardPlan(16), axis=1)
                                 - x16 @ dense_sylvester(16).T).max())
        ok = worst_rt < 1e-5 and worst_norm < 1e-5 and dense_err < 1e-12
        report(
            "criterion 2 (transform suite)", ok,
            f"round-trip max {worst_rt:.2e} < 1e-5 over n in 2..4096; "
            f"norm drift max {worst_norm:.2e} < 1e-5; "
            f"dense oracle (n=16, f64) {dense_err:.2e} < 1e-12",
        )


class TestCriterion3Estimators:
    def test_estimator_semantics(self, alpha_table):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((12, 16)) * 3
        w = rng.standard_normal((10, 16)) * 3
        gy = rng.standard_normal((12, 10))

        # all-true masks reproduce the STE gradients exactly
        cfg = QuantConfig(format="int8", hadamard=False)
        _, ctx = ql.forward(x, w, cfg, alpha_table)
        ctx.mask_x = np.ones_like(ctx.mask_x)
        ctx.mask_w = np.ones_like(ctx.mask_w)
        ste_equal = all(
            np.array_equal(a, b)
            for a, b in zip(ql.backward(ctx, gy), ql.ste_backward(ctx, gy))
        )

        # masked coordinates receive exactly zero in no-HT mode
        cfg2 = QuantConfig(format="int2", hadamard=False)
        _, ctx2 = ql.forward(x, w, cfg2, alpha_table)
        gx, gw = ql.backward(ctx2, gy)
        some_masked = not (ctx2.mask_x.all() and ctx2.mask_w.all())
        zeros_exact = (np.all(gx[~ctx2.mask_x] == 0.0)
                       and np.all(gw[~ctx2.mask_w] == 0.0))

        # format=none backward passes 64-bit finite differences through HT
        cfg3 = QuantConfig(format="none", hadamard=True)
        probe = rng.standard_normal((6, 4))
        xs = rng.standard_normal((6, 8))
        ws = rng.standard_normal((4, 8))
        _, ctx3 = ql.forward(xs, ws, cfg3, alpha_table)
        gxa, gwa = ql.backward(ctx3, probe)
        h = 1e-5
        max_rel = 0.0
        for arr, grad in ((xs, gxa), (ws, gwa)):
            fd = np.zeros_like(arr)
            flat, fdf = arr.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float((ql.forward(xs, ws, cfg3, alpha_table)[0] * probe).sum())
                flat[i] = orig - h
                down = float((ql.forward(xs, ws, cfg3, alpha_table)[0] * probe).sum())
                flat[i] = orig
                fdf[i] = (up - down) / (2 * h)
            max_rel = max(max_rel, float(np.abs(grad - fd).max() / np.abs(fd).max()))

        ok = ste_equal and some_masked and zeros_exact and max_rel < 1e-4
        report(
            "criterion 3 (estimator semantics)", ok,
            f"all-true masks == STE exactly: {ste_equal}; "
            f"masked coords exactly zero (no-HT): {zeros_exact}; "
            f"finite-difference rel err {max_rel:.2e} < 1e-4",
        )


class TestCriterion4TrustMasks:
    def test_trust_mask_statistics(self, alpha_table):
        t0 = time.time()
        n_total = 1 << 20
        gauss_ok = {}
        gauss_detail = []
        for b in (4, 8):
            # one whole-tensor group so the sample RMS sits within 0.1% of 1
            # and the closed-form normal-tail oracle applies directly
            cfg = QuantConfig(format=f"int{b}", hadamard=False)
            x = Rng(1000 + b).normal((1, n_total), dtype=np.float64)
            res = project(x, cfg, alpha_table, axis=1)
            frac = mask_fraction(res.trust_mask)
            alpha = alpha_table.alpha(b)
            expected = 2.0 * (1.0 - phi_cdf(alpha + alpha / ((1 << b) - 1)))
            gauss_ok[b] = abs(frac - expected) <= 0.2 * expected
            gauss_detail.append(f"b={b}: {frac:.5f} vs {expected:.5f}")
        rows, cols = n_total // 1024, 1024

        # heavy-tailed inputs: the transform at least halves the masked set
        rng = Rng(2024)
        z = rng.normal((n_total,), dtype=np.float64)
        chi2 = np.sum(np.square(rng.normal((3, n_total), dtype=np.float64)), axis=0)
        t3 = (z / np.sqrt(chi2 / 3.0)).reshape(rows, cols)
        cfg8 = QuantConfig(format="int8", hadamard=False)
        plain = mask_fraction(project(t3, cfg8, alpha_table, axis=1).trust_mask)
        mixed = mask_fraction(
            project(ht(t3, HadamardPlan(cols), axis=1), cfg8, alpha_table, axis=1).trust_mask
        )
        wall = time.time() - t0
        ok = all(gauss_ok.values()) and mixed <= 0.5 * plain and wall < 60
        report(
            "criterion 4 (trust-mask statistics)", ok,
            f"{'; '.join(gauss_detail)} (within 20%); "
            f"student-t(3) masked fraction {plain:.5f} -> {mixed:.5f} with HT "
            f"(>= 2x reduction); wall {wall:.1f}s < 60s",
        )


class TestCriterion5Ladder:
    def test_training_stability_ladder(self, ladder):
        l0 = ladder["fp"]["final"]
        l8 = ladder["w8a8"]["final"]
        l4 = ladder["w4a4"]["final"]
        l1 = ladder["w1a1"]["final"]
        w4 = ladder["w4a4"]["losses"]
        seg_len = max(10, LADDER_STEPS // 5)
        starts = range(LADDER_STEPS // 10, LADDER_STEPS - seg_len + 1, seg_len)
        segments = [w4[s: s + seg_len].mean() for s in starts]
        monotone = all(b < a for a, b in zip(segments, segments[1:]))
        no_nan = bool(np.isfinite(w4).all() and np.isfinite(ladder["w1a1"]["losses"]).all())
        wall = ladder["wall"]
        ok = (l8 <= 1.02 * l0 and l4 <= 1.10 * l0 and monotone and no_nan
              and math.isfinite(l1) and wall < 1800)
        report(
            "criterion 5 (training stability ladder)", ok,
            f"~{ladder['fp']['params'] / 1e6:.2f}M non-embedding params; "
            f"L0={l0:.4f}; w8a8 {l8 / l0:.4f} <= 1.02; w4a4 {l4 / l0:.4f} <= 1.10; "
            f"w4a4 smoothed monotone decrease: {monotone}; no NaN: {no_nan}; "
            f"w1a1 completed at {l1:.4f}; ladder wall {wall:.0f}s < 1800s",
        )


class TestCriterion6Alignment:
    def test_gradient_alignment(self, ladder):
        model = load_checkpoint(ladder["w8a8"]["out"] / "model.ckpt")
        windows = ingest(ladder["corpus"], model.cfg.max_seq_len)
        stream = BatchStream(windows, 4, seed=29)
        batches = [stream.next_batch() for _ in range(32)]
        records = alignment_sweep(model, batches, tags=("quest", "ste"))
        med_quest, iqr_quest = summarize([r.xi for r in records if r.tag == "quest"])
        med_ste, iqr_ste = summarize([r.xi for r in records if r.tag == "ste"])
        ok = med_quest >= med_ste and iqr_quest < iqr_ste
        report(
            "criterion 6 (gradient alignment)", ok,
            f"median xi quest {med_quest:.4f} >= ste {med_ste:.4f}; "
            f"iqr quest {iqr_quest:.4f} < ste {iqr_ste:.4f} over 32 batches",
        )


class TestCriterion7ScalingFit:
    def test_scaling_law_fitter(self):
        t0 = time.time()
        true = ScalingLawParams(
            a=math.log(406.4), b=math.log(410.7), e=math.log(1.69),
            alpha=0.34, beta=0.28, eff=TABLE_EFF,
        )
        rng = Rng(7)
        records = []
        for n in (30e6, 50e6, 100e6, 200e6, 430e6, 800e6):
            for p in (1, 2, 3, 4, 16):
                for r in (25, 50, 100):
                    clean = predict_loss(true, n, r * n, p)
                    noisy = clean * math.exp(
                        0.01 * float(rng.normal((), dtype=np.float64))
                    )
                    records.append(RunRecord(n, r * n, p, noisy))
        fitted = fit(records)
        eff_errs = {
            p: abs(fitted.eff[p] - TABLE_EFF[p]) / TABLE_EFF[p] for p in (1, 2, 3, 4)
        }
        exp_ok = abs(fitted.alpha - 0.34) < 0.1 and abs(fitted.beta - 0.28) < 0.1
        recovered_rank = (
            efficiency(fitted, 4) > efficiency(fitted, 16)
            and efficiency(fitted, 4) > efficiency(fitted, 1)
        )
        # Fig.-4-style ordering on the published eff values themselves
        table = ScalingLawParams(a=0, b=0, e=0, alpha=0.3, beta=0.3, eff=TABLE_EFF)
        effs = {p: efficiency(table, p) for p in TABLE_EFF}
        table_rank = (
            max(effs, key=effs.get) == 4
            and effs[4] == pytest.approx(0.175)
            and effs[4] > effs[8] > effs[16]
        )
        wall = time.time() - t0
        ok = (max(eff_errs.values()) < 0.10 and exp_ok and recovered_rank
              and table_rank and wall < 300)
        errs_text = ", ".join(f"{p}:{e:.3f}" for p, e in eff_errs.items())
        report(
            "criterion 7 (scaling-law fitter)", ok,
            f"eff rel errs [{errs_text}] "
            f"all < 0.10; |dalpha|={abs(fitted.alpha - 0.34):.3f}, "
            f"|dbeta|={abs(fitted.beta - 0.28):.3f} < 0.1; "
            f"INT4 maximal with eff(4)/4=0.175: {table_rank}; wall {wall:.0f}s < 300s",
        )


class TestCriterion8IntegerPipeline:
    def test_integer_pipeline(self, alpha_table):
        rng = np.random.default_rng(88)
        iso_ok = True
        for _ in range(1000):
            r = int(rng.integers(1, 17))
            c = int(rng.integers(1, 17)) * 2
            codes = rng.integers(0, 16, (r, c))
            if not np.array_equal(unpack(pack(codes)), codes):
                iso_ok = False
                break

        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(2, 33))
            k = int(rng.integers(1, 17)) * 4
            n = int(rng.integers(2, 33))
            x = rng.standard_normal((m, k))
            w = rng.standard_normal((n, k))
            cfg = QuantConfig(format="int4", hadamard=False)
            px = project(x, cfg, alpha_table, axis=1, with_codes=True)
            pw = project(w, cfg, alpha_table, axis=1, with_codes=True)
            float_path = px.values @ pw.values.T
            int_path = gemm_dequant(
                quantize_pack(x, alpha_table), quantize_pack(w, alpha_table)
            )
            denom = max(float(np.abs(float_path).max()), 1e-12)
            worst = max(worst, float(np.abs(int_path - float_path).max()) / denom)

        rows = bench([("probe", 8, 32, 8)], reps=2)
        csv_ok = all(
            col in rows[0] and rows[0][col] >= 0
            for col in ("dense_ms", "quant_pack_ms", "ht_ms", "int_gemm_ms", "speedup")
        )
        ok = iso_ok and worst < 1e-6 and csv_ok
        report(
            "criterion 8 (integer pipeline)", ok,
            f"pack/unpack isomorphism over 1000 matrices: {iso_ok}; "
            f"gemm vs float path worst rel {worst:.2e} < 1e-6 over 100 draws; "
            f"bench emits separate HT column: {csv_ok}",
        )


class TestCriterion9SparseFormat:
    def test_two_of_four_plus_int4(self, ladder, alpha_table):
        rng = np.random.default_rng(90)
        invariant_ok = True
        for _ in range(50):
            x = rng.standard_normal((8, 64))
            res = project(x, QuantConfig(format="int4-sparse-2of4"), alpha_table, axis=1)
            nz = (res.values.reshape(8, 16, 4) != 0).sum(axis=-1)
            kept = res.sparsity_mask.reshape(8, 16, 4).sum(axis=-1)
            if not (np.all(nz == 2) and np.all(kept == 2)):
                invariant_ok = False
                break

        ls = ladder["sparse"]["final"]
        l4 = ladder["w4a4"]["final"]
        lf = ladder["fp4"]["final"]
        stable = bool(np.isfinite(ladder["sparse"]["losses"]).all())
        between = min(l4, lf) <= ls <= max(l4, lf)
        within5 = abs(ls / l4 - 1) < 0.05 and abs(ls / lf - 1) < 0.05
        ok = invariant_ok and stable and (between or within5)
        report(
            "criterion 9 (2:4 + INT4)", ok,
            f"exactly-2-nonzeros invariant: {invariant_ok}; stable run: {stable}; "
            f"sparse {ls:.4f} vs int4 {l4:.4f} / fp4 {lf:.4f} "
            f"(between: {between}, within 5% of both: {within5})",
        )
