import csv
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustquant import scaling
from trustquant.scaling import (
    DEFAULT_GRID,
    RunRecord,
    ScalingLawParams,
    _bfgs_batch,
    efficiency,
    fit,
    fit_objective,
    huber,
    isomem_threshold,
    plan_runs,
    predict_loss,
    read_records_csv,
)
from trustquant.tensor import Rng

TABLE_EFF = {1: 0.02, 2: 0.16, 3: 0.43, 4: 0.70, 8: 1.02, 16: 1.00}

# small start grid for structural tests; acceptance runs the full default
SMALL_GRID = {
    "alpha": [0.0, 0.5],
    "beta": [0.0, 0.5],
    "e": [0.0, 0.5],
    "a": [5.0, 10.0],
    "b": [5.0, 10.0],
}


def chinchilla_like(eff=None):
    return ScalingLawParams(
        a=math.log(406.4), b=math.log(410.7), e=math.log(1.69),
        alpha=0.34, beta=0.28, eff=eff or TABLE_EFF,
    )


def synth_records(params, seed=7, noise=0.0, sizes=(30e6, 100e6, 300e6),
                  precisions=(4, 16), ratios=(25, 100)):
    rng = Rng(seed)
    records = []
    for n in sizes:
        for p in precisions:
            for r in ratios:
                loss = predict_loss(params, n, r * n, p)
                if noise:
                    loss *= math.exp(noise * float(rng.normal((), dtype=np.float64)))
                records.append(RunRecord(n, r * n, p, loss))
    return records


def rosenbrock(x):
    x = np.atleast_2d(x)
    lo, hi = x[:, :-1], x[:, 1:]
    grad = np.zeros_like(x)
    grad[:, :-1] = -2 * (1 - lo) - 400 * lo * (hi - lo * lo)
    grad[:, 1:] += 200 * (hi - lo * lo)
    return ((1 - lo) ** 2 + 100 * (hi - lo * lo) ** 2).sum(axis=1), grad


def scaled_quadratic(x):
    x = np.atleast_2d(x)
    w = np.arange(1, x.shape[1] + 1)
    return ((x - 3.0) ** 2 * w).sum(axis=1), 2.0 * (x - 3.0) * w


class CountingObjective:
    def __init__(self, fn):
        self.fn, self.rows = fn, []

    def __call__(self, x):
        self.rows.append(len(x))
        return self.fn(x)


def oracle_nelder_mead_batch(objective, starts, *, xatol=1e-8, max_iter=5000):
    """Frozen copy of the batched Nelder-Mead loop the fit ran before BFGS: it
    sorts every simplex each iteration and makes a separate objective call for
    expansion, outside and inside contraction. objective(X) maps (m, dim) to
    (m,) values. `_bfgs_batch` must end no higher than it."""
    starts = np.asarray(starts, dtype=np.float64)
    n_start, dim = starts.shape
    n_vert = dim + 1

    pts = np.repeat(starts[:, None, :], n_vert, axis=1)
    for j in range(dim):
        col = pts[:, j + 1, j]
        pts[:, j + 1, j] = np.where(col != 0.0, col * 1.05, 0.25)
    fvals = objective(pts.reshape(-1, dim)).reshape(n_start, n_vert)

    active = np.ones(n_start, dtype=bool)
    for it in range(max_iter + 1):
        order = np.argsort(fvals, axis=1, kind="stable")
        fvals = np.take_along_axis(fvals, order, axis=1)
        pts = np.take_along_axis(pts, order[:, :, None], axis=1)

        diam = np.abs(pts - pts[:, :1, :]).max(axis=(1, 2))
        active &= diam >= xatol
        if it == max_iter or not active.any():
            break

        idx = np.flatnonzero(active)
        p = pts[idx]
        f = fvals[idx]
        centroid = (p[:, :-1, :].sum(axis=1)) / dim
        worst = p[:, -1, :]
        direction = centroid - worst

        xr = centroid + direction
        fr = objective(xr)

        new_pt = xr.copy()
        new_f = fr.copy()

        expand = fr < f[:, 0]
        if expand.any():
            xe = centroid[expand] + 2.0 * direction[expand]
            fe = objective(xe)
            better = fe < fr[expand]
            rows = np.flatnonzero(expand)[better]
            new_pt[rows] = xe[better]
            new_f[rows] = fe[better]

        shrink = np.zeros(len(idx), dtype=bool)
        contract = fr >= f[:, -2]
        if contract.any():
            outside = contract & (fr < f[:, -1])
            if outside.any():
                xc = centroid[outside] + 0.5 * direction[outside]
                fc = objective(xc)
                ok = fc <= fr[outside]
                rows = np.flatnonzero(outside)
                new_pt[rows[ok]] = xc[ok]
                new_f[rows[ok]] = fc[ok]
                shrink[rows[~ok]] = True
            inside = contract & (fr >= f[:, -1])
            if inside.any():
                xcc = centroid[inside] - 0.5 * direction[inside]
                fcc = objective(xcc)
                ok = fcc < f[inside, -1]
                rows = np.flatnonzero(inside)
                new_pt[rows[ok]] = xcc[ok]
                new_f[rows[ok]] = fcc[ok]
                shrink[rows[~ok]] = True

        accept = ~shrink
        rows = idx[accept]
        pts[rows, -1, :] = new_pt[accept]
        fvals[rows, -1] = new_f[accept]

        if shrink.any():
            rows = idx[shrink]
            best = pts[rows, :1, :]
            pts[rows, 1:, :] = best + 0.5 * (pts[rows, 1:, :] - best)
            flat = pts[rows, 1:, :].reshape(-1, dim)
            fvals[rows, 1:] = objective(flat).reshape(len(rows), dim)

    return pts[:, 0, :], fvals[:, 0]


def criterion7_records():
    """Criterion 7's record set: 6 sizes x 5 precisions x 3 ratios, 1% noise."""
    return synth_records(chinchilla_like(), noise=0.01,
                         sizes=(30e6, 50e6, 100e6, 200e6, 430e6, 800e6),
                         precisions=(1, 2, 3, 4, 16), ratios=(25, 50, 100))


# the benchmark's 72 starts: odd-indexed values of each axis but b, even ones of b
BENCH_GRID = {k: v[::2] if k == "b" else v[1::2] for k, v in DEFAULT_GRID.items()}


class TestPredict:
    def test_unit_eff_reduces_to_base_law(self):
        params = chinchilla_like()
        n, d = 1e8, 1e10
        want = 406.4 / n ** 0.34 + 410.7 / d ** 0.28 + 1.69
        assert predict_loss(params, n, d, 16) == pytest.approx(want, rel=1e-12)

    def test_data_term_vanishes_in_overtraining_limit(self):
        params = ScalingLawParams(
            a=math.log(406.4), b=math.log(410.7), e=math.log(1.69),
            alpha=0.34, beta=0.80, eff=TABLE_EFF,
        )
        n = 1e8
        limit = 406.4 / (n * 0.70) ** 0.34 + 1.69
        assert predict_loss(params, n, 1e18, 4) == pytest.approx(limit, abs=1e-9)

    def test_strictly_decreasing_in_n_d_eff(self):
        params = chinchilla_like()
        assert predict_loss(params, 2e8, 1e10, 16) < predict_loss(params, 1e8, 1e10, 16)
        assert predict_loss(params, 1e8, 2e10, 16) < predict_loss(params, 1e8, 1e10, 16)
        assert predict_loss(params, 1e8, 1e10, 8) < predict_loss(params, 1e8, 1e10, 4)

    def test_unknown_precision(self):
        with pytest.raises(KeyError):
            predict_loss(chinchilla_like(), 1e8, 1e10, 6)


class TestHuber:
    def test_zero(self):
        assert huber(0.0) == 0.0

    def test_boundary_value(self):
        d = 1e-3
        assert float(huber(d)) == pytest.approx(d * d / 2)

    def test_linear_branch(self):
        d = 1e-3
        assert float(huber(2 * d)) == pytest.approx(1.5 * d * d)

    def test_continuously_differentiable_at_delta(self):
        # one-sided slopes at the branch point; the quadratic side's secant
        # underestimates its derivative by exactly h/2, corrected here
        d, h = 1e-3, 1e-6
        left = float(huber(d) - huber(d - h)) / h + h / 2
        right = float(huber(d + h) - huber(d)) / h
        assert abs(left - right) < 1e-12
        assert left == pytest.approx(d, rel=1e-9)

    def test_symmetry(self):
        r = np.array([-0.5, -1e-4, 0, 1e-4, 0.5])
        assert np.allclose(huber(r), huber(-r))


class TestParams:
    def test_eff16_pinned(self):
        with pytest.raises(ValueError, match="pinned"):
            ScalingLawParams(a=1, b=1, e=0, alpha=0.3, beta=0.3, eff={16: 0.9})

    def test_json_round_trip(self):
        params = chinchilla_like()
        back = ScalingLawParams.from_json(params.to_json())
        assert back.eff == params.eff
        assert back.alpha == params.alpha


class TestFit:
    def test_noiseless_recovery_small_grid(self):
        params = chinchilla_like(eff={4: 0.7, 16: 1.0})
        records = synth_records(params)
        fitted = fit(records, grid=SMALL_GRID)
        assert fitted.objective <= fit_objective(params, records) + 1e-10
        assert fitted.eff[4] == pytest.approx(0.7, rel=0.05)

    def test_order_invariance(self):
        params = chinchilla_like(eff={4: 0.7, 16: 1.0})
        records = synth_records(params, noise=0.01)
        fitted_a = fit(records, grid=SMALL_GRID)
        fitted_b = fit(list(reversed(records)), grid=SMALL_GRID)
        assert fitted_a.alpha == pytest.approx(fitted_b.alpha, abs=1e-9)
        assert fitted_a.eff[4] == pytest.approx(fitted_b.eff[4], rel=1e-9)

    def test_degenerate_sizes_rejected(self):
        params = chinchilla_like(eff={4: 0.7, 16: 1.0})
        records = synth_records(params, sizes=(1e8,))
        with pytest.raises(ValueError, match="degenerate"):
            fit(records, grid=SMALL_GRID)

    def test_single_token_count_rejected(self):
        # precision 4 observed at a single token count across sizes
        params = chinchilla_like(eff={4: 0.7, 16: 1.0})
        records = [
            RunRecord(n, 1e9, 4, predict_loss(params, n, 1e9, 4))
            for n in (30e6, 100e6)
        ] + [
            RunRecord(n, d, 16, predict_loss(params, n, d, 16))
            for n in (30e6, 100e6) for d in (1e9, 3e9)
        ]
        with pytest.raises(ValueError, match="distinct token"):
            fit(records, grid=SMALL_GRID)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit([])


class TestBatchBFGS:
    def test_matches_scipy_on_rosenbrock(self):
        minimize = pytest.importorskip("scipy.optimize").minimize
        starts = np.array([[0.0, 0.0], [1.5, 2.0], [-1.0, 1.0]])
        pts, vals = _bfgs_batch(rosenbrock, starts)
        for s, p, v in zip(starts, pts, vals):
            ref = minimize(lambda z: tuple(o[0] for o in rosenbrock(z)), s, jac=True,
                           method="BFGS", options={"gtol": 1e-10})
            assert v <= ref.fun + 1e-12
            assert np.abs(p - ref.x).max() < 1e-6

    def test_quadratic_batch(self):
        starts = np.random.default_rng(4).uniform(-5.0, 5.0, (6, 4))
        starts[0] = 0.0
        pts, vals = _bfgs_batch(scaled_quadratic, starts)
        assert np.all(vals < 1e-14)
        assert np.abs(pts - 3.0).max() < 1e-7

    @pytest.mark.parametrize("fn,dim", [(rosenbrock, 3), (scaled_quadratic, 4)],
                             ids=["rosenbrock", "quadratic"])
    def test_rows_match_single_runs(self, fn, dim):
        starts = np.random.default_rng(dim).uniform(-2.0, 2.0, (48, dim))
        pts, vals = _bfgs_batch(fn, starts)
        for i in range(len(starts)):
            p, v = _bfgs_batch(fn, starts[i:i + 1])
            assert p.tobytes() == pts[i:i + 1].tobytes()
            assert v.tobytes() == vals[i:i + 1].tobytes()

    def test_fit_starts_match_single_runs(self):
        # each start's bits must not depend on which other starts share its
        # calls: the benchmark's 72 starts run as one batch, and every fifth
        # of them (15, over every a and b value) runs alone
        records = criterion7_records()
        objective = scaling._objective(records, [1, 2, 3, 4])
        g = BENCH_GRID
        starts = np.array([[a, b, e, al, be, 0.0, 0.0, 0.0, 0.0] for al, be, e, a, b in product(
            g["alpha"], g["beta"], g["e"], g["a"], g["b"])])
        pts, vals = _bfgs_batch(objective, starts)
        for i in range(0, len(starts), 5):
            p, v = _bfgs_batch(objective, starts[i:i + 1])
            assert p.tobytes() == pts[i:i + 1].tobytes()
            assert v.tobytes() == vals[i:i + 1].tobytes()

    def test_one_trial_per_live_start_per_call(self):
        counting = CountingObjective(rosenbrock)
        starts = np.random.default_rng(5).uniform(-2.0, 2.0, (16, 3))
        _bfgs_batch(counting, starts)
        assert counting.rows[0] == 16
        assert all(b <= a for a, b in zip(counting.rows, counting.rows[1:]))
        assert 1 < len(counting.rows) < scaling.MAX_CALLS

    def test_call_cap(self, monkeypatch):
        monkeypatch.setattr(scaling, "MAX_CALLS", 3)
        counting = CountingObjective(rosenbrock)
        starts = np.array([[-1.2, 1.0], [0.0, 0.0]])
        pts, vals = _bfgs_batch(counting, starts)
        assert counting.rows == [2, 2, 2]
        assert np.all(vals <= rosenbrock(starts)[0])
        assert np.array_equal(rosenbrock(pts)[0], vals)

    def test_gradient_matches_central_differences(self):
        records = criterion7_records()
        objective = scaling._objective(records, [1, 2, 3, 4])
        rng = np.random.default_rng(11)
        theta = np.column_stack([rng.uniform(0, 25, (8, 2)), rng.uniform(-1, 1, 8),
                                 rng.uniform(0.05, 2, (8, 2)), rng.uniform(-3, 0.5, (8, 4))])
        _, grad = objective(theta)
        h = 1e-6
        for row, g in zip(theta, grad):
            steps = h * np.eye(len(row))
            numeric = (objective(row + steps)[0] - objective(row - steps)[0]) / (2 * h)
            assert np.abs(numeric - g).max() <= 1e-6 * np.abs(g).max()

    def test_objective_rows_are_batch_independent(self):
        records = criterion7_records()
        objective = scaling._objective(records, [1, 2, 3, 4])
        rng = np.random.default_rng(3)
        theta = np.column_stack([rng.uniform(0, 25, (5000, 2)), rng.uniform(-1, 1, 5000),
                                 rng.uniform(0, 2, (5000, 2)), rng.uniform(-3, 0.5, (5000, 4))])
        vals, grads = objective(theta)
        for i in rng.choice(5000, 200, replace=False):
            v, g = objective(theta[i:i + 1])
            assert v.tobytes() == vals[i:i + 1].tobytes()
            assert g.tobytes() == grads[i:i + 1].tobytes()

    def test_objective_matches_fit_objective(self):
        records = criterion7_records()
        params = chinchilla_like()
        theta = [params.a, params.b, params.e, params.alpha, params.beta] + [
            math.log(TABLE_EFF[p]) for p in (1, 2, 3, 4)]
        value, _ = scaling._objective(records, [1, 2, 3, 4])(np.array(theta))
        assert value[0] == pytest.approx(fit_objective(params, records), rel=1e-12)

    @settings(max_examples=5, deadline=None)
    @given(order=st.permutations(range(12)))
    def test_fit_is_permutation_invariant(self, order):
        records = synth_records(chinchilla_like(eff={4: 0.7, 16: 1.0}), noise=0.01)
        fitted = fit(records, grid=SMALL_GRID)
        again = fit([records[i] for i in order], grid=SMALL_GRID)
        assert again.to_json() == fitted.to_json()


class TestBatchNelderMead:
    """BFGS against the frozen Nelder-Mead oracle, from the same starts."""

    @pytest.mark.parametrize("max_iter", [0, 1, 17, 300, 5000])
    @pytest.mark.parametrize("fn,dim", [(rosenbrock, 3), (scaled_quadratic, 4)],
                             ids=["rosenbrock", "quadratic"])
    def test_matches_frozen_oracle(self, fn, dim, max_iter):
        # no start ends higher than after max_iter Nelder-Mead iterations, and
        # every start the oracle has taken to the minimum ends at its point
        starts = np.random.default_rng(dim).uniform(-2.0, 2.0, (48, dim))
        starts[:4] = 0.0  # zero coordinates take the 0.25 perturbation
        pts, vals = _bfgs_batch(fn, starts)
        want_pts, want_vals = oracle_nelder_mead_batch(lambda x: fn(x)[0], starts,
                                                       max_iter=max_iter)
        assert np.all(vals <= want_vals)
        converged = want_vals < 1e-14  # within 1e-7 of the minimum on the quadratic
        assert np.all(np.abs(pts[converged] - want_pts[converged]) < 1e-7)

    @pytest.mark.parametrize("grid,precisions", [
        (SMALL_GRID, (4, 16)),
        ({k: v[1::2] for k, v in DEFAULT_GRID.items()}, (1, 2, 3, 4, 16)),
    ], ids=["small-32", "odd-72"])
    def test_fit_objective_matches_frozen_oracle(self, monkeypatch, grid, precisions):
        records = synth_records(chinchilla_like(), noise=0.01, precisions=precisions,
                                ratios=(25, 50, 100))
        checked = []

        def both(objective, starts):
            got = _bfgs_batch(objective, starts)
            want = oracle_nelder_mead_batch(lambda x: objective(x)[0], starts)
            checked.append(len(starts))
            assert got[1].min() <= want[1].min() * (1 + 1e-12)
            return got

        monkeypatch.setattr(scaling, "_bfgs_batch", both)
        fitted = fit(records, grid=grid)
        assert checked == [math.prod(len(v) for v in grid.values())]
        assert fitted.objective == pytest.approx(fit_objective(fitted, records), rel=1e-12)


class TestEfficiency:
    def test_bf16_anchor(self):
        assert efficiency(chinchilla_like(), 16) == pytest.approx(0.0625)

    def test_int4_table_value(self):
        assert efficiency(chinchilla_like(), 4) == pytest.approx(0.175)

    def test_int1_table_value(self):
        assert efficiency(chinchilla_like(), 1) == pytest.approx(0.02)

    def test_full_ranking_int4_maximal(self):
        params = chinchilla_like()
        effs = {p: efficiency(params, p) for p in TABLE_EFF}
        assert max(effs, key=effs.get) == 4
        assert effs[4] > effs[3] > effs[8] > effs[2] > effs[16] > effs[1]

    def test_string_tag_rejected(self):
        params = chinchilla_like(eff={**TABLE_EFF, "fp4": 0.6})
        with pytest.raises(ValueError):
            efficiency(params, "fp4")


class TestPrecisionTag:
    """A precision is a whole bit-width or a name: a fraction or a bool is
    rejected, not truncated to a bit-width."""

    @pytest.mark.parametrize("call, value", [
        (lambda params: efficiency(params, 4.5), "4.5"),
        (lambda params: predict_loss(params, 1e7, 1e9, 4.9), "4.9"),
        (lambda params: isomem_threshold(params, 1e8, 4.5), "4.5"),
        (lambda params: efficiency(params, True), "True"),
    ], ids=["efficiency-4.5", "predict_loss-4.9", "isomem-4.5", "efficiency-True"])
    def test_fraction_or_bool_raises_naming_it(self, call, value):
        with pytest.raises(ValueError, match=f"precision {value} "):
            call(chinchilla_like())

    @pytest.mark.parametrize("tag", [4, 4.0, "4", np.int64(4), np.float32(4.0)], ids=repr)
    def test_whole_bit_width_in_any_spelling(self, tag):
        params = chinchilla_like()
        assert efficiency(params, tag) == efficiency(params, 4)
        assert predict_loss(params, 1e7, 1e9, tag) == predict_loss(params, 1e7, 1e9, 4)


class TestIsomem:
    def test_tie_reports_no_crossing(self):
        # eff chosen so the P-bit model matches BF16 exactly at equal memory
        params = chinchilla_like(eff={16: 1.0, 4: 4 / 16})
        params = ScalingLawParams(a=params.a, b=math.log(1e-9), e=params.e,
                                  alpha=params.alpha, beta=params.beta, eff=params.eff)
        assert isomem_threshold(params, 1e9, 4) is None

    def test_dominant_low_precision_crosses_at_minimum(self):
        params = ScalingLawParams(
            a=math.log(406.4), b=math.log(1e-9), e=math.log(1.69),
            alpha=0.34, beta=0.28, eff={16: 1.0, 4: 0.7},
        )
        # data term irrelevant: 4-bit wins at every ratio
        assert isomem_threshold(params, 1e9, 4) == pytest.approx(1e-6)

    def test_threshold_decreases_with_model_bytes(self):
        # the crossing ratio scales as N^(alpha/beta - 1); families fitted
        # with beta > alpha show the decreasing direction
        params = ScalingLawParams(
            a=math.log(406.4), b=math.log(410.7), e=math.log(1.69),
            alpha=0.30, beta=0.45, eff=TABLE_EFF,
        )
        thresholds = [isomem_threshold(params, mb, 4)
                      for mb in (1e8, 1e9, 1e10, 1e11)]
        assert all(t is not None for t in thresholds)
        assert all(b < a for a, b in zip(thresholds, thresholds[1:])), thresholds

    def test_crossing_is_genuine(self):
        params = chinchilla_like()
        mb = 1e9
        r = isomem_threshold(params, mb, 4)
        n16, n4 = mb / 2, mb * 2
        above = predict_loss(params, n4, 1.001 * r * n16 * 4 / 16, 4) \
            - predict_loss(params, n16, 1.001 * r * n16, 16)
        below = predict_loss(params, n4, 0.999 * r * n16 * 4 / 16, 4) \
            - predict_loss(params, n16, 0.999 * r * n16, 16)
        assert above < 0 < below


class TestPlanRuns:
    def test_hundred_tokens_per_param_rows(self):
        rows = plan_runs([30e6])
        assert len(rows) == 3
        assert [r["tokens"] for r in rows] == [750_000_000, 1_500_000_000, 3_000_000_000]

    def test_full_matrix(self):
        rows = plan_runs([30e6, 50e6], precisions=(1, 2, 3, 4, 16))
        assert len(rows) == 2 * 5 * 3

    def test_lr_column(self):
        rows = plan_runs([100e6], lr_fn=lambda n: 6e4 / n)
        assert rows[0]["peak_lr"] == pytest.approx(6e-4)


class TestRecordIO:
    def test_csv_round_trip(self, tmp_path):
        records = [RunRecord(3e7, 3e9, 4, 3.21), RunRecord(5e7, 5e9, 16, 2.95)]
        path = tmp_path / "runs.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["n_params", "tokens", "precision", "loss"])
            writer.writerows([r.n_params, r.tokens, r.precision, r.loss] for r in records)
        back = read_records_csv(path)
        assert back == records

    @pytest.mark.parametrize("text, where", [
        ("n_params,tokens,loss\n3e7,3e9,3.21\n", "line 2, column 'precision': no value"),
        ("n_params,tokens,precision,loss\n3e7,3e9,4,3.21\n5e7,5e9,16,\n",
         "line 3, column 'loss': no value"),
        ("n_params,tokens,precision,loss\n3e7,3e9,4,3.21\n5e7,lots,16,2.95\n",
         "line 3, column 'tokens': could not convert"),
        ("n_params,tokens,precision,loss\n3e7,3e9,4,3.21\n5e7,5e9,16,nan\n",
         "line 3, column 'loss': 'nan' is not finite and positive"),
        ("n_params,tokens,precision,loss\n-3e7,3e9,4,3.21\n",
         "line 2, column 'n_params': '-3e7' is not finite and positive"),
    ], ids=["missing-column", "empty-field", "not-a-number", "non-finite", "negative"])
    def test_bad_field_names_file_line_and_column(self, text, where, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_records_csv(path)
        assert str(err.value).startswith(f"{path}, {where}")

    def test_invalid_record(self):
        with pytest.raises(ValueError):
            RunRecord(0, 1e9, 4, 3.0)

    @pytest.mark.parametrize("field", ["n_params", "tokens", "loss"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_record_rejected(self, field, value):
        # one NaN among valid records once made fit return objective NaN at its start values
        fields = {**dict(n_params=3e7, tokens=3e9, precision=4, loss=3.21), field: value}
        with pytest.raises(ValueError, match="finite"):
            RunRecord(**fields)
