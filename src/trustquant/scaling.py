"""Precision-aware scaling-law fitting and the efficiency analyses on top.

The law: L(N, D, P) = exp(a)/(N*eff(P))^alpha + exp(b)/D^beta + exp(e),
with eff(16) pinned to 1. Fitting minimizes the mean Huber loss
(delta = 1e-3) of log-loss residuals over theta = (a, b, e, alpha, beta,
log eff(P) per fitted P), from every start of the grid a, b in {0,5,...,25},
e in {-1,...,1}, alpha, beta in {0,0.5,...,2}, log eff 0. One pass gives the
value and its analytic gradient; log L is a log-sum-exp of the terms'
exponents, so nothing overflows.

Each start runs a dense BFGS: H = I/|g| at a restart, rescaled by s'y/y'y at
its first update, no update when s'y <= 0, and a restart when -Hg is no
descent direction. Its weak-Wolfe line search (c1 1e-4, c2 0.9) starts at
step 1 and bisects its bracket, or doubles while the bracket has no upper
end; every objective call evaluates one trial per live start. A start
retires after 30 trials with no acceptable step, on an accepted step that
does not lower f, or at 5000 calls. `fit` sorts its records, so a fit
depends on their set, not their order; each start's bits are its own; the
winner is the argmin, the first index on ties.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

HUBER_DELTA = 1e-3
BASE_PRECISION = 16
ISOMEM_RATIO_MAX = 1e6  # the largest D/N ratio isomem_threshold scans
ISOMEM_REL_TOL = 1e-3  # its bisection stops at this relative bracket width

DEFAULT_GRID = {
    "alpha": [0.0, 0.5, 1.0, 1.5, 2.0],
    "beta": [0.0, 0.5, 1.0, 1.5, 2.0],
    "e": [-1.0, -0.5, 0.0, 0.5, 1.0],
    "a": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0],
    "b": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0],
}


@dataclass(frozen=True)
class RunRecord:
    n_params: float
    tokens: float
    precision: int | str
    loss: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.n_params, self.tokens, self.loss)):
            raise ValueError(f"run record fields must be finite and positive: {self}")


@dataclass
class ScalingLawParams:
    a: float  # log A
    b: float  # log B
    e: float  # log E
    alpha: float
    beta: float
    eff: dict = field(default_factory=lambda: {BASE_PRECISION: 1.0})
    objective: float | None = None

    def __post_init__(self):
        self.eff = dict(self.eff)
        self.eff.setdefault(BASE_PRECISION, 1.0)
        if self.eff[BASE_PRECISION] != 1.0:
            raise ValueError("eff(16) is pinned to 1.0")

    def to_json(self) -> str:
        d = {
            "a": self.a, "b": self.b, "e": self.e,
            "alpha": self.alpha, "beta": self.beta,
            "eff": {str(k): v for k, v in self.eff.items()},
            "objective": self.objective,
        }
        return json.dumps(d, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScalingLawParams":
        d = json.loads(text)
        eff = {_parse_tag(k): v for k, v in d["eff"].items()}
        return cls(a=d["a"], b=d["b"], e=d["e"], alpha=d["alpha"], beta=d["beta"],
                   eff=eff, objective=d.get("objective"))


def _parse_tag(tag):
    """A precision as its bit-width int (from an int, an integral float or a
    digit string) or else its name, such as "fp4". A bool or a float with a
    fraction raises ValueError: neither names a precision."""
    fraction = isinstance(tag, (float, np.floating)) and not float(tag).is_integer()
    if fraction or isinstance(tag, (bool, np.bool_)):
        raise ValueError(f"precision {tag!r} is neither a whole bit-width nor a name")
    try:
        return int(tag)
    except (TypeError, ValueError):
        return tag


def predict_loss(params: ScalingLawParams, n_params: float, tokens: float, precision) -> float:
    precision = _parse_tag(precision)
    if precision not in params.eff:
        raise KeyError(f"unknown precision tag {precision!r}")
    eff = params.eff[precision]
    return (
        math.exp(params.a) / (n_params * eff) ** params.alpha
        + math.exp(params.b) / tokens ** params.beta
        + math.exp(params.e)
    )


def huber(residual):
    """Quadratic within |r| <= HUBER_DELTA, linear outside."""
    r = np.abs(residual)
    return np.where(r <= HUBER_DELTA, 0.5 * r * r, HUBER_DELTA * (r - 0.5 * HUBER_DELTA))


def efficiency(params: ScalingLawParams, precision) -> float:
    """eff(P)/P for a bit-width P, the quantity maximized by the
    loss-per-runtime-cost optimum."""
    precision = _parse_tag(precision)
    if not isinstance(precision, int):
        raise ValueError(f"efficiency needs a bit-width precision, got tag {precision!r}")
    return params.eff[precision] / float(precision)


# --- batched BFGS --------------------------------------------------------------

MAX_CALLS = 5000  # objective calls per fit, the first included
MAX_TRIALS = 30  # trial steps a line search may take before its start retires
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9


def _rowdot(u, v):
    """Sum of u*v over the last axis, each row on its own (BLAS blocks by batch)."""
    return (u * v).sum(axis=-1)


def _bfgs_batch(objective, starts: np.ndarray):
    """One dense BFGS per row of `starts`, batched; objective(X) maps (m, dim) to
    ((m,) values, (m, dim) gradients). Returns (best points, best values)."""
    x = np.array(starts, dtype=np.float64)
    n_start, dim = x.shape
    eye = np.eye(dim)
    out_x, out_f = np.empty_like(x), np.empty(n_start)
    f, g = objective(x)
    live = np.arange(n_start)
    h = np.zeros((n_start, dim, dim))  # -Hg = 0 is no descent: every start restarts
    d, slope, t, lo, hi, trials = np.empty_like(x), *np.empty((5, n_start))
    fresh, new = np.ones((2, n_start), dtype=bool)  # H is a restart's I/|g|; a search begins
    for _ in range(MAX_CALLS - 1):
        if new.any():  # direction -Hg, or steepest descent where that is no descent
            rows = np.flatnonzero(new)
            d[rows] = -_rowdot(h[rows], g[rows][:, None, :])
            redo = rows[~(_rowdot(g[rows], d[rows]) < 0)]
            gnorm = np.sqrt(_rowdot(g[redo], g[redo]))
            h[redo] = eye / np.where(gnorm > 0, gnorm, 1.0)[:, None, None]  # g = 0 stalls
            fresh[redo] = True
            d[redo] = -_rowdot(h[redo], g[redo][:, None, :])
            slope[rows] = _rowdot(g[rows], d[rows])
            t[new], lo[new], hi[new], trials[new] = 1.0, 0.0, np.inf, 0

        xt = x + t[:, None] * d
        ft, gt = objective(xt)
        armijo = ft <= f + WOLFE_C1 * t * slope  # False for NaN
        ok = armijo & (_rowdot(gt, d) >= WOLFE_C2 * slope)
        trials += 1
        done = (ok & ~(ft < f)) | (~ok & (trials >= MAX_TRIALS))
        new = ok & ~done
        # the others bisect their bracket, or double while it has no upper end
        hi = np.where(armijo, hi, t)
        lo = np.where(armijo & ~ok, t, lo)
        t = np.where(np.isinf(hi), 2.0 * t, 0.5 * (lo + hi))

        if new.any():  # BFGS update of H, skipped where s'y <= 0
            s, y = xt[new] - x[new], gt[new] - g[new]
            sy = _rowdot(s, y)
            good = sy > 0
            rho = (good / np.where(good, sy, 1.0))[:, None, None]
            gamma = sy / np.where(good, _rowdot(y, y), 1.0)  # the first update rescales H
            hs = np.where((fresh[new] & good)[:, None, None], gamma[:, None, None] * eye, h[new])
            hy = _rowdot(hs, y[:, None, :])
            sh = s[:, :, None] * hy[:, None, :]
            coef = rho * rho * _rowdot(y, hy)[:, None, None] + rho
            h[new] = hs - rho * (sh + sh.transpose(0, 2, 1)) + coef * s[:, :, None] * s[:, None, :]
            fresh[new] &= ~good
            x[new], f[new], g[new] = xt[new], ft[new], gt[new]

        if done.any():
            out_x[live[done]], out_f[live[done]] = x[done], f[done]
            x, f, g, h, d, slope, t, lo, hi, trials, fresh, new, live = (
                v[~done] for v in (x, f, g, h, d, slope, t, lo, hi, trials, fresh, new, live))
            if not live.size:
                break
    out_x[live], out_f[live] = x, f
    return out_x, out_f


# --- fitting -------------------------------------------------------------------

def _objective(records: list[RunRecord], fit_tags: list):
    """theta (m, dim) -> ((m,) mean Huber, (m, dim) gradient) on `records`, with
    theta's log eff columns in `fit_tags` order."""
    log_n, log_d, log_l = np.log([[r.n_params, r.tokens, r.loss] for r in records]).T
    # records at the base precision point past the end of the eff block (0.0 pad)
    eff_col = np.array([fit_tags.index(t) if t in fit_tags else len(fit_tags)
                        for t in (_parse_tag(r.precision) for r in records)])
    onehot = eff_col == np.arange(len(fit_tags))[:, None]

    def objective(theta):
        theta = np.atleast_2d(theta)
        a, b, e, alpha, beta = (theta[:, i:i + 1] for i in range(5))
        padded = np.concatenate([theta[:, 5:], np.zeros((len(theta), 1))], axis=1)
        log_ne = log_n + np.take(padded, eff_col, axis=1)
        u = np.stack(np.broadcast_arrays(a - alpha * log_ne, b - beta * log_d, e))
        top = u.max(axis=0)
        p = np.exp(u - top)
        total = p.sum(axis=0)
        resid = log_l - (top + np.log(total))
        w = p * (np.clip(resid, -HUBER_DELTA, HUBER_DELTA) / (-len(records) * total))
        grad = np.column_stack([w.sum(axis=2).T, -_rowdot(w[0], log_ne), -_rowdot(w[1], log_d),
                                -alpha * _rowdot(w[0][:, None, :], onehot)])
        return huber(resid).mean(axis=1), grad

    return objective


def fit(records: list[RunRecord], *, grid: dict | None = None) -> ScalingLawParams:
    """Fit (a, b, e, alpha, beta) and log eff(P) for every P != 16 present.

    Requires >= 2 distinct sizes overall and >= 2 distinct token counts per
    fitted precision; eff(16) stays pinned at 1.
    """
    if not records:
        raise ValueError("no records to fit")
    records = sorted(records, key=lambda r: (str(r.precision), r.n_params, r.tokens, r.loss))
    tags = [_parse_tag(r.precision) for r in records]
    if len({r.n_params for r in records}) < 2:
        raise ValueError("degenerate data: all records share one model size")
    fit_tags = sorted({t for t in tags if t != BASE_PRECISION}, key=str)
    for tag in fit_tags + [BASE_PRECISION]:
        tokens_for_tag = {r.tokens for r, t in zip(records, tags) if t == tag}
        if tag in tags and len(tokens_for_tag) < 2:
            raise ValueError(f"precision {tag!r} needs >= 2 distinct token counts")

    grid = grid or DEFAULT_GRID
    starts = np.array([
        [a0, b0, e0, al0, be0] + [0.0] * len(fit_tags)
        for al0, be0, e0, a0, b0 in product(
            grid["alpha"], grid["beta"], grid["e"], grid["a"], grid["b"]
        )
    ])
    best_pts, best_vals = _bfgs_batch(_objective(records, fit_tags), starts)
    winner = int(np.argmin(best_vals))  # first index wins ties
    theta = best_pts[winner]
    eff = {BASE_PRECISION: 1.0, **{t: float(np.exp(v)) for t, v in zip(fit_tags, theta[5:])}}
    return ScalingLawParams(
        a=float(theta[0]), b=float(theta[1]), e=float(theta[2]),
        alpha=float(theta[3]), beta=float(theta[4]), eff=eff,
        objective=float(best_vals[winner]),
    )


def fit_objective(params: ScalingLawParams, records: list[RunRecord]) -> float:
    """Mean Huber log-loss residual of `params` on `records`."""
    total = 0.0
    for r in records:
        resid = math.log(r.loss) - math.log(
            predict_loss(params, r.n_params, r.tokens, r.precision)
        )
        total += float(huber(resid))
    return total / len(records)


# --- analyses -------------------------------------------------------------------

def isomem_threshold(params: ScalingLawParams, model_bytes: float, precision):
    """Smallest compute-matched D/N ratio where the P-bit model at equal
    memory beats the 16-bit model at equal training compute, to a relative
    ISOMEM_REL_TOL; None if the curves do not cross below ISOMEM_RATIO_MAX.

    The x-axis variable is r = (D/N) * (16^2 / P^2); at a fixed r both
    models match in bytes and in N*D training compute.
    """
    precision = _parse_tag(precision)
    bits = float(precision)
    n16 = model_bytes / 2.0
    n_p = model_bytes * 8.0 / bits

    def gap(r):
        d16 = r * n16
        d_p = r * n16 * bits / 16.0
        return (
            predict_loss(params, n_p, d_p, precision)
            - predict_loss(params, n16, d16, BASE_PRECISION)
        )

    lo, hi = 1e-6, ISOMEM_RATIO_MAX
    if gap(lo) < 0:
        return lo  # immediate crossing: threshold at the scan minimum
    if gap(hi) >= 0:
        return None  # no threshold <= ISOMEM_RATIO_MAX
    while (hi - lo) / hi > ISOMEM_REL_TOL:
        mid = math.sqrt(lo * hi)
        if gap(mid) < 0:
            hi = mid
        else:
            lo = mid
    return hi


def plan_runs(sizes, ratios=(25, 50, 100), precisions=(BASE_PRECISION,),
              lr_fn=None) -> list[dict]:
    """The run matrix: one row per (N, P, D/N ratio) with D = ratio * N."""
    rows = []
    for n in sizes:
        for p in precisions:
            for ratio in ratios:
                row = {
                    "n_params": int(n),
                    "precision": p,
                    "ratio": ratio,
                    "tokens": int(ratio * n),
                }
                if lr_fn is not None:
                    row["peak_lr"] = lr_fn(n)
                rows.append(row)
    return rows


# --- record io -------------------------------------------------------------------

def read_records_csv(path) -> list[RunRecord]:
    """Run records from a CSV with the columns n_params, tokens, precision and
    loss; a field that is absent, not a number, or (but for precision) not
    finite and positive raises ValueError naming the file, the line and the
    column."""
    records = []
    with open(path, newline="") as f:
        for row in (reader := csv.DictReader(f)):
            fields = {}
            for column in ("n_params", "tokens", "precision", "loss"):
                try:
                    if not (text := row.get(column)):
                        raise ValueError("no value")
                    if column == "precision":
                        fields[column] = _parse_tag(text)
                    elif not (math.isfinite(value := float(text)) and value > 0):
                        raise ValueError(f"{text!r} is not finite and positive")
                    else:
                        fields[column] = value
                except ValueError as err:
                    raise ValueError(f"{path}, line {reader.line_num}, column {column!r}: "
                                     f"{err}") from None
            records.append(RunRecord(**fields))
    return records
