"""Precision-aware scaling-law fitting and the efficiency analyses on top.

The law: L(N, D, P) = exp(a)/(N*eff(P))^alpha + exp(b)/D^beta + exp(e),
with eff(16) pinned to 1. Fitting minimizes the mean Huber loss
(delta = 1e-3) of log-loss residuals, starting a Nelder-Mead from every
point of the grid a, b in {0,5,...,25}, e in {-1,...,1}, alpha, beta in
{0,0.5,...,2} (log-space parameters), log eff starting at 0.

Initial simplex: each coordinate perturbed by 5% of its value, or by 0.25
when it starts at zero; the 0.25 keeps log-eff dimensions (which all start
at zero) on the same exploration scale as the log-coefficient grid.

All simplexes advance in lockstep through one vectorized Nelder-Mead
(reflection 1, expansion 2, contraction 0.5, shrink 0.5). A simplex retires
with its best vertex once its diameter is not >= 1e-8 (so NaN retires too)
or after 5000 iterations; only live simplexes are sorted and stepped. An
iteration makes at most three objective calls: the reflections, one second
probe per simplex that needs one (expansion, outside or inside contraction)
and the shrinks. The winner is the deterministic argmin with index tie-break.
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
        if self.n_params <= 0 or self.tokens <= 0 or self.loss <= 0:
            raise ValueError(f"run record fields must be positive: {self}")


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


def huber(residual, delta: float = HUBER_DELTA):
    """Quadratic within |r| <= delta, linear outside."""
    r = np.abs(residual)
    return np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))


def efficiency(params: ScalingLawParams, precision, bits: float | None = None) -> float:
    """eff(P)/P, the quantity maximized by the loss-per-runtime-cost optimum."""
    precision = _parse_tag(precision)
    if bits is None:
        if not isinstance(precision, (int, float)):
            raise ValueError(f"pass bits= explicitly for tag {precision!r}")
        bits = float(precision)
    return params.eff[precision] / bits


# --- vectorized multi-start Nelder-Mead --------------------------------------

def _nelder_mead_batch(objective, starts: np.ndarray, *, xatol: float = 1e-8,
                       max_iter: int = 5000):
    """Run one Nelder-Mead per row of `starts`, all in lockstep.

    objective(X) maps (m, dim) -> (m,). Returns (best points, best values).
    """
    starts = np.asarray(starts, dtype=np.float64)
    n_start, dim = starts.shape
    n_vert = dim + 1

    pts = np.repeat(starts[:, None, :], n_vert, axis=1)
    for j in range(dim):
        col = pts[:, j + 1, j]
        pts[:, j + 1, j] = np.where(col != 0.0, col * 1.05, 0.25)
    fvals = objective(pts.reshape(-1, dim)).reshape(n_start, n_vert)
    best_pts, best_vals = np.empty_like(starts), np.empty_like(fvals[:, 0])

    live = np.arange(n_start)  # original row of each simplex still in pts/fvals
    for it in range(max_iter + 1):  # the last pass only sorts
        order = np.argsort(fvals, axis=1, kind="stable")
        fvals = np.take_along_axis(fvals, order, axis=1)
        pts = np.take_along_axis(pts, order[:, :, None], axis=1)

        diam = np.abs(pts - pts[:, :1, :]).max(axis=(1, 2))
        done = ~(diam >= xatol) | (it == max_iter)  # a NaN diameter retires too
        best_pts[live[done]], best_vals[live[done]] = pts[done, 0], fvals[done, 0]
        live, pts, fvals = live[~done], pts[~done], fvals[~done]
        if not live.size:
            break

        centroid = pts[:, :-1, :].sum(axis=1) / dim
        direction = centroid - pts[:, -1, :]
        xr = centroid + direction
        fr = objective(xr)

        # one second probe: expansion (2), outside (0.5) or inside (-0.5) contraction
        coef = np.select(
            [fr < fvals[:, 0], (fr >= fvals[:, -2]) & (fr < fvals[:, -1]), fr >= fvals[:, -1]],
            [2.0, 0.5, -0.5], 0.0)
        rows = np.flatnonzero(coef)
        shrink = np.zeros(live.size, dtype=bool)
        if rows.size:
            c = coef[rows]
            x2 = centroid[rows] + c[:, None] * direction[rows]
            f2 = objective(x2)
            kept = np.select([c == 2.0, c == 0.5], [f2 < fr[rows], f2 <= fr[rows]],
                             f2 < fvals[rows, -1])
            shrink[rows[~kept & (c != 2.0)]] = True  # a contraction that failed
            xr[rows[kept]], fr[rows[kept]] = x2[kept], f2[kept]

        accept = ~shrink
        pts[accept, -1, :] = xr[accept]
        fvals[accept, -1] = fr[accept]
        if shrink.any():
            best = pts[shrink, :1, :]
            pts[shrink, 1:, :] = best + 0.5 * (pts[shrink, 1:, :] - best)
            flat = pts[shrink, 1:, :].reshape(-1, dim)
            fvals[shrink, 1:] = objective(flat).reshape(-1, dim)

    return best_pts, best_vals


# --- fitting -------------------------------------------------------------------

def fit(records: list[RunRecord], *, grid: dict | None = None) -> ScalingLawParams:
    """Fit (a, b, e, alpha, beta) and log eff(P) for every P != 16 present.

    Requires >= 2 distinct sizes overall and >= 2 distinct token counts per
    fitted precision; eff(16) stays pinned at 1.
    """
    if not records:
        raise ValueError("no records to fit")
    n = np.array([r.n_params for r in records], dtype=np.float64)
    d = np.array([r.tokens for r in records], dtype=np.float64)
    loss = np.array([r.loss for r in records], dtype=np.float64)
    tags = [_parse_tag(r.precision) for r in records]

    if len(set(n)) < 2:
        raise ValueError("degenerate data: all records share one model size")
    fit_tags = sorted({t for t in tags if t != BASE_PRECISION}, key=str)
    for tag in fit_tags + [BASE_PRECISION]:
        tokens_for_tag = {r.tokens for r, t in zip(records, tags) if t == tag}
        if tag in tags and len(tokens_for_tag) < 2:
            raise ValueError(f"precision {tag!r} needs >= 2 distinct token counts")

    log_n, log_d, log_l = np.log(n), np.log(d), np.log(loss)
    tag_index = {t: i for i, t in enumerate(fit_tags)}
    # records at the base precision point past the end of the eff block (0.0 pad)
    eff_col = np.array([tag_index.get(t, len(fit_tags)) for t in tags])

    def objective(theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(theta)
        a, b, e = theta[:, 0:1], theta[:, 1:2], theta[:, 2:3]
        alpha, beta = theta[:, 3:4], theta[:, 4:5]
        padded = np.concatenate([theta[:, 5:], np.zeros((len(theta), 1))], axis=1)
        log_eff = padded[:, eff_col]
        with np.errstate(over="ignore"):
            pred = (
                np.exp(a - alpha * (log_n[None, :] + log_eff))
                + np.exp(b - beta * log_d[None, :])
                + np.exp(e)
            )
        resid = log_l[None, :] - np.log(pred)
        return huber(resid).mean(axis=1)

    grid = grid or DEFAULT_GRID
    starts = np.array([
        [a0, b0, e0, al0, be0] + [0.0] * len(fit_tags)
        for al0, be0, e0, a0, b0 in product(
            grid["alpha"], grid["beta"], grid["e"], grid["a"], grid["b"]
        )
    ])
    best_pts, best_vals = _nelder_mead_batch(objective, starts)
    winner = int(np.argmin(best_vals))  # first index wins ties
    theta = best_pts[winner]
    eff = {BASE_PRECISION: 1.0}
    for tag, i in tag_index.items():
        eff[tag] = float(np.exp(theta[5 + i]))
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

def isomem_threshold(params: ScalingLawParams, model_bytes: float, precision,
                     *, ratio_max: float = 1e6, rel_tol: float = 1e-3):
    """Smallest compute-matched D/N ratio where the P-bit model at equal
    memory beats the 16-bit model at equal training compute; None if the
    curves do not cross below ratio_max.

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

    lo, hi = 1e-6, ratio_max
    if gap(lo) < 0:
        return lo  # immediate crossing: threshold at the scan minimum
    if gap(hi) >= 0:
        return None  # no threshold <= ratio_max
    while (hi - lo) / hi > rel_tol:
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
    records = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            records.append(RunRecord(
                n_params=float(row["n_params"]),
                tokens=float(row["tokens"]),
                precision=_parse_tag(row["precision"]),
                loss=float(row["loss"]),
            ))
    return records


def write_records_csv(path, records: list[RunRecord]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n_params", "tokens", "precision", "loss"])
        for r in records:
            writer.writerow([r.n_params, r.tokens, r.precision, r.loss])
