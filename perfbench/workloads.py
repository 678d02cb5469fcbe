"""The four benchmark workloads.

Each is a closed loop with one caller: a unit of work starts when the
previous one ends. A workload has three phases:

- `prepare(seed, workdir)`: generate its inputs (not timed, not program work);
- `setup()`: the program's set-up, timed as `setup_s` (ingest, build, the
  lazy alpha* solve and a fixed number of warm-up units);
- `unit()`: one timed unit, followed by the untimed `check_unit()`; at the
  end `finish()` runs the whole-run checks and the report metrics.

Calls into the program go through module attributes (`tq_model.build`, not a
name imported here), so the tracer's patches see them.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from trustquant import model as tq_model
from trustquant import scaling, trainer
from trustquant.quantizer import QuantConfig
from trustquant.tensor import Rng

from inputs import TRUE_EFF, TRUE_LAW, scaling_records, write_corpus

SEQ_LEN = 128
MODEL_SEED = 7  # the ladder's model seed
STREAM_SEED = 13  # the ladder's data-order seed
TRAIN_CFG = trainer.TrainConfig(peak_lr=3e-3, total_steps=300, batch_tokens=1024)
LN_VOCAB = math.log(256)
# final_loss averages a fixed range of timed units, so that it does not
# depend on how many units fit in the window: training steps 20-29 (about
# 12 s of train_w4a4) and the first four eval batches
FINAL_TRAIN_STEPS = slice(20, 30)
FINAL_EVAL_BATCHES = slice(0, 4)


def _fixed_mean(losses: list[float], units: slice) -> float | None:
    """Mean loss over a fixed range of units; None if the run ended first."""
    picked = losses[units]
    return float(np.mean(picked)) if len(picked) == units.stop - units.start else None


class Workload:
    name = ""
    why = ""
    warmup_units = 1
    tokens_per_unit = 0  # window tokens fed per unit; 0 where not applicable

    def prepare(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def check_unit(self, out) -> str | None:
        """Error text when the unit's output is wrong, else None."""
        raise NotImplementedError

    def finish(self) -> tuple[dict, list[str]]:
        """Report metrics {name: (value, unit)} and whole-run problems."""
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(self.warmup_units):
            err = self.check_unit(self.unit())
            if err:
                raise RuntimeError(f"{self.name} warm-up unit failed: {err}")


class Train(Workload):
    """Training steps (forward, backward, clip, AdamW) at the ladder config."""

    warmup_units = 2  # step 0 solves alpha* and allocates AdamW state
    tokens_per_unit = TRAIN_CFG.batch_tokens

    def __init__(self, name: str, quant: QuantConfig, why: str):
        self.name, self.quant, self.why = name, quant, why
        self.losses: list[float] = []

    def prepare(self, seed, workdir):
        self.corpus = write_corpus(workdir, seed)

    def setup(self):
        windows = trainer.ingest(self.corpus, SEQ_LEN)
        cfg = tq_model.ModelConfig(num_blocks=2, hidden_size=128, num_heads=4,
                                   max_seq_len=SEQ_LEN, quant=self.quant)
        self.model = tq_model.build(cfg, Rng(MODEL_SEED))
        self.skip_decay = {n for n in self.model.params if self.model.is_norm_gain(n)}
        self.stream = trainer.BatchStream(windows, TRAIN_CFG.batch_tokens // SEQ_LEN, STREAM_SEED)
        self.opt = trainer.AdamWState()
        self.warm_up()
        self.losses = []

    def unit(self):
        batch = self.stream.next_batch()
        loss, tape, trace = tq_model.forward_loss(self.model, batch)
        tape.backward(loss)
        grads = {n: trace.param_leaves[n].grad for n in self.model.params}
        grads, _ = trainer.clip_grad_norm(grads, TRAIN_CFG.clip_norm)
        # past the schedule's end the LR stays 0; the step's work is unchanged
        lr = trainer.lr_at(min(self.opt.step, TRAIN_CFG.total_steps), TRAIN_CFG)
        trainer.adamw_step(self.model.params, grads, self.opt, lr, TRAIN_CFG, self.skip_decay)
        return float(loss.value), grads

    def check_unit(self, out):
        loss, grads = out
        self.losses.append(loss)
        if not math.isfinite(loss):
            return f"non-finite loss {loss}"
        bad = [n for n, g in grads.items() if g is None or not np.all(np.isfinite(g))]
        return f"non-finite gradient in {bad}" if bad else None

    def finish(self):
        final = _fixed_mean(self.losses, FINAL_TRAIN_STEPS)
        # a run too short for the fixed range checks its last loss instead
        checked = final if final is not None else self.losses[-1]
        problems = []
        if not checked < LN_VOCAB:
            problems.append(f"final loss {checked:.4f} is not below ln 256 = {LN_VOCAB:.4f}")
        return {"final_loss": (final, "nats")}, problems


class Eval(Workload):
    """Forward-only scoring of seed-initialized weights, no backward."""

    tokens_per_unit = 16 * SEQ_LEN

    def __init__(self, name: str, why: str):
        self.name, self.why = name, why
        self.losses: list[float] = []

    def prepare(self, seed, workdir):
        self.corpus = write_corpus(workdir, seed)

    def setup(self):
        windows = trainer.ingest(self.corpus, SEQ_LEN)
        cfg = tq_model.ModelConfig(num_blocks=2, hidden_size=640, num_heads=10,
                                   max_seq_len=SEQ_LEN, quant=QuantConfig(format="int4"))
        self.model = tq_model.build(cfg, Rng(MODEL_SEED))
        self.stream = trainer.BatchStream(windows, 16, STREAM_SEED)
        self.warm_up()
        self.losses = []

    def unit(self):
        batch = self.stream.next_batch()
        loss, _, _ = tq_model.forward_loss(self.model, batch)
        return batch, float(loss.value)

    def check_unit(self, out):
        self.last = out
        self.losses.append(out[1])
        return None if math.isfinite(out[1]) else f"non-finite eval loss {out[1]}"

    def finish(self):
        problems = []
        batch, loss = self.last
        again = float(tq_model.forward_loss(self.model, batch)[0].value)
        if again != loss:
            problems.append(f"repeat forward of one batch gave {again!r}, first {loss!r}")
        return {"final_loss": (_fixed_mean(self.losses, FINAL_EVAL_BATCHES), "nats")}, problems


# The record set is criterion 7's own for every --seed: the fit's work (its
# Nelder-Mead iterations) depends on the noise draw, and across seeds that
# moved the median fit time by more than any regression bound could allow.
CRITERION7_SEED = 7

# 72 of the default grid's 4500 starts: the odd-indexed values of each axis
# but b, and the even-indexed values of b. A full default-grid fit takes about
# 100 s on one core, longer than one benchmark run may last. On criterion 7's
# records this subset's winner meets criterion 7's tolerances (eff(P) within
# 2.2%, alpha and beta within 0.025); the all-odd subset misses eff(1) by 17%.
FIT_GRID = {k: v[::2] if k == "b" else v[1::2] for k, v in scaling.DEFAULT_GRID.items()}
# criterion 7's tolerances on the recovered law
EFF_REL_TOL = 0.10
EXPONENT_TOL = 0.1


def reference_objective(theta, records) -> float:
    """Mean Huber log-residual of the law at log-parameters theta, computed
    record by record in plain Python (independent of the vectorized fit)."""
    a, b, e, alpha, beta = theta[:5]
    log_eff = dict(zip([p for p in TRUE_EFF if p != 16], theta[5:]))
    delta = scaling.HUBER_DELTA
    total = 0.0
    for n, d, p, loss in records:
        pred = (math.exp(a - alpha * (math.log(n) + log_eff.get(p, 0.0)))
                + math.exp(b - beta * math.log(d)) + math.exp(e))
        r = abs(math.log(loss) - math.log(pred))
        total += 0.5 * r * r if r <= delta else delta * (r - 0.5 * delta)
    return total / len(records)


class Fit(Workload):
    """`scaling.fit` on criterion 7's synthetic record set."""

    def __init__(self, name: str, why: str):
        self.name, self.why = name, why
        self.results: list = []

    def prepare(self, seed, workdir):
        self.raw = scaling_records(CRITERION7_SEED)
        self.records = [scaling.RunRecord(*r) for r in self.raw]
        n_eff = len(TRUE_EFF) - 1
        starts = [[a, b, e, al, be] + [0.0] * n_eff for al, be, e, a, b in product(
            FIT_GRID["alpha"], FIT_GRID["beta"], FIT_GRID["e"], FIT_GRID["a"], FIT_GRID["b"])]
        self.best_start = min(reference_objective(t, self.raw) for t in starts)

    def setup(self):
        self.results = []
        self.warm_up()

    def unit(self):
        return scaling.fit(self.records, grid=FIT_GRID)

    def check_unit(self, params):
        self.results.append(params)
        theta = [params.a, params.b, params.e, params.alpha, params.beta] + [
            math.log(params.eff[p]) for p in TRUE_EFF if p != 16]
        if not all(math.isfinite(v) for v in theta):
            return f"non-finite fitted parameters {theta}"
        ref = reference_objective(theta, self.raw)
        if not math.isclose(ref, params.objective, rel_tol=1e-9):
            return f"objective {params.objective!r} disagrees with reference {ref!r}"
        if params.objective > self.best_start * (1 + 1e-9):
            return f"fit objective {params.objective} worse than its best start {self.best_start}"
        first = self.results[0]
        if params.to_json() != first.to_json():
            return "repeat fit of the same records gave different parameters"
        eff_err, alpha_err, beta_err = _recovery_errors(params)
        if not (eff_err < EFF_REL_TOL and alpha_err < EXPONENT_TOL and beta_err < EXPONENT_TOL):
            return (f"fit misses criterion 7's law: eff rel err {eff_err:.4f}, "
                    f"|dalpha| {alpha_err:.4f}, |dbeta| {beta_err:.4f}")
        return None

    def finish(self):
        p = self.results[-1]
        eff_err, alpha_err, beta_err = _recovery_errors(p)
        return {
            "fit_objective": (p.objective, "huber"),
            "fit_eff_max_rel_err": (eff_err, "ratio"),
            "fit_alpha_err": (alpha_err, "abs"),
            "fit_beta_err": (beta_err, "abs"),
        }, []


def _recovery_errors(p) -> tuple[float, float, float]:
    """Largest relative eff(P) error and the exponent errors against the truth."""
    eff = max(abs(p.eff[q] - TRUE_EFF[q]) / TRUE_EFF[q] for q in TRUE_EFF if q != 16)
    return eff, abs(p.alpha - TRUE_LAW["alpha"]), abs(p.beta - TRUE_LAW["beta"])


WORKLOADS = {
    w.name: w for w in (
        Train("train_w4a4", QuantConfig(format="int4"),
              "the ladder's INT4 W4A4 training step with Hadamard and the trust "
              "estimator: the paper's headline path and the ROADMAP end-to-end unit"),
        Train("train_fp", QuantConfig(format="none", hadamard=False),
              "the ladder's full-precision rung: no transform or projection, so it "
              "isolates autodiff, the qlinear matmuls and the optimizer (control)"),
        Eval("eval_w4a4_wide",
             "forward-only W4A4 scoring at hidden 640: no backward, non-power-of-two "
             "widths (block-diagonal HT), activations larger than L2"),
        Fit("fit_scaling",
            "the scaling-law fit that consumes the ladder's results; shares no "
            "code with the other workloads"),
    )
}

# Which end-to-end metric each layer metric should move, and where.
LAYER_EFFECTS = {
    "hadamard": "step_ms_p50/tokens_per_s on train_w4a4 and eval_w4a4_wide; "
                "nothing on train_fp or fit_scaling",
    "quantizer": "as hadamard; alpha solve_ms moves setup_s on the two W4A4 workloads",
    "qlinear": "forward.self_ms moves all three non-fit workloads (eval most); "
               "backward.self_ms the train workloads (train_fp most); "
               "trusted_frac_x/w are outcome ratios no perf change may move",
    "autodiff": "step_ms_p50 on train_fp first, then train_w4a4; forward ops also "
                "eval_w4a4_wide",
    "model": "forward_loss.self_ms moves step_ms_p50 everywhere but fit; "
             "build.ms moves setup_s",
    "trainer": "adamw_step/clip_grad_norm move the train workloads only; "
               "next_batch should stay about 0; ingest.ms moves setup_s",
    "tensor": "Rng.normal.ms moves setup_s",
    "scaling": "fit.ms and huber.* move only step_ms_p50 (fit_s) on fit_scaling",
    "mem": "tracemalloc_peak_mb tracks peak_rss_mb on the W4A4 workloads",
}
