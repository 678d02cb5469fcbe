"""Seeded benchmark inputs: the synthetic byte corpus and the scaling-fit
record set.

Both follow the recipes the test suite uses (the corpus of
`tests/helpers.synthetic_corpus`, the records of acceptance criterion 7),
but the generator is a private copy: the program under test receives only
the generated bytes and records, so a change to the program's own RNG or
test helpers cannot change the benchmark's inputs.
"""

from __future__ import annotations

import math
import os

import numpy as np

CORPUS_BYTES = 600_000

# Criterion 7's generating law: L = A/(N*eff(P))^alpha + B/D^beta + E.
TRUE_LAW = {"A": 406.4, "B": 410.7, "E": 1.69, "alpha": 0.34, "beta": 0.28}
TRUE_EFF = {1: 0.02, 2: 0.16, 3: 0.43, 4: 0.70, 16: 1.00}
FIT_SIZES = (30e6, 50e6, 100e6, 200e6, 430e6, 800e6)
FIT_RATIOS = (25, 50, 100)
FIT_NOISE = 0.01

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


class SplitMix:
    """Counter-based splitmix64 stream with Box-Muller normals; bit-identical
    to `trustquant.tensor.Rng` for the draws used here."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            z = (idx ^ (self.seed * _M2)) * _GAMMA + _GAMMA
            z = (z ^ (z >> np.uint64(30))) * _M1
            z = (z ^ (z >> np.uint64(27))) * _M2
            return z ^ (z >> np.uint64(31))

    def uniform(self, n: int | None = None):
        u = (self._raw(n or 1) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return u if n is not None else float(u[0])

    def normal(self) -> float:
        u1 = 1.0 - (self._raw(1) >> np.uint64(11)).astype(np.float64)[0] * 2.0 ** -53
        u2 = (self._raw(1) >> np.uint64(11)).astype(np.float64)[0] * 2.0 ** -53
        return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self.uniform(n), kind="stable")


def synthetic_corpus(n_bytes: int, seed: int) -> bytes:
    """Invented lexicon, Zipf word frequencies, sparse bigram chain."""
    rng = SplitMix(seed)
    syllables = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"]
    order = rng.permutation(len(syllables))
    words: list[str] = []
    while len(words) < 160:
        k = 2 + int(rng.uniform() * 2)
        picks = (rng.uniform(k) * len(syllables)).astype(int)
        word = "".join(syllables[order[p]] for p in picks)
        if word not in words:
            words.append(word)
    zipf = 1.0 / np.arange(1, len(words) + 1, dtype=np.float64) ** 1.1
    cdf = np.cumsum(zipf / zipf.sum())
    successor = rng.permutation(len(words))

    n_words = n_bytes // 5 + 16
    iid = np.searchsorted(cdf, rng.uniform(n_words))
    follow = rng.uniform(n_words) < 0.5
    seq = np.empty(n_words, dtype=np.int64)
    seq[0] = iid[0]
    for t in range(1, n_words):
        seq[t] = successor[seq[t - 1]] if follow[t] else iid[t]
    return " ".join(words[i] for i in seq).encode()[:n_bytes]


def write_corpus(workdir: str, seed: int) -> str:
    """Write the seed's corpus once per work directory; returns its path."""
    path = os.path.join(workdir, f"corpus-{seed}.bin")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as f:
            f.write(synthetic_corpus(CORPUS_BYTES, seed))
        os.replace(tmp, path)
    return path


def true_loss(n: float, d: float, p: int) -> float:
    law = TRUE_LAW
    return (law["A"] / (n * TRUE_EFF[p]) ** law["alpha"]
            + law["B"] / d ** law["beta"] + law["E"])


def scaling_records(seed: int) -> list[tuple[float, float, int, float]]:
    """Criterion 7's 90 records (6 sizes x 5 precisions x 3 D/N ratios) with
    1% log-normal noise drawn from the seed: (n_params, tokens, P, loss)."""
    rng = SplitMix(seed)
    out = []
    for n in FIT_SIZES:
        for p in TRUE_EFF:
            for r in FIT_RATIOS:
                noisy = true_loss(n, r * n, p) * math.exp(FIT_NOISE * rng.normal())
                out.append((n, r * n, p, noisy))
    return out
