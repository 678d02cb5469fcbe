"""Dense tensor conventions, shared input checks, and the deterministic RNG.

Tensors are contiguous row-major numpy arrays in float32 (training math) or
float64 (oracle / gradient-check paths). Transposition is always explicit.
All reductions inherit numpy's pairwise summation, a deterministic
fixed-fan-in tree, so results are reproducible for a fixed operand order.
"""

from __future__ import annotations

import math

import numpy as np

F32 = np.float32


def require_float(x: np.ndarray, what: str) -> None:
    """Raise TypeError naming the dtype unless `x` is floating-point."""
    if not np.issubdtype(x.dtype, np.floating):
        raise TypeError(f"{what} needs floating-point input, got dtype {x.dtype}")


def require_count(name: str, value, low: int = 1) -> None:
    """Raise ValueError naming `name` unless `value` is an int (not a bool)
    of at least `low`, which is 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        kind = "positive" if low else "non-negative"
        raise ValueError(f"{name} must be a {kind} int, got {value!r}")


def require_real(name: str, value, *, positive: bool = True) -> None:
    """Raise ValueError naming `name` unless `value` is a finite real number
    (not a bool), above 0 if `positive`, else at least 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'at least 0'}, "
                         f"got {value!r}")


def require_axis(x: np.ndarray, what: str) -> None:
    """Raise ValueError for a 0-d `x`, which has no last axis to act on."""
    if x.ndim == 0:
        raise ValueError(f"{what} needs at least one axis, got a 0-d array")


# --- deterministic counter-based RNG ---------------------------------------

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = x * _SM64_GAMMA + _SM64_GAMMA  # counter 0 maps through one gamma step
    z = (z ^ (z >> np.uint64(30))) * _SM64_M1
    z = (z ^ (z >> np.uint64(27))) * _SM64_M2
    return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based stream: splitmix64 of (seed, counter), Box-Muller normals.

    The transform is fixed, so identical seeds give identical streams on all
    platforms. Each draw advances the counter by the number of raw 64-bit
    words consumed.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = np.uint64(0)

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(int(self.counter), int(self.counter) + n, dtype=np.uint64)
        self.counter = np.uint64(int(self.counter) + n)
        with np.errstate(over="ignore"):
            return _splitmix64(idx ^ (self.seed * _SM64_M2))

    def uniform(self, shape=()) -> np.ndarray:
        """i.i.d. uniforms in [0, 1), float64 (53 mantissa bits of the word)."""
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return u.reshape(shape) if shape else u[0]

    def normal(self, shape=(), dtype=F32) -> np.ndarray:
        """i.i.d. standard normals via the Box-Muller transform."""
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        u1 = 1.0 - (self._raw(half) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        u2 = (self._raw(half) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        out = z.astype(dtype)
        return out.reshape(shape) if shape else out[0]

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (argsort of a uniform draw)."""
        keys = self.uniform((n,))
        return np.argsort(keys, kind="stable")

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Uniform integers in [low, high)."""
        u = self.uniform(shape if shape else (1,))
        out = (low + np.floor(u * (high - low))).astype(np.int64)
        return out.reshape(shape) if shape else out[0]

