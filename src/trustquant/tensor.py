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
# Box-Muller pairs per chunk of `Rng.normal`: its few 8-byte buffers of 2^14
# entries (128 KB each) stay in a 2 MB L2
_PAIRS = 1 << 14


def _splitmix64(z: np.ndarray) -> None:
    """Replace each uint64 in z with its splitmix64 output."""
    t = np.empty_like(z)
    z *= _SM64_GAMMA  # counter 0 maps through one gamma step
    z += _SM64_GAMMA
    for shift, mult in ((30, _SM64_M1), (27, _SM64_M2)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=t)


class Rng:
    """Counter-based stream: splitmix64 of (seed, counter), Box-Muller normals.

    The transform is fixed, so identical seeds give identical streams on all
    platforms. Each draw advances the counter by the number of raw 64-bit
    words consumed.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = np.uint64(0)

    def _unit(self, start: int, n: int) -> np.ndarray:
        """float64 in [0, 1) from the 53 high bits of the words at counters
        start .. start + n - 1; the counter does not move."""
        z = np.arange(start, start + n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z ^= self.seed * _SM64_M2
        _splitmix64(z)
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0 ** -53
        return u

    def _advance(self, n: int) -> int:
        """The counter before a draw of n words, which moves it past them."""
        start = int(self.counter)
        self.counter = np.uint64(start + n)
        return start

    def uniform(self, shape=()) -> np.ndarray:
        """i.i.d. uniforms in [0, 1), float64 (53 mantissa bits of the word)."""
        n = int(np.prod(shape)) if shape else 1
        u = self._unit(self._advance(n), n)
        return u.reshape(shape) if shape else u[0]

    def normal(self, shape=(), dtype=F32) -> np.ndarray:
        """i.i.d. standard normals via the Box-Muller transform.

        Pair j takes words j and half + j of the draw (half = ceil(n/2)) and
        gives output j = r cos(theta) and, if it exists, half + j = r sin(theta),
        rounded once from float64 into dtype. Pairs run in chunks of _PAIRS.
        """
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        start = self._advance(2 * half)
        out = np.empty(shape, dtype=dtype)
        flat = out.reshape(-1)
        for a in range(0, half, _PAIRS):
            b = min(a + _PAIRS, half)
            r = self._unit(start + a, b - a)
            np.subtract(1.0, r, out=r)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta = self._unit(start + half + a, b - a)
            theta *= 2.0 * np.pi
            np.multiply(r, np.cos(theta), out=flat[a:b])
            m = min(b, n - half) - a  # the last pair of an odd n has no sine
            np.multiply(r[:m], np.sin(theta[:m], out=theta[:m]), out=flat[half + a:half + a + m])
        return out if shape else out[()]

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (argsort of a uniform draw)."""
        keys = self.uniform((n,))
        return np.argsort(keys, kind="stable")

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Uniform integers in [low, high)."""
        u = self.uniform(shape if shape else (1,))
        out = (low + np.floor(u * (high - low))).astype(np.int64)
        return out.reshape(shape) if shape else out[0]

