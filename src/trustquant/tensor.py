"""Dense tensor primitives, deterministic RNG, and tensor serialization.

Tensors are contiguous row-major numpy arrays in float32 (training math) or
float64 (oracle / gradient-check paths). Transposition is always explicit.
All reductions inherit numpy's pairwise summation, a deterministic
fixed-fan-in tree, so results are reproducible for a fixed operand order.
"""

from __future__ import annotations

import struct

import numpy as np

F32 = np.float32
F64 = np.float64

_MAGIC = b"QSTT"
_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def require_float(x: np.ndarray, what: str) -> None:
    """Raise TypeError naming the dtype unless `x` is floating-point."""
    if not np.issubdtype(x.dtype, np.floating):
        raise TypeError(f"{what} needs floating-point input, got dtype {x.dtype}")


def rms(x: np.ndarray, axis: int = -1, group_size: int | None = None) -> np.ndarray:
    """Per-group root mean square along `axis`.

    With group_size=None the whole axis is one group. group_size must divide
    the axis extent. Zero groups yield scale 0 (handled downstream).

    Returned shape: x.shape with `axis` replaced by the number of groups.
    """
    x = np.asarray(x)
    axis = axis % x.ndim
    extent = x.shape[axis]
    if group_size is None:
        group_size = extent
    if extent % group_size != 0:
        raise ValueError(f"group size {group_size} does not divide axis extent {extent}")
    moved = np.moveaxis(x, axis, -1)
    grouped = moved.reshape(moved.shape[:-1] + (extent // group_size, group_size))
    out = np.sqrt(np.mean(np.square(grouped), axis=-1))
    return np.moveaxis(out, -1, axis)


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


# --- serialization ----------------------------------------------------------

def save_tensor(f, x: np.ndarray) -> None:
    """Write one tensor record: magic, version u32, rank u32, extents u64[],
    dtype tag u8, raw little-endian payload."""
    x = np.ascontiguousarray(x)
    if x.dtype not in _DTYPE_TAGS:
        raise ValueError(f"unsupported dtype {x.dtype}")
    f.write(_MAGIC)
    f.write(struct.pack("<II", _VERSION, x.ndim))
    f.write(struct.pack(f"<{x.ndim}Q", *x.shape))
    f.write(struct.pack("<B", _DTYPE_TAGS[x.dtype]))
    f.write(x.astype(x.dtype.newbyteorder("<")).tobytes())


def read_exact(f, n: int, what: str, record: str = "tensor record") -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"truncated {record}: {what} needs {n} bytes, got {len(data)}")
    return data


def load_tensor(f) -> np.ndarray:
    """Read one record written by save_tensor; ValueError on a short read
    or an unknown dtype tag."""
    magic = read_exact(f, 4, "magic")
    if magic != _MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}")
    version, rank = struct.unpack("<II", read_exact(f, 8, "version and rank"))
    if version != _VERSION:
        raise ValueError(f"unsupported tensor version {version}")
    shape = struct.unpack(f"<{rank}Q", read_exact(f, 8 * rank, "shape"))
    (tag,) = struct.unpack("<B", read_exact(f, 1, "dtype tag"))
    if tag not in _TAG_DTYPES:
        raise ValueError(f"unknown tensor dtype tag {tag}")
    dtype = _TAG_DTYPES[tag].newbyteorder("<")
    count = int(np.prod(shape)) if rank else 1
    data = np.frombuffer(read_exact(f, count * dtype.itemsize, "payload"), dtype=dtype)
    return data.reshape(shape).astype(_TAG_DTYPES[tag])
