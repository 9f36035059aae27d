"""Deterministic random streams.

A splitmix-style 64-bit counter generator: output i of a stream seeded with s
is mix(s + (i+1)*GAMMA), so scalar draws and vectorized draws consume the same
sequence and every value is reproducible from (seed, consumption count) alone.

Streams for unrelated purposes are derived as seed XOR fnv1a64(label).  Adding
a new consumer with its own label never perturbs the draws seen by existing
ones, which is what makes "same seed, same result" survive refactors.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(label: str) -> int:
    """FNV-1a hash of a label, used to derive per-purpose stream seeds."""
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, vectorized over uint64; the multiplies wrap mod 2^64
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class Rng:
    """One deterministic stream.  Not thread-safe; derive per-purpose streams."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def derive(self, label: str) -> "Rng":
        """Independent stream for a named purpose, keyed off the base seed."""
        return Rng(self.seed ^ fnv1a64(label))

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return int(_mix(np.uint64(self._state)))

    def advance(self, n: int) -> None:
        """Move the stream by n draws, as if n were drawn; a negative n rewinds."""
        self._state = (self._state + n * _GAMMA) & _MASK

    def u64_array(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            states = np.uint64(self._state) + idx * np.uint64(_GAMMA)
        self.advance(n)
        return _mix(states)

    def uniform(self) -> float:
        """One float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape)

    def normal_array(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        m = (n + 1) // 2
        u = self.uniform_array((2 * m,))
        u1 = np.maximum(u[0::2], 2.0**-53)  # keep log() finite
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.empty(2 * m, dtype=np.float64)
        z[0::2] = r * np.cos(2.0 * math.pi * u2)
        z[1::2] = r * np.sin(2.0 * math.pi * u2)
        return z[:n].reshape(shape)

    def gauss(self) -> float:
        return float(self.normal_array((1,))[0])

    def randint(self, n: int) -> int:
        """Uniform int in [0, n) without modulo bias (rejection sampling)."""
        if n <= 0:
            raise ValueError(f"randint needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def choice(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order random."""
        if k > n:
            raise ValueError(f"cannot choose {k} distinct items from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
