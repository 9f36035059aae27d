"""Deterministic random streams.

A splitmix-style 64-bit counter generator: output i of a stream seeded with s
is mix(s + (i+1)*GAMMA), so scalar draws and vectorized draws consume the same
sequence and every value is reproducible from (seed, consumption count) alone.
A stack of E streams draws once: `u64_rows`, `uniform_rows` and `normal_rows`
give an [E, ...] array whose row e is bitwise what stream e alone would draw,
and a single Rng's array draws are the one-row case of the same code.

Streams for unrelated purposes are derived as seed XOR fnv1a64(label).  Adding
a new consumer with its own label never perturbs the draws seen by existing
ones, which is what makes "same seed, same result" survive refactors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# the multipliers of the splitmix64 finalizer
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_seed(seed: int, where: str = "seed") -> int:
    """`seed`, if it fits in 64 bits: an Rng keeps only the low 64, so seed 2^64 + 5 would draw seed 5's bytes."""
    if not 0 <= seed <= _MASK:
        raise ConfigurationError(f"{where} must fit in 64 bits, got {seed}")
    return seed


def fnv1a64(label: str) -> int:
    """FNV-1a hash of a label, used to derive per-purpose stream seeds."""
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, vectorized over uint64; the multiplies wrap mod 2^64.
    # Rng.next_u64 runs the same steps on a Python int, masking each product
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def u64_rows(rngs, n: int) -> np.ndarray:
    """[E, n] u64s from E streams: row e is the next n draws of rngs[e], which moves past them.

    Draw j of a stream is mix(state + j*GAMMA), so all E*n draws are one
    vectorized counter array; one Rng's draws are the one-row case.
    """
    states = np.array([r._state for r in rngs], dtype=np.uint64)
    step = n * _GAMMA
    for r in rngs:
        r._state = (r._state + step) & _MASK
    # idx stays referenced until _mix returns: freeing it before changed how the
    # process heap grows, by about 8 MiB of peak RSS over repeated meta-tests
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = states[:, None] + idx * np.uint64(_GAMMA)
    return _mix(z)


def uniform_rows(rngs, shape) -> np.ndarray:
    """[E, *shape] floats in [0, 1) with 53 random bits; row e is rngs[e].uniform_array(shape)."""
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    u = (u64_rows(rngs, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return u.reshape(len(rngs), *shape)


def normal_rows(rngs, shape) -> np.ndarray:
    """[E, *shape] standard normals, Box-Muller on consecutive uniform pairs; row e is rngs[e].normal_array(shape)."""
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    m = (n + 1) // 2
    u = uniform_rows(rngs, (2 * m,))
    u1 = np.maximum(u[:, 0::2], 2.0**-53)  # keep log() finite
    u2 = u[:, 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty((len(rngs), 2 * m), dtype=np.float64)
    z[:, 0::2] = r * np.cos(2.0 * math.pi * u2)
    z[:, 1::2] = r * np.sin(2.0 * math.pi * u2)
    return z[:, :n].reshape(len(rngs), *shape)


def derive_rows(rngs, label: str) -> list["Rng"]:
    """rngs[e].derive(label) for every e, with the label hashed once."""
    h = fnv1a64(label)
    return [Rng(r.seed ^ h) for r in rngs]


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
        # _mix on a Python int: about 7x faster than on a numpy scalar, same bits
        self._state = z = (self._state + _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def u64_array(self, n: int) -> np.ndarray:
        return u64_rows((self,), n)[0]

    def uniform(self) -> float:
        """One float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_array(self, shape) -> np.ndarray:
        return uniform_rows((self,), shape)[0]

    def normal_array(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        return normal_rows((self,), shape)[0]

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
