"""Deterministic xoshiro256** generator for reproducible shuffles.

Split assignment and per-cluster sampling must reproduce bit-for-bit across
implementations, so they use this fixed, documented generator instead of a
platform RNG. The algorithm is xoshiro256** 1.0 (Blackman and Vigna) with the
four 64-bit state words derived from the integer seed, in [0, 2**64), via
splitmix64.

Bounded draws use plain modulo reduction (``next_u64() % n``); the resulting
bias is negligible for the list sizes involved and keeps the recipe trivial
to re-implement. Shuffles are backward Fisher-Yates: for i = len-1 .. 1,
swap element i with element ``below(i + 1)``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int):
    """Yield an endless splitmix64 stream starting from ``seed``."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** seeded through splitmix64."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:  # a wider seed would be masked into another's stream
            raise ValueError(f"seed {seed} is not in [0, 2**64)")
        stream = _splitmix64(seed)
        self._s = [next(stream) for _ in range(4)]

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def below(self, n: int) -> int:
        """Draw an integer in [0, n) by modulo reduction."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place backward Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, items: list, count: int) -> list:
        """First ``count`` elements of a shuffled copy of ``items``."""
        if count > len(items):
            raise ValueError("cannot sample more items than available")
        pool = list(items)
        self.shuffle(pool)
        return pool[:count]
