"""SplitMix64: the seeded generator used everywhere randomness is needed.

SplitMix64 (Steele, Lea & Flood, 2014) is a published 64-bit generator with
a one-line update, chosen so that seeded runs reproduce bit-for-bit on any
platform or language. State update per draw:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output = z XOR (z >> 31)

Bounded integers use the modulo reduction (bias < 2^-50 for our ranges);
floats take the top 53 bits.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"randbelow needs n > 0, got {n}")
        return self.next_u64() % n

    def uniform(self) -> float:
        """Float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
