"""Deterministic random streams for reproducible runs.

The generator is SplitMix64 (Steele, Lea and Flood, 2014): 64 bits of
state advanced by the golden-ratio increment and finalized with two
xorshift-multiply rounds.  It is small enough to re-implement verbatim
in any language, which is the point: a model seed must reproduce the
same sample stream everywhere, independent of host-library generators.
The algorithm and the uniform-draw convention are pinned in
docs/determinism.md.

Uniform draws map one 64-bit output onto the closed interval [lo, hi]:
``lo + (hi - lo) * (z / (2**64 - 1))``, so both endpoints are reachable
and ``uniform(x, x) == x``.
"""

from __future__ import annotations

import functools

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


@functools.cache  # each label hashed once: a sweep derives its seeds from the same two
def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = (h ^ byte) * _FNV_PRIME & _MASK64
    return h


class SplitMix64:
    """Sequential 64-bit generator; ``state`` is its single integer of state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN_GAMMA) & _MASK64
        return _mix64(self.state)

    def uniform(self, lo: float, hi: float) -> float:
        if hi < lo:
            raise ValueError(f"uniform bounds out of order: [{lo}, {hi}]")
        return lo + (hi - lo) * (self.next_u64() / _MASK64)


def derive_seed(master: int, *parts: int | str) -> int:
    """Mix labeled components into a master seed.

    Sub-streams (per-device sources, per-round sweep draws) are seeded by
    name rather than by draw order, so concurrent or reordered evaluation
    cannot change any stream.
    """
    state = _mix64(master & _MASK64)
    for part in parts:
        token = _fnv1a(part) if isinstance(part, str) else part & _MASK64
        state = _mix64(state ^ token)
    return state
