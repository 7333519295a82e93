"""Seeded random number generation.

The generator is splitmix64: 64-bit state advanced by the golden-gamma
constant, output mixed by two xor-multiply rounds. It is tiny, fully
specified here, and gives bit-identical streams on every platform, which is
what makes generated traces reproducible across runs and machines.

Uniform doubles take the top 53 bits of each output word, giving values in
[0, 1). Batch work derives one independent sub-seed per trace index with
:func:`derive_subseed` so results do not depend on processing order.

The stream is counter-based: draw ``k`` (from 0) of a stream seeded with
``s`` is ``mix64(s + (k + 1) * golden)``. :func:`uniforms` uses that to
compute any run of draws of any number of streams at once with numpy
``uint64`` arithmetic, which wraps modulo 2**64 exactly as the masked
integer code does.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)

RngSeed = int


def mix64(x: int) -> int:
    """splitmix64 output mix of one 64-bit word."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """splitmix64 stream. Any integer seed is valid; it is masked to 64 bits."""

    __slots__ = ("state",)

    def __init__(self, seed: RngSeed):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return mix64(self.state)

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2_53


def derive_subseed(seed: RngSeed, index: int) -> RngSeed:
    """Deterministic per-index sub-seed: mix64(seed + (index + 1) * golden)."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)


def uniforms(seeds: np.ndarray | np.uint64, start: int, n: int) -> np.ndarray:
    """Draws ``start .. start + n - 1`` of ``SplitMix64(s).next_float()`` for every ``s`` in ``seeds``.

    ``seeds`` holds 64-bit stream seeds; the result has shape
    ``(n, *seeds.shape)``, so row ``k`` holds draw ``start + k`` of each.
    """
    x = np.add.outer(np.arange(start + 1, start + n + 1, dtype=np.uint64) * _U64_GOLDEN, seeds)
    x ^= x >> 30
    x *= _U64_MIX1
    x ^= x >> 27
    x *= _U64_MIX2
    x ^= x >> 31
    x >>= 11
    return x * _INV_2_53
