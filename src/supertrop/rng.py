"""Deterministic 64-bit PRNG for the trial harness.

The generator is xorshift64* with the usual (12, 25, 27) shift triple and
the 0x2545F4914F6CDD1D output multiplier, all arithmetic modulo 2**64.
Trial i of a run seeds its own generator with

    trial_seed = master_seed XOR (i * 0x9E3779B97F4A7C15)  (mod 2**64)

so trials are independent of execution order and a single trial can be
replayed from its derived seed alone.  A zero state (xorshift's one fixed
point) is remapped to the mixing constant.  Integer draws use rejection
sampling, so every stream is identical across platforms and Python builds.
"""

from __future__ import annotations

__all__ = ["MASK64", "GOLDEN64", "Xorshift64Star", "derive_trial_seed", "rejection_limit"]

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15
_MULT = 0x2545F4914F6CDD1D


def rejection_limit(bound: int) -> int:
    """The rejection limit for uniform draws from ``range(bound)``,
    ``1 <= bound <= 2**64``: a 64-bit word ``u`` below it gives ``u % bound``,
    unbiased, and a word at or above it is drawn again."""
    if not 1 <= bound <= MASK64 + 1:
        raise ValueError(f"bound must be in [1, 2**64], got {bound}")
    return (MASK64 + 1) - (MASK64 + 1) % bound


class Xorshift64Star:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64 or GOLDEN64

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & MASK64

    def next_below(self, bound: int) -> int:
        """Uniform draw from ``range(bound)``, ``bound <= 2**64``, unbiased via rejection."""
        limit = rejection_limit(bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_below(hi - lo + 1)


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    return (master_seed ^ (trial_index * GOLDEN64)) & MASK64
