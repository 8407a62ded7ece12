"""Exact bit-packed state vector for real, flat states.

Every state the verifier reaches starts as |+>^n and then sees only CZ
gates and X projections postselected on +1, so all of its amplitudes
are 0 or +/-a for one a > 0.  Such a state is two ints of 2^n bits:
``support`` marks the basis indices with a nonzero amplitude and
``negative`` those whose amplitude is -a; a = 1/sqrt(|support|).
Wire q has stride 2^q (little-endian): basis index b has wire q in
state (b >> q) & 1.  Every operation is a few big-int shifts and masks,
with no floating point and no numpy.
"""

from __future__ import annotations

import math

from .pauli import BranchImpossible, VerificationError

MAX_WIRES = 24  # 2^24-bit ints, 2 MB each


class FlatState:
    """A real flat state on ``n`` wires, all in |+> at the start."""

    def __init__(self, n: int):
        if n > MAX_WIRES:
            raise VerificationError(f"state-vector verification limited to {MAX_WIRES} wires")
        self.n = n
        self.full = (1 << (1 << n)) - 1
        self.support = self.full
        self.negative = 0
        self._high: dict[int, int] = {}

    @classmethod
    def graph_state(cls, n: int, edges) -> "FlatState":
        state = cls(n)
        for u, v in edges:
            state.cz(u, v)
        return state

    def high(self, q: int) -> int:
        """Bitmask of the basis indices with wire q set.

        The period-2^(q+1) block is doubled up to 2^n bits: a linear
        number of bit operations, where dividing (2^(2^n) - 1) by the
        block's period would be quadratic.
        """
        mask = self._high.get(q)
        if mask is None:
            s = 1 << q
            mask, length = ((1 << s) - 1) << s, 2 * s
            while length < 1 << self.n:
                mask |= mask << length
                length *= 2
            self._high[q] = mask
        return mask

    def cz(self, a: int, b: int) -> None:
        self.negative ^= self.high(a) & self.high(b) & self.support

    def measure_x(self, q: int) -> None:
        """Project wire q onto X = +1, keeping the state flat.

        Each index with wire q clear is paired with its partner across q.
        A pair with both amplitudes present keeps them when they are equal
        and cancels otherwise; a lone amplitude spreads over its pair at
        half height.  A result with both kept pairs and spread lone
        amplitudes is not flat.
        """
        d = 1 << q
        high = self.high(q)
        low = self.full ^ high
        s0, s1 = self.support & low, (self.support & high) >> d
        n0, n1 = self.negative & low, (self.negative & high) >> d
        both, lone = s0 & s1, s0 ^ s1
        kept = both & ~(n0 ^ n1)
        if kept and lone:
            raise VerificationError(f"X projection of wire {q} leaves a state that is not flat")
        pairs = kept | lone
        if not pairs:
            raise BranchImpossible(f"forced +1 outcome on wire {q} has zero probability")
        neg_low = ((n0 & s0) | (n1 & ~s0)) & pairs
        self.support = pairs | pairs << d
        self.negative = neg_low | neg_low << d

    def reinit(self, q: int) -> None:
        """No-op: the only measurements are +1 X projections, which leave |+>."""

    def overlap(self, other: "FlatState") -> float:
        """|<self|other>| of the two normalized states."""
        common = self.support & other.support
        differ = (self.negative ^ other.negative) & common
        inner = common.bit_count() - 2 * differ.bit_count()
        return abs(inner) / math.sqrt(self.support.bit_count() * other.support.bit_count())

    def equals_up_to_phase(self, other: "FlatState") -> bool:
        return self.support == other.support and (self.negative ^ other.negative) in (0, self.support)

    def mismatch(self, want: "FlatState") -> str | None:
        """Why this state is not ``want`` up to a global phase, or None."""
        if self.equals_up_to_phase(want):
            return None
        return f"compiled state deviates from target (overlap {self.overlap(want):.6f})"
