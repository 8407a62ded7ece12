"""Exact erasure analysis: readable sets and their transfer counts.

Each fused pair yields the XX and ZZ joint parities on success, one of
them on failure (chosen by the per-pair failure basis w_i: 1 recovers
XX, 0 recovers ZZ), and nothing if either photon is lost.  Over n pairs
that is one of 4^n availability states, state index s with bits 2i and
2i+1 set when pair i recovers ZZ and XX.  A logical parity is recovered
when some representative of its logical coset can be read out qubit by
qubit: X needs XX, Z needs ZZ, Y both.  A code's readable set for one
parity is a Python int of 4^n bits, bit s set when state s reads out a
representative; it is all the counts below need, so no representative
index is kept.

A pattern over n fused pairs with s successes, f failures and l losses
occurs with probability (1-pf)^s pf^f (eta^2)^(s+f) (1-eta^2)^l.  Read
in emission order, a readable set is a small automaton (the trellis of
the code), and its transfer counts (``transfer_counts``), the one
counting engine here, sum per-pair outcome weights over the patterns it
reads under all 2^n failure bases at once.  ``erasure_analysis`` picks
weights whose sums are the integer pattern counts per (s, f), which
keeps every identity (normalization, dual swaps) exact; numbers only
appear when a report is evaluated at concrete eta and pf.  The threshold
search picks weights whose sums are the exact numerators of the
coefficients in x = eta^2, so a basis scan stays exact until its final,
correctly rounded division.  The counts come out of one int of packed
signed coefficients, read back by ``signed_digits``, which the decoder
in ``fusion`` shares.  Nothing here imports numpy.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import NamedTuple

from .codes import GraphCode, packed_cosets
from .graphs import PROGENITOR_CAP

# _SPREAD[b] moves bit i of the byte b to bit 2i: b's binary digits read in base 4
_SPREAD = tuple(int(format(b, "b"), 4) for b in range(256))


class _SpecFields(NamedTuple):
    eta: float
    p_fail: float = 0.5
    w: tuple[int, ...] = ()


class FusionSpec(_SpecFields):
    """Physical fusion model: transmission, failure rate, failure bases."""

    __slots__ = ()

    def __new__(cls, eta: float, p_fail: float = 0.5, w: tuple[int, ...] = ()):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta out of range: {eta}")
        check_failures(p_fail, w)
        return tuple.__new__(cls, (eta, p_fail, w))


def check_failures(p_fail: float, w=()) -> None:
    """ValueError unless p_fail lies in [0, 1] and every failure-basis bit is 0 (ZZ) or 1 (XX), not a bool."""
    if not 0.0 <= p_fail <= 1.0:
        raise ValueError(f"p_fail out of range: {p_fail}")
    if any(b not in (0, 1) or isinstance(b, bool) for b in w):
        raise ValueError("failure bases must be 0 (ZZ) or 1 (XX)")


# -- readable sets -----------------------------------------------------


@lru_cache(maxsize=PROGENITOR_CAP)
def _clear_masks(n: int) -> tuple[int, ...]:
    """m_j, j < 2n: the 4^n-bit mask of the states whose bit j is clear."""
    size, masks = 1 << 2 * n, []
    for j in range(2 * n):
        m, width = (1 << (1 << j)) - 1, 2 << j
        while width < size:
            m |= m << width
            width <<= 1
        masks.append(m)
    return tuple(masks)


def readable_set(reps: list[int], n: int) -> int:
    """4^n-bit set of the states that read out some of ``reps`` (packed x | z << n).

    A representative is readable exactly on the states whose bits include
    its minimal state's: per qubit I none, Z the ZZ bit, X the XX bit and
    Y both.  Seeding every minimal state and moving each set bit up along
    every state bit j, ``r |= (r & m_j) << 2^j``, leaves that up-closure.
    """
    seeds = bytearray((4**n + 7) >> 3)
    for v in reps:
        s = _SPREAD[v >> n] | _SPREAD[v & ((1 << n) - 1)] << 1  # n <= 8: one byte of x and one of z
        seeds[s >> 3] |= 1 << (s & 7)
    r = int.from_bytes(seeds, "little")
    for j, m in enumerate(_clear_masks(n)):
        r |= (r & m) << (1 << j)
    return r


def transfer_counts(readable: int, n: int, weights) -> list[tuple[int, ...]]:
    """C[w][j]: the y^j coefficient of the weights summed over the patterns ``readable`` reads under basis w.

    ``weights`` holds three integer coefficient tuples in y, constant
    first: the weight of a pair's NONE, failure and BOTH outcome, whose
    product a pattern weighs.  Split from the top qubit down into one
    sub-block per availability digit, the set's distinct nonzero blocks
    at each cut are the states of an automaton: at most 2 for every code
    up to the size cap, as one emitter generates the code.  Each state
    carries one polynomial per basis suffix in one signed int at X = 2^B:
    the y^j coefficient of suffix slot u (bit i of w at bit n-1-i) at
    X^(u*m+j), m = n(longest tuple - 1) + 1.  Every |C| is at most S^n,
    S the weights' summed |coefficients|, so B = bit_length(S^n) + 2,
    rounded up to a power of two of at least 8, keeps them apart.
    """
    per = n * (max(map(len, weights)) - 1) + 1
    bound = sum(abs(c) for weight in weights for c in weight) ** n
    bits = max(8, 1 << (bound.bit_length() + 1).bit_length())
    w_none, w_fail, w_both = (sum(c << j * bits for j, c in enumerate(weight)) for weight in weights)
    states = {readable: 1}
    for k in range(n - 1, -1, -1):
        size = 4**k
        mask = (1 << size) - 1
        common, zz, xx = {}, {}, {}  # terms per next block: under either basis bit, under 0 only, under 1 only
        for block, v in states.items():
            none, fail_zz, fail_xx, success = (block >> d * size & mask for d in range(4))
            fail = v * w_fail
            for part, to, term in (
                (common, none, v * w_none),
                (common, success, v * w_both),
                (zz, fail_zz, fail),
                (xx, fail_xx, fail),
            ):
                if to:  # the empty block reads out nothing
                    part[to] = part.get(to, 0) + term
        shift = per * bits << n - 1 - k  # past the 2^(n-1-k) slots so far: bit k of w
        states = {
            to: common.get(to, 0) + zz.get(to, 0) + (common.get(to, 0) + xx.get(to, 0) << shift)
            for to in common.keys() | zz.keys() | xx.keys()
        }
    digits = signed_digits(states.get(1, 0), per << n, bits)
    slots = [0]
    for i in range(n):
        slots += [u + (1 << n - 1 - i) for u in slots]
    return [digits[u * per : (u + 1) * per] for u in slots]


def signed_digits(t: int, count: int, bits: int) -> tuple[int, ...]:
    """c_0..c_(count-1) of t = sum c_j 2^(j bits), each c_j in [-2^(bits-1), 2^(bits-1)), bits a multiple of 8."""
    width = bits // 8
    # bit bits-1 of every coefficient: adding it lifts each into [0, 2^bits), so that no borrow
    # crosses coefficients, and flipping it back leaves each one's two's complement in its own bits
    top = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = ((t + top) ^ top).to_bytes(count * width, "little")
    fmt = {1: "b", 2: "h", 4: "i", 8: "q"}.get(width)
    if fmt:
        return struct.unpack(f"<{count}{fmt}", raw)
    return tuple(int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width))


def basis_numerators(code: GraphCode, p_fail) -> tuple[list, list, int]:
    """(XX rows, ZZ rows, q^n): N[w][j], the x^j numerator over q^n, x = eta^2, of success under basis w.

    p_fail is read as a/q, through ``limit_denominator(2**30)`` where the
    exact q is larger.  In ``transfer_counts`` a pair weighs NONE q(1-x),
    the failure its basis bit recovers a x and BOTH (q-a) x, so every
    |N| is at most (3q)^n.  Python's int division rounds each N / q^n
    correctly, so those floats equal ``float(Fraction(N, q**n))``.
    A p_fail outside [0, 1], which that bound does not cover, raises ``ValueError``.
    """
    check_failures(p_fail)
    n = code.n_code
    a, q = p_fail.as_integer_ratio()  # exact, so a dyadic p_fail such as 1/2 loads no fractions module
    if q > 1 << 30:
        from fractions import Fraction

        a, q = Fraction(p_fail).limit_denominator(1 << 30).as_integer_ratio()
    reps = packed_cosets(code)[1]
    weights = ((q, -q), (0, a), (0, q - a))
    nx, nz = (transfer_counts(readable_set(reps[basis], n), n, weights) for basis in ("X", "Z"))
    return nx, nz, q**n


# -- erasure analysis --------------------------------------------------


class ErasureReport(NamedTuple):
    """One (code, failure basis) pair's count rows, indexed as in ``erasure_analysis``."""

    code: GraphCode
    spec: FusionSpec
    p_success_xx: tuple[int, ...]
    p_success_zz: tuple[int, ...]

    def terms(self, basis: str):
        """((s, f, l), count) of each nonzero entry of the parity's count row, in index order."""
        n = self.code.n_code
        for k, c in enumerate(self.p_success_xx if basis == "X" else self.p_success_zz):
            if c:
                s, f = divmod(k, n + 1)
                yield (s, f, n - s - f), c

    def success_probability(self, basis: str, eta: float | None = None) -> float:
        eta = self.spec.eta if eta is None else eta
        p_fail = self.spec.p_fail
        a = eta * eta
        b = 1.0 - a
        total = 0.0
        for (s, f, l), c in self.terms(basis):
            total += c * (1.0 - p_fail) ** s * p_fail**f * a ** (s + f) * b**l
        return total

    def erasure_rate(self, basis: str, eta: float | None = None) -> float:
        return 1.0 - self.success_probability(basis, eta)

    def to_json_dict(self, eta_grid=()) -> dict:
        spec = self.spec
        return {
            "code_id": self.code.code_id,
            "n_code": self.code.n_code,
            "w": list(spec.w),
            "p_fail": spec.p_fail,
            "p_success_xx_counts": {f"{s},{f},{l}": c for (s, f, l), c in self.terms("X")},
            "p_success_zz_counts": {f"{s},{f},{l}": c for (s, f, l), c in self.terms("Z")},
            "rates": [
                {
                    "eta": e,
                    "p_erase_xx": self.erasure_rate("X", e),
                    "p_erase_zz": self.erasure_rate("Z", e),
                }
                for e in eta_grid
            ],
        }


def erasure_analysis(code: GraphCode, spec: FusionSpec) -> ErasureReport:
    """Exact success counts of the two paired logical parities: row w = sum w_i 2^i of ``transfer_counts``.

    With weights NONE 1, failure y and BOTH y^(n+1), entry s(n+1)+f of a
    row counts the readable patterns with s successes and f failures.
    """
    n = code.n_code
    if len(spec.w) != n:
        raise ValueError(f"failure basis length {len(spec.w)} != {n} code qubits")
    reps = packed_cosets(code)[1]
    weights = ((1,), (0, 1), (0,) * (n + 1) + (1,))
    w = sum(b << i for i, b in enumerate(spec.w))
    xx, zz = (transfer_counts(readable_set(reps[basis], n), n, weights)[w] for basis in ("X", "Z"))
    return ErasureReport(code=code, spec=spec, p_success_xx=xx, p_success_zz=zz)
