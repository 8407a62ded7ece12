"""Exact probability polynomials for fusion outcome sums.

A pattern over n fused pairs with s successes, f failures and l losses
occurs with probability (1-pf)^s pf^f (eta^2)^(s+f) (1-eta^2)^l.  Sums
of patterns are stored as integer counts keyed by (s, f, l), which keeps
every identity (normalization, dual swaps) exact; numbers only appear
when a polynomial is evaluated at concrete eta and pf.

Bernstein numerator rows (one per failure basis, see
``CodeFusionTable.bernstein``) turn into coefficients in x = eta^2
through one triangular integer matrix, so a whole basis scan stays
exact until its final, correctly rounded division.
"""

from __future__ import annotations

from math import comb

import numpy as np


class LossPolynomial:
    """Integer-counted sum of fusion-pattern probability monomials."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: dict[tuple[int, int, int], int] | None = None):
        self.n = n
        self.counts = dict(counts or {})

    @classmethod
    def from_counts(cls, n: int, row) -> "LossPolynomial":
        """From a count row indexed by s*(n+1)+f, as ``erasure_analysis`` bincounts it."""
        poly = cls(n)
        for k, c in enumerate(row):
            if c:
                s, f = divmod(k, n + 1)
                poly.add_pattern(s, f, n - s - f, int(c))
        return poly

    def add_pattern(self, s: int, f: int, l: int, count: int = 1) -> None:
        key = (s, f, l)
        self.counts[key] = self.counts.get(key, 0) + count
        if self.counts[key] == 0:
            del self.counts[key]

    def eval(self, eta: float, p_fail: float) -> float:
        """Numeric value at transmission ``eta`` and failure rate ``p_fail``."""
        a = eta * eta
        b = 1.0 - a
        total = 0.0
        for (s, f, l), c in sorted(self.counts.items()):
            total += c * (1.0 - p_fail) ** s * p_fail**f * a ** (s + f) * b**l
        return total


def eta2_numerators(b: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Exact eta^2-power coefficients of Bernstein rows: numerators N over q^n.

    ``b[..., k]`` is the numerator of the x^k (1-x)^(n-k) term over q^k,
    as ``CodeFusionTable.bernstein`` returns it with its q.  Then
    N = b @ M with M[k, k+i] = q^(n-k) C(n-k, i) (-1)^i, constant term
    first, in b's dtype, whose magnitude rule keeps every N exact.
    """
    n = b.shape[-1] - 1
    m = np.zeros((n + 1, n + 1), dtype=b.dtype)
    for k in range(n + 1):
        for i in range(n + 1 - k):
            m[k, k + i] = q ** (n - k) * comb(n - k, i) * (-1) ** i
    return b @ m, q**n


def eta2_float_coeffs(b: np.ndarray, q: int) -> np.ndarray:
    """``eta2_numerators`` as floats, each the correctly rounded N / q^n.

    Both routes round once: int64 numerators and q^n are exact doubles,
    so IEEE division rounds correctly, and Python int division does too.
    The floats therefore equal ``float(Fraction(N, q**n))``.
    """
    num, den = eta2_numerators(b, q)
    if num.dtype == object:
        return (num / den).astype(np.float64)
    return num / float(den)
