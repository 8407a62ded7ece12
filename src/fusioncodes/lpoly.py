"""Exact probability polynomials for fusion outcome sums.

A pattern over n fused pairs with s successes, f failures and l losses
occurs with probability (1-pf)^s pf^f (eta^2)^(s+f) (1-eta^2)^l.  Sums
of patterns are stored as integer counts keyed by (s, f, l), which keeps
every identity (normalization, dual swaps) exact; numbers only appear
when a polynomial is evaluated at concrete eta and pf.

Count rows indexed by s*(n+1)+f (one row per failure basis) turn into
coefficients in x = eta^2 through one integer matrix product, so a whole
basis scan stays exact until its final, correctly rounded division.
"""

from __future__ import annotations

from fractions import Fraction
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
        """From a count row indexed by s*(n+1)+f, as ``eta2_numerators`` takes it."""
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

    def __eq__(self, other) -> bool:
        return isinstance(other, LossPolynomial) and self.n == other.n and self.counts == other.counts

    def __repr__(self):
        terms = ", ".join(f"{c}*S^{s}F^{f}L^{l}" for (s, f, l), c in sorted(self.counts.items()))
        return f"LossPolynomial(n={self.n}, {terms or '0'})"

    def eval(self, eta: float, p_fail: float) -> float:
        """Numeric value at transmission ``eta`` and failure rate ``p_fail``."""
        a = eta * eta
        b = 1.0 - a
        total = 0.0
        for (s, f, l), c in sorted(self.counts.items()):
            total += c * (1.0 - p_fail) ** s * p_fail**f * a ** (s + f) * b**l
        return total


def eta2_numerators(counts: np.ndarray, n: int, p_fail) -> tuple[np.ndarray, int]:
    """Exact eta^2-power coefficients of count rows: numerators N over q^n.

    ``counts[..., s*(n+1)+f]`` counts patterns with s successes and f
    failures.  ``p_fail`` is read as p/q (``limit_denominator(2**30)``);
    then N = counts @ M with M[(s, f), j] = (q-p)^s p^f q^l C(l, i) (-1)^i,
    l = n-s-f, i = j-s-f, constant term first.  As no count exceeds the
    multinomial n!/(s!f!l!), every |N| is at most (|q-p| + |p| + 2q)^n,
    which is (3q)^n for p_fail in [0, 1]: below 2^53 the product runs in
    int64 (and every N is an exact double), otherwise on Python ints.
    """
    pf = Fraction(p_fail).limit_denominator(1 << 30)
    p, q = pf.numerator, pf.denominator
    dtype = np.int64 if (abs(q - p) + abs(p) + 2 * q) ** n < 1 << 53 else object
    m = np.zeros(((n + 1) ** 2, n + 1), dtype=dtype)
    for s in range(n + 1):
        for f in range(n + 1 - s):
            l = n - s - f
            base = (q - p) ** s * p**f * q**l
            for i in range(l + 1):
                m[s * (n + 1) + f, s + f + i] = base * comb(l, i) * (-1) ** i
    return counts.astype(dtype) @ m, q**n


def eta2_float_coeffs(counts: np.ndarray, n: int, p_fail) -> np.ndarray:
    """``eta2_numerators`` as floats, each the correctly rounded N / q^n.

    Both routes round once: int64 numerators and q^n are exact doubles,
    so IEEE division rounds correctly, and Python int division does too.
    The floats therefore equal ``float(Fraction(N, q**n))``.
    """
    num, den = eta2_numerators(counts, n, p_fail)
    if num.dtype == object:
        return (num / den).astype(np.float64)
    return num / float(den)
