"""Exact probability polynomials for fusion outcome sums.

A pattern over n fused pairs with s successes, f failures and l losses
occurs with probability (1-pf)^s pf^f (eta^2)^(s+f) (1-eta^2)^l.  Sums
of patterns are stored as integer counts keyed by (s, f, l), which keeps
every identity (normalization, dual swaps) exact; numbers only appear
when a polynomial is evaluated at concrete eta and pf.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


class LossPolynomial:
    """Integer-counted sum of fusion-pattern probability monomials."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: dict[tuple[int, int, int], int] | None = None):
        self.n = n
        self.counts = dict(counts or {})

    @staticmethod
    def zero(n: int) -> "LossPolynomial":
        return LossPolynomial(n)

    def add_pattern(self, s: int, f: int, l: int, count: int = 1) -> None:
        key = (s, f, l)
        self.counts[key] = self.counts.get(key, 0) + count
        if self.counts[key] == 0:
            del self.counts[key]

    def __add__(self, other: "LossPolynomial") -> "LossPolynomial":
        if self.n != other.n:
            raise ValueError("mixing polynomials of different pair counts")
        out = LossPolynomial(self.n, self.counts)
        for key, c in other.counts.items():
            out.counts[key] = out.counts.get(key, 0) + c
        return out

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

    def eta2_coeffs(self, p_fail: Fraction) -> tuple[Fraction, ...]:
        """Exact coefficients in x = eta^2, constant term first.

        Expands (1-x)^l binomially, so two polynomials are identical as
        functions of eta iff these tuples match.
        """
        coeffs = [Fraction(0)] * (self.n + 1)
        for (s, f, l), c in self.counts.items():
            base = c * (1 - p_fail) ** s * p_fail**f
            for j in range(l + 1):
                coeffs[s + f + j] += base * comb(l, j) * (-1) ** j
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def is_normalized(self) -> bool:
        """True iff this is the sum over all 3^n patterns (so identically 1)."""
        expect = {}
        for s in range(self.n + 1):
            for f in range(self.n + 1 - s):
                l = self.n - s - f
                expect[(s, f, l)] = factorial(self.n) // (factorial(s) * factorial(f) * factorial(l))
        return self.counts == expect


def eval_eta2_coeffs(coeffs, eta: float) -> float:
    """Horner evaluation of eta^2-power coefficients at transmission eta."""
    x = eta * eta
    total = 0.0
    for c in reversed(coeffs):
        total = total * x + float(c)
    return total
