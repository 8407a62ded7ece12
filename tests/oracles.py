"""Independent brute-force oracles used to pin expected values.

The state oracles are built from raw 2x2 matrices and numpy kron
products, on purpose sharing no code with the package's bit-packed
algebra, so the two can check each other.  The erasure oracles redo the
loss-threshold scan one failure basis at a time, in exact ``Fraction``
arithmetic and scalar floats; they share only the availability table.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import comb

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def pauli_matrix(letters: str, sign: int = 1) -> np.ndarray:
    """Dense matrix for a Pauli string; letter 0 acts on qubit 0.

    Qubit i is the tensor factor with stride 2^i, so qubit 0 is the
    RIGHTMOST kron factor.
    """
    out = np.array([[1.0]], dtype=complex)
    for ch in letters:
        out = np.kron(MATS[ch], out)
    return sign * out


def string_and_sign(op) -> tuple[str, int]:
    """Letters and sign of a package PauliOperator, via its public API."""
    text = op.to_string()
    assert text[0] in "+-", f"imaginary phase leaked into {text}"
    return text[1:], 1 if text[0] == "+" else -1


def op_matrix(op) -> np.ndarray:
    letters, sign = string_and_sign(op)
    return pauli_matrix(letters, sign)


def identify_pauli(mat: np.ndarray, n: int):
    """Find (letters, sign) with sign in {1,-1} matching the matrix, else None."""
    for letters in itertools.product("IXYZ", repeat=n):
        cand = pauli_matrix("".join(letters))
        for sign in (1, -1):
            if np.allclose(mat, sign * cand, atol=1e-12):
                return "".join(letters), sign
    return None


def dense_graph_state(n: int, edges) -> np.ndarray:
    """|G> built with explicit CZ matrices."""
    state = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=complex)
    idx = np.arange(1 << n)
    for u, v in edges:
        mask = ((idx >> u) & 1) & ((idx >> v) & 1)
        state = state.copy()
        state[mask == 1] *= -1.0
    return state


def project(state: np.ndarray, mat: np.ndarray, outcome: int) -> np.ndarray:
    dim = state.size
    return 0.5 * (state + outcome * (mat @ state.reshape(dim, 1)).ravel())


# -- erasure coefficients and thresholds, one failure basis at a time ----


def basis_counts(table, basis: str, w_mask: int) -> dict[tuple[int, int, int], int]:
    """{(s, f, l): count} of the table states consistent with one failure
    basis that recover the paired ``basis`` parity (None: every one)."""
    n = table.n
    select = ((table.fail_xx_mask & ~w_mask) == 0) & ((table.fail_zz_mask & w_mask) == 0)
    if basis is not None:
        select &= table.rep_index[basis] >= 0
    sf = np.stack([table.n_success[select], table.n_fail[select]], axis=1).astype(np.int64)
    pairs, counts = np.unique(sf, axis=0, return_counts=True)
    return {(int(s), int(f), n - int(s) - int(f)): int(c) for (s, f), c in zip(pairs, counts)}


def eta2_coeffs(counts: dict, n: int, p_fail: Fraction) -> tuple[Fraction, ...]:
    """Exact coefficients in x = eta^2, constant term first, by binomial
    expansion of (1-x)^l for every (s, f, l) count."""
    coeffs = [Fraction(0)] * (n + 1)
    for (s, f, l), c in counts.items():
        base = c * (1 - p_fail) ** s * p_fail**f
        for j in range(l + 1):
            coeffs[s + f + j] += base * comb(l, j) * (-1) ** j
    return tuple(coeffs)


def interp_table(table, x: float) -> float:
    """Piecewise-linear lookup with flat extrapolation, one scalar at a time."""
    xs = [row[0] for row in table]
    if x <= xs[0]:
        return table[0][1]
    if x >= xs[-1]:
        return table[-1][1]
    j = bisect_left(xs, x)
    (x0, y0), (x1, y1) = table[j - 1], table[j]
    t = (x - x0) / (x1 - x0)
    return y0 * (1 - t) + y1 * t


def loss_threshold(table, bias, p_fail: float = 0.5) -> tuple[float, int]:
    """(gamma*, w*) by scalar bisection of every failure basis in turn."""
    n, pf = table.n, Fraction(p_fail).limit_denominator(1 << 30)
    best = (-1.0, 0)
    for w in range(1 << n):
        cx, cz = ([float(c) for c in eta2_coeffs(basis_counts(table, b, w), n, pf)] for b in "XZ")

        def feasible(gamma):
            eta = 1.0 - gamma
            x, sx, sz = eta * eta, 0.0, 0.0
            for a, b in zip(reversed(cx), reversed(cz)):
                sx, sz = sx * x + a, sz * x + b
            p_xx, p_zz = 1.0 - sx, 1.0 - sz
            if bias.mode.value == "randomized":
                return 0.5 * (p_xx + p_zz) <= bias.p_tilde_randomized
            hi = max(p_xx, p_zz)
            return hi <= interp_table(bias.p_tilde_biased, min(p_xx, p_zz) / hi if hi else 1.0)

        lo, hi = 0.0, 1.0 if feasible(0.0) else 0.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
        if lo > best[0] + 1e-12:
            best = (lo, w)
    return best
