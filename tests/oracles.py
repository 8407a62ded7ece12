"""Independent brute-force oracles used to pin expected values.

The state oracles are built from raw 2x2 matrices and numpy kron
products, on purpose sharing no code with the package's bit-packed
algebra, so the two can check each other.  The erasure oracles redo the
loss-threshold scan one failure basis at a time, in exact ``Fraction``
arithmetic and scalar floats; they share only the availability table.
The pattern oracles list outcomes object by object, and the decoder
oracles redo the region one grid point and one epsilon at a time with
the block-loop Walsh transform.  The sequence oracles find a graph's
generation sequence by keying every LEAF/PATH_EDGE string of its size,
and ``apply_generation_op`` grows a progenitor one letter at a time.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from fusioncodes.fusion import AVAIL_BOTH, AVAIL_NONE, ErrorAnalyzer, FusionSpec, _flip_bias, fusion_table
from fusioncodes.graphs import (
    GenerationOp,
    GraphState,
    _rooted_tree_key,
    build_progenitor,
    canonical_key,
    enumerate_progenitor_records,
)
from fusioncodes.lpoly import LossPolynomial
from fusioncodes.thresholds import BISECTION_TOL, _basis_coeffs, _erasure_rates, randomized_bias_rate
from fusioncodes.thresholds import loss_threshold as package_loss_threshold

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


# -- object-level measurement patterns -----------------------------------


class Outcome(Enum):
    LOSS = "loss"
    FAIL = "fail"
    SUCCESS = "success"


@dataclass(frozen=True)
class MeasurementPattern:
    """Per-pair outcomes with their occurrence-probability monomial."""

    outcomes: tuple[Outcome, ...]
    probability: LossPolynomial


def pattern_probability(outcomes, spec: FusionSpec) -> LossPolynomial:
    """Occurrence probability of one SUCCESS/FAIL/LOSS assignment."""
    outs = tuple(outcomes)
    s = sum(1 for o in outs if o is Outcome.SUCCESS)
    f = sum(1 for o in outs if o is Outcome.FAIL)
    poly = LossPolynomial(len(outs))
    poly.add_pattern(s, f, len(outs) - s - f)
    return poly


def availability_masks(outcomes, w_bits) -> tuple[int, int]:
    """(XX-available, ZZ-available) bit masks for a pattern under w."""
    ax = az = 0
    for i, o in enumerate(outcomes):
        if o is Outcome.SUCCESS:
            ax |= 1 << i
            az |= 1 << i
        elif o is Outcome.FAIL:
            if w_bits[i]:
                ax |= 1 << i
            else:
                az |= 1 << i
    return ax, az


def recoverable(logical_pair, outcomes, w_bits) -> bool:
    """Can the paired parity of this logical representative be read out?

    Per qubit in the support: X needs the XX parity, Z needs ZZ, Y needs
    both; lost pairs provide nothing.
    """
    ax, az = availability_masks(outcomes, w_bits)
    return (logical_pair.x_bits & ~ax) == 0 and (logical_pair.z_bits & ~az) == 0


def pattern_outcomes(table, avail_idx: int) -> tuple[Outcome, ...]:
    """Per-pair outcomes of one availability-table state."""
    digits = [(avail_idx >> (2 * i)) & 3 for i in range(table.n)]
    return tuple(
        Outcome.SUCCESS if d == AVAIL_BOTH else Outcome.LOSS if d == AVAIL_NONE else Outcome.FAIL for d in digits
    )


def measurement_patterns(code, spec: FusionSpec, basis: str):
    """The recovering patterns M_X or M_Z with representatives, in index order."""
    table = fusion_table(code)
    select = table.consistent(spec.w_mask) & (table.rep_index[basis] >= 0)
    out = []
    for avail_idx in np.nonzero(select)[0]:
        outcomes = pattern_outcomes(table, int(avail_idx))
        rep = table.reps[basis][int(table.rep_index[basis][avail_idx])]
        out.append((MeasurementPattern(outcomes, pattern_probability(outcomes, spec)), rep))
    return out


def rep_index_scan(table, basis: str) -> np.ndarray:
    """Lowest representative each table state can read out, by one full-table scan per representative."""
    rep = np.full(4**table.n, -1, dtype=np.int16)
    for k, p in enumerate(table.reps[basis]):
        cov = ((p.x_bits & ~table.ax_mask) == 0) & ((p.z_bits & ~table.az_mask) == 0)
        rep[cov & (rep < 0)] = k
    return rep


# -- the decoder one grid point and one epsilon at a time ------------------


def fwht_blocks(a: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform along the last axis, block by block."""
    m = a.shape[-1]
    h = 1
    while h < m:
        for start in range(0, m, 2 * h):
            x = a[..., start : start + h].copy()
            y = a[..., start + h : start + 2 * h]
            a[..., start : start + h] = x + y
            a[..., start + h : start + 2 * h] = x - y
        h *= 2
    return a


def pattern_error_rates(ana: ErrorAnalyzer, basis: str, epsilon: float) -> np.ndarray:
    """Per-pattern error rates from every pattern's own weight row, raised to float powers."""
    side = ana._sides[basis]
    bias = _flip_bias(epsilon)
    out = np.zeros(len(side["idxs"]), dtype=np.float64)
    for r, (rows, (inverse, weights)) in side["groups"].items():
        wmat = weights[inverse].astype(np.float64)
        t = fwht_blocks(bias**wmat) / float(wmat.shape[1])
        half = 1 << r
        out[rows] = np.minimum(t[:, :half], t[:, half:]).sum(axis=1)
    return out


def error_rates(ana: ErrorAnalyzer, eta: float, epsilon: float, corrections: bool = True) -> dict[str, float]:
    """Erasure-weighted logical error rate per parity at one (eta, epsilon) point."""
    result = {}
    for basis in ("X", "Z"):
        p = ana.pattern_probabilities(basis, eta)
        total = p.sum()
        if total <= 0.0:
            result[basis] = 0.0
            continue
        if corrections:
            perr = pattern_error_rates(ana, basis, epsilon)
        else:
            perr = 0.5 * (1.0 - _flip_bias(epsilon) ** ana._sides[basis]["lweight"].astype(np.float64))
        result[basis] = float(np.dot(p, perr) / total)
    return result


def correctable_region(code, bias, err, p_fail=0.5, grid_points=21, epsilon_cap=0.2) -> list[tuple[float, float]]:
    """(gamma, boundary epsilon) pairs by one scalar bisection per grid point."""
    result = package_loss_threshold(code, bias, p_fail)
    gamma_star = result.gamma_star
    if gamma_star <= 0.0:
        return []
    w = sum(1 << i for i, b in enumerate(result.w_star) if b)
    cx, cz = _basis_coeffs(code, p_fail, slice(w, w + 1))
    analyzer = ErrorAnalyzer(code, result.w_star, p_fail)
    points = []
    for i in range(grid_points):
        gamma = gamma_star * i / (grid_points - 1)
        p_bar = float(randomized_bias_rate(*_erasure_rates(cx, cz, gamma))[0])
        eps_m = err.epsilon_m(p_bar)

        def feasible(eps):
            r = error_rates(analyzer, 1.0 - gamma, eps)
            return 0.5 * (r["X"] + r["Z"]) <= eps_m

        if not feasible(0.0):
            boundary = 0.0
        elif feasible(epsilon_cap):
            boundary = epsilon_cap
        else:
            lo, hi = 0.0, epsilon_cap
            while hi - lo > BISECTION_TOL:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
            boundary = lo
        points.append((gamma, boundary))
    return points


def apply_generation_op(g: GraphState, op: GenerationOp) -> GraphState:
    """Grow the graph by one photon attached to the emitter.

    LEAF keeps the emitter mark in place; PATH_EDGE moves it to the new
    vertex, so the old emitter vertex becomes a photon.
    """
    new = g.n
    edges = g.edges | {(min(g.emitter, new), max(g.emitter, new))}
    if op is GenerationOp.LEAF:
        return GraphState(g.n + 1, edges, g.emitter)
    return GraphState(g.n + 1, edges, new)


def _unmarked_tree_key(g) -> str:
    """Canonical key of a tree ignoring the emitter mark (centroid rooted)."""
    if g.n == 1:
        return "T()"
    # peel leaves down to the one or two centroids
    degree = {v: g.degree(v) for v in range(g.n)}
    remaining = set(range(g.n))
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for u in g.neighbors(v):
                if u in remaining:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return "T*" + min(_rooted_tree_key(g, c) for c in remaining)


@lru_cache(maxsize=None)
def _unmarked_index(n_photons: int) -> dict[str, str]:
    index: dict[str, str] = {}
    for s in range(1 << n_photons):
        ops = "".join("P" if (s >> i) & 1 else "L" for i in range(n_photons))
        index.setdefault(_unmarked_tree_key(build_progenitor(ops)), ops)
    return index


@lru_cache(maxsize=None)
def _marked_index(n_photons: int) -> dict[str, str]:
    records = enumerate_progenitor_records(n_photons, cap=n_photons)
    return {canonical_key(rec.graph): rec.sequence for rec in records}


def outer_sequence_scan(g) -> str | None:
    """First op string in binary-counter order whose progenitor is ``g``
    up to isomorphism, emitter mark ignored; ``g`` must be a tree."""
    return _unmarked_index(g.n - 1).get(_unmarked_tree_key(g)) if g.n > 1 else ""


def marked_sequence_scan(g) -> str | None:
    """First op string in binary-counter order whose progenitor is ``g``
    up to isomorphism with the emitter pinned; ``g`` must be a tree."""
    return _marked_index(g.n - 1).get(canonical_key(g)) if g.n > 1 else ""
