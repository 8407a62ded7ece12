"""ML-decoded Pauli-error rates of transversal logical fusions, and the correctable region.

Two identical graph codes are fused pairwise with standard physical
fusions (availability states and readable sets: see ``lpoly``).  The
ML decoder reads the code's packed cosets through one inclusion matrix,
the state bits each stabilizer needs and each pattern lacks.  A
stabilizer is readable where it lacks none; as minimal states are linear
in XOR, representative anchor ^ stab[j] is readable where stab[j] lacks
exactly the anchor's lacking bits, and each pattern takes its lowest.
The correctable (loss, error) region bisects the decoder's rate in
epsilon at every loss grid point in lockstep.  This is the one module
that loads numpy, and only ``region`` loads it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .codes import GraphCode, packed_cosets
from .lpoly import check_failures, minimal_state, pattern_states
from .pauli import gf2_reduce, span
from .thresholds import BISECTION_TOL, BiasConfig, BiasMode, ErrorThresholdConfig, ThresholdResult, _rates
from .thresholds import loss_threshold, randomized_bias_rate

# -- depolarizing flips ------------------------------------------------


def _flip_bias(epsilon):
    """Common bias factor E[(-1)^flip] per touched pair (elementwise on arrays).

    Each photon is clean with probability a = 1-eps or suffers X, Y or Z
    with probability b = eps/3; X flips the pair's ZZ parity, Z flips XX
    and Y both.  The XX, ZZ and joint parity flips therefore share one
    probability p = P(1,0) + P(1,1) over the 16 two-photon assignments,
    and a group element touching a pair contributes 1-2p whatever its
    letter there.  The sums keep the enumeration's addition order, so
    the result is bit for bit that of summing all 16 terms.
    """
    a, b = 1.0 - epsilon, epsilon / 3
    ab, bb = a * b, b * b
    return 1.0 - 2.0 * ((ab + bb + bb + ab) + (ab + bb + ab + bb))


# -- maximum-likelihood error decoding ---------------------------------


def _fwht_side_by_side(a: np.ndarray, blocks) -> np.ndarray:
    """In-place Walsh-Hadamard transform of rows laid side by side along the last axis.

    ``blocks`` holds (start, stop, m) per run of rows of power-of-two length m, longest first, so the rows
    of length >= 2h fill a prefix.  Stage h maps each (x, y) half pair of it to (x + y, x - y) in one step.
    """
    h = 1
    for _, stop, m in reversed(blocks):
        while h < m:
            pairs = a[..., :stop].reshape(a.shape[:-1] + (stop // (2 * h), 2, h), copy=False)
            x, y = pairs[..., 0, :], pairs[..., 1, :]
            total = x + y
            np.subtract(x, y, out=y)
            x[...] = total
            h *= 2
    return a


def _mean_rate(p: np.ndarray, perr: np.ndarray):
    """Probability-weighted mean of perr over the patterns (last axis); 0 where no pattern can occur."""
    dot = np.vecdot(p, perr)  # on C-contiguous rows, the same BLAS dot as np.dot row by row
    total = np.broadcast_to(p.sum(axis=-1), np.shape(dot))
    mean = np.zeros(np.shape(dot))
    np.divide(dot, total, out=mean, where=total > 0.0)
    return mean if mean.ndim else float(mean)


class _DecoderSide(NamedTuple):
    """One parity's decoder state: s, f and ids hold one entry per recovering pattern, in ``pattern_states`` order."""

    s: np.ndarray  # successes, float64
    f: np.ndarray  # failures, float64
    flat: np.ndarray  # the distinct int8 weight rows side by side, longest first
    blocks: list  # (start, stop, m) in flat per run of rows of length m
    ids: np.ndarray  # the distinct weight row of each pattern


class ErrorAnalyzer:
    """Per-(code, failure-basis) setup for repeated error-rate evaluation.

    For each recovering pattern the decoder sees the syndrome of the
    paired code stabilizers that are reconstructible from the available
    parities, and flips the recovered logical parity to the likelier
    value.  The joint law of (syndrome, logical flip) is the Walsh
    transform of per-group-element biases (1-2p)^weight, so each
    pattern reduces to one small transform.  The setup spans each
    (readable stabilizers, representative) pair once and keeps each
    distinct weight row once; an evaluation lays a basis's rows side by
    side and runs one butterfly pass over all of them.  Every method also
    takes arrays of epsilon (and eta), which add leading axes to its
    result.
    """

    def __init__(self, code: GraphCode, w: tuple[int, ...], p_fail: float = 0.5):
        if len(w) != code.n_code:
            raise ValueError("failure basis length mismatch")
        check_failures(p_fail, w)
        self.code = code
        self.w = tuple(w)
        self.p_fail = p_fail
        self.n = n = code.n_code
        stab, all_reps = packed_cosets(code)
        states, key = map(np.array, pattern_states(n, self.w))
        s_all, f_all = divmod(key, n + 1)
        unread = ~states.astype(np.uint16)  # uint16 holds 4^8 states
        # lacks[k, j]: the state bits stabilizer j needs and pattern k lacks; j is readable where it is 0
        lacks = np.array([minimal_state(v, n) for v in stab], dtype=np.uint16) & unread[:, None]
        readable = lacks == 0
        elems = np.array(stab)
        mask_n = (1 << n) - 1
        self._sides = {}
        for basis in ("X", "Z"):
            reps = all_reps[basis]
            # minimal_state is linear in XOR, so reps[j] = reps[0] ^ stab[j] is readable where lacks[k, j] is this
            fit = lacks == (minimal_state(reps[0], n) & unread)[:, None]
            rep_of = fit.argmax(1)  # the lowest representative each pattern reads out, if any
            select = np.nonzero(np.take_along_axis(fit, rep_of[:, None], 1)[:, 0])[0]
            spanned, weight_rows = {}, []  # weight row per (readable row, representative) and per pattern
            for k, rep in zip(select.tolist(), rep_of[select].tolist()):
                pair = (readable[k].tobytes(), rep)
                if pair not in spanned:
                    gens = gf2_reduce(elems[readable[k]].tolist())
                    # subgroup <gens> x {1, rep}: bit j < len(gens) -> gens[j], top bit -> rep
                    spanned[pair] = bytes([((v & mask_n) | (v >> n)).bit_count() for v in span(gens + [reps[rep]])])
                weight_rows.append(spanned[pair])
            # longest first; within a length, byte order is np.unique(axis=0)'s for these int8 rows
            distinct = sorted(sorted(set(weight_rows)), key=len, reverse=True)
            ids = np.fromiter(map(dict(zip(distinct, range(len(distinct)))).get, weight_rows), np.int64, len(select))
            lengths = list(map(len, distinct))
            blocks, start = [], 0
            for m in dict.fromkeys(lengths):
                blocks.append((start, start + m * lengths.count(m), m))
                start = blocks[-1][1]
            self._sides[basis] = _DecoderSide(
                s_all[select].astype(np.float64),
                f_all[select].astype(np.float64),
                np.frombuffer(b"".join(distinct), dtype=np.int8),
                blocks,
                ids,
            )

    def pattern_probabilities(self, basis: str, eta) -> np.ndarray:
        side = self._sides[basis]
        a = eta * eta
        if np.ndim(a):
            a = a[..., None]
        return (
            (1.0 - self.p_fail) ** side.s
            * self.p_fail ** side.f
            * a ** (side.s + side.f)
            * (1.0 - a) ** (self.n - side.s - side.f)
        )

    def pattern_error_rates(self, basis: str, epsilon) -> np.ndarray:
        """Conditional logical error rate per recovering pattern."""
        _, _, flat, blocks, ids = self._sides[basis]
        # (1-2p)^k, k = 0..n, on a new last axis: the same pow as raising the bias to a weight
        powers = np.asarray(_flip_bias(epsilon))[..., None] ** np.arange(self.n + 1.0)
        t = _fwht_side_by_side(np.take(powers, flat, axis=-1), blocks)
        per = []
        for start, stop, m in blocks:
            t[..., start:stop] /= float(m)
            rows = t[..., start:stop].reshape(t.shape[:-1] + (-1, m))
            per.append(np.minimum(rows[..., : m // 2], rows[..., m // 2 :]).sum(axis=-1))
        return np.take(np.concatenate(per, axis=-1), ids, axis=-1)

    def rates(self, eta, epsilon, probs: dict | None = None) -> dict:
        """Erasure-weighted ML-decoded logical error rate for each parity.

        ``probs`` holds ``pattern_probabilities`` per basis at this eta, for
        callers that try many epsilons at one eta.
        """
        result = {}
        for basis in ("X", "Z"):
            p = self.pattern_probabilities(basis, eta) if probs is None else probs[basis]
            result[basis] = _mean_rate(p, self.pattern_error_rates(basis, epsilon))
        return result


# -- correctable region ----------------------------------------------

# grid points bisected together: bounds the (points, patterns) arrays of the decoder
REGION_CHUNK = 32
# largest boundary epsilon a region reports; the bisection brackets [0, EPSILON_CAP)
EPSILON_CAP = 0.2


class RegionPoint(NamedTuple):
    gamma: float
    epsilon_boundary: float


def _bisect_largest_feasible(feasible, size: int, upper: float) -> np.ndarray:
    """Largest value in [0, upper) with feasible(value) per entry, each feasible
    at zero and assumed to cross once.

    ``feasible`` maps ``size`` values to as many booleans.  The entries
    bisect in lockstep, and each one stops when its own bracket is within
    ``BISECTION_TOL``, so every entry sees the float steps of a scalar bisection.
    """
    lo, hi = np.zeros(size), np.full(size, upper)
    open_ = hi - lo > BISECTION_TOL
    while open_.any():
        mid = 0.5 * (lo + hi)
        ok = feasible(mid)
        lo, hi = np.where(open_ & ok, mid, lo), np.where(open_ & ~ok, mid, hi)
        open_ = hi - lo > BISECTION_TOL
    return lo


def correctable_region(
    code: GraphCode,
    bias: BiasConfig,
    err: ErrorThresholdConfig,
    p_fail: float = 0.5,
    grid_points: int = 21,
    result: ThresholdResult | None = None,
) -> list[RegionPoint]:
    """Boundary of the jointly correctable (loss, error) region.

    Under randomized bias: for each loss value below the loss threshold,
    the boundary error rate is the largest epsilon whose averaged logical
    error stays below the tolerable fusion error at the corresponding
    logical erasure rate.  ``result`` is the code's ``loss_threshold``
    under the same bias and ``p_fail`` when the caller already has it,
    as ``search_best_code`` returns it; otherwise it is computed here.
    """
    if bias.mode is not BiasMode.RANDOMIZED:
        raise ValueError("correctable regions are computed under randomized bias")
    if result is None:
        result = loss_threshold(code, bias, p_fail)
    gamma_star = result.gamma_star
    if gamma_star <= 0.0:
        return []
    gammas = gamma_star * np.arange(grid_points) / (grid_points - 1)
    cx, cz = result.coeffs
    eps_m = np.array([err.epsilon_m(randomized_bias_rate(*_rates(cx, cz, g))) for g in gammas.tolist()])
    analyzer = ErrorAnalyzer(code, result.w_star, p_fail)
    boundary = np.concatenate(
        [
            _region_boundaries(analyzer, 1.0 - gammas[s : s + REGION_CHUNK], eps_m[s : s + REGION_CHUNK])
            for s in range(0, grid_points, REGION_CHUNK)
        ]
    )
    return [RegionPoint(gamma=g, epsilon_boundary=e) for g, e in zip(gammas.tolist(), boundary.tolist())]


def _region_boundaries(analyzer: ErrorAnalyzer, eta: np.ndarray, eps_m: np.ndarray) -> np.ndarray:
    """Boundary epsilon per transmission: 0 where epsilon=0 is already infeasible,
    ``EPSILON_CAP`` where the cap is feasible, else bisected, all points in lockstep."""
    probs = {basis: analyzer.pattern_probabilities(basis, eta) for basis in ("X", "Z")}

    def feasible(eps, points):
        r = analyzer.rates(eta[points], eps, probs={b: p[points] for b, p in probs.items()})
        return 0.5 * (r["X"] + r["Z"]) <= eps_m[points]

    at_zero = feasible(np.zeros(len(eta)), slice(None))
    at_cap = at_zero & feasible(np.full(len(eta), EPSILON_CAP), slice(None))
    boundary = np.where(at_cap, EPSILON_CAP, 0.0)
    inner = at_zero & ~at_cap
    boundary[inner] = _bisect_largest_feasible(lambda eps: feasible(eps, inner), int(inner.sum()), EPSILON_CAP)
    return boundary
