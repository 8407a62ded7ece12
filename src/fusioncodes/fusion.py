"""ML-decoded Pauli-error rates of transversal logical fusions, and the correctable region.

Two identical graph codes are fused pairwise with standard physical
fusions.  At its qubit a loss reads no Pauli letter, a failure reads Z
under basis bit 0 and X under bit 1, and a success reads X, Y and Z, so
each of the 3^n loss/failure/success patterns reads the stabilizers and
representatives that avoid its unread letters.  Every entry of the ML
decoder's decision is an integer polynomial in the flip bias beta = 1-2p
(a coset weight enumerator), so the setup builds, once and in Python
ints, one polynomial per (successes, failures) plus the few differences
whose sign Descartes' rule cannot certify on beta in (0, 1), the image
of every epsilon in [0, 1].  An evaluation is one Horner pass plus
those few terms, and the correctable (loss, error) region bisects it in
epsilon at every loss grid point.  No numpy.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate
from typing import NamedTuple

from .codes import GraphCode, packed_cosets
from .lpoly import check_failures, signed_digits
from .pauli import gf2_reduce, span
from .thresholds import BiasConfig, BiasMode, ErrorThresholdConfig, ThresholdResult, _bisect, _rates
from .thresholds import loss_threshold, randomized_bias_rate

def _flip_bias(epsilon):
    """Common bias factor beta = E[(-1)^flip] per touched pair.

    Each photon is clean with probability a = 1-eps or suffers X, Y or Z
    with probability b = eps/3; X flips the pair's ZZ parity, Z flips XX
    and Y both, so the XX, ZZ and joint flips share one probability
    p = P(1,0) + P(1,1) over the 16 two-photon assignments, summed here
    in the enumeration's order: bit for bit that of all 16 terms.
    """
    a, b = 1.0 - epsilon, epsilon / 3
    ab, bb = a * b, b * b
    return 1.0 - 2.0 * ((ab + bb + bb + ab) + (ab + bb + ab + bb))


# -- maximum-likelihood error decoding ---------------------------------

# bits per coefficient of a packed polynomial: every packed sum stays below 3^n 2^(2n-1) <= 2^28 in size
_SLOT = 32


def _walsh(row: bytes) -> list[int]:
    """Walsh-Hadamard transform of the monomials beta^row[v], each packed as 2^(_SLOT row[v])."""
    a, h = [1 << _SLOT * r for r in row], 1
    while h < len(a):  # stage h maps each (x, y) = (a[i], a[i + h]) to (x + y, x - y)
        a = [a[i] + a[i + h] if not i & h else a[i - h] - a[i] for i in range(len(a))]
        h *= 2
    return a


def _descartes(d: tuple[int, ...]) -> tuple[int, bool]:
    """(sign of D just below beta = 1, whether D keeps that sign on all of (0, 1); (0, True) for D = 0).

    With beta = 1/(1+s), (1+s)^n D(1/(1+s)) has, by Descartes' rule of signs,
    no more roots s > 0 than sign changes in its coefficients, the lowest
    nonzero of which has the sign of D as s -> 0+, beta -> 1-.
    """
    q = list(d[::-1])  # R(t) = t^n D(1/t), shifted to R(1 + s) in place
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += q[j + 1]
    signs = [c > 0 for c in q if c]
    if not signs:
        return 0, True
    return (1 if signs[0] else -1), len(set(signs)) == 1


class _Fold(NamedTuple):
    """One parity's decoder folded by (successes, failures) ``sf``, at denominator 2^n, constant coefficient first.

    Each syndrome of a pattern's weight row gives a pair (A, B), its chance
    without and with a logical flip; min(A, B) = lower - max(0, -D), lower
    the side lower just below beta = 1 and D the other minus it.  ``poly``
    sums each fold's lower sides, divided by 1 - beta, where all vanish;
    ``uncertified`` holds (D, weight per fold) where D may change sign.
    """

    sf: list[tuple[int, int]]
    counts: list[int]  # recovering patterns per fold
    poly: list[tuple[int, ...]]
    uncertified: list[tuple[tuple[int, ...], tuple[int, ...]]]


class ErrorAnalyzer:
    """Per-(code, failure-basis) setup for repeated error-rate evaluation.

    For each recovering pattern the decoder sees the syndrome of the
    paired code stabilizers reconstructible from the available parities,
    and flips the recovered logical parity to the likelier value; the
    joint law of (syndrome, flip) is the Walsh transform of beta^weight
    over the readable subgroup times {1, the lowest readable representative}.
    """

    def __init__(self, code: GraphCode, w: tuple[int, ...], p_fail: float = 0.5):
        if len(w) != code.n_code:
            raise ValueError("failure basis length mismatch")
        check_failures(p_fail, w)
        self.code, self.w, self.p_fail, self.n = code, tuple(w), p_fail, code.n_code
        n = self.n
        stab, reps = packed_cosets(code)
        size, full = len(stab), (1 << len(stab)) - 1
        # elems: stabilizer j at j, X and Z representative j at size + j and 2 size + j; on_x[i] (on_z[i]) has bit j
        # set when elems[j] has X or Y (Z or Y) at qubit i.  A pattern reads the elements outside the masks of the
        # letters it leaves unread, a set closed under XOR: readable sets are subspaces
        elems = stab + reps["X"] + reps["Z"]
        weight = [((v & ((1 << n) - 1)) | (v >> n)).bit_count() for v in elems]
        on_x = [sum(1 << j for j, v in enumerate(elems) if v >> i & 1) for i in range(n)]
        on_z = [sum(1 << j for j, v in enumerate(elems) if v >> n + i & 1) for i in range(n)]
        # the elements each loss/failure/success pattern leaves unread, and its key s*(n+1)+f.  Patterns count
        # up in base 3, trit i pair i: 0 loss (nothing read), 1 failure (ZZ under basis bit 0, XX under 1), 2 success
        lacking, keys = [0], [0]
        for i, bit in enumerate(self.w):
            lost, failed = on_x[i] | on_z[i], on_z[i] if bit else on_x[i]
            lacking = [m | lost for m in lacking] + [m | failed for m in lacking] + lacking
            keys = keys + [k + 1 for k in keys] + [k + n + 1 for k in keys]

        @cache
        def subgroup(readable: int) -> list[int]:
            """The readable stabilizers' indices in span order: index XOR is element XOR."""
            members = []
            while readable:
                members.append((readable & -readable).bit_length() - 1)
                readable &= readable - 1
            return span(gf2_reduce(members))

        @cache
        def weight_row(readable: int, rep: int) -> bytes:  # <readable stabilizers> x {1, element rep}
            return bytes([weight[j] for j in subgroup(readable)] + [weight[rep ^ j] for j in subgroup(readable)])

        self._folds = {}
        for basis, shift in (("X", size), ("Z", 2 * size)):
            # (readable stabilizers, the lowest readable representative's element, (s, f) key) -> patterns
            fits = ((~lack & full, ~(lack >> shift) & full, key) for lack, key in zip(lacking, keys))
            found = Counter((r, shift + (fit & -fit).bit_length() - 1, key) for r, fit, key in fits if fit)
            rows = {}  # weight row -> patterns per key
            for (readable, rep, key), c in found.items():
                per_key = rows.setdefault(weight_row(readable, rep), {})
                per_key[key] = per_key.get(key, 0) + c
            self._folds[basis] = _fold(rows, n)
        self._eta = self._folded = None  # the last eta rates() saw, and its fold

    def rates(self, eta: float, epsilon: float) -> dict:
        """Erasure-weighted ML-decoded logical error rate per parity, 0 where no pattern recovers.

        The probabilities fold in once per eta; each epsilon at that eta is then one Horner pass."""
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta out of range: {eta}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon out of range: {epsilon}")
        if eta != self._eta:
            self._eta, self._folded = eta, {basis: self._fold_at(fold, eta) for basis, fold in self._folds.items()}
        beta = _flip_bias(epsilon)
        return {basis: _decoded_rate(folded, beta) for basis, folded in self._folded.items()}

    def _fold_at(self, fold: _Fold, eta: float) -> tuple:
        """(coefficients of rate / (1 - beta), top first; (D, top first, weight) per uncertified D of
        positive weight), over the recovering patterns' total probability at this eta."""
        a, pf, n = eta * eta, self.p_fail, self.n
        probs = [(1.0 - pf) ** s * pf**f * a ** (s + f) * (1.0 - a) ** (n - s - f) for s, f in fold.sf]
        total = sum(p * c for p, c in zip(probs, fold.counts)) * (1 << n)
        if total <= 0.0:
            return (), ()
        coeffs = [sum(p * c for p, c in zip(probs, col)) / total for col in reversed(list(zip(*fold.poly)))]
        terms = [(d[::-1], sum(p * c for p, c in zip(probs, weights)) / total) for d, weights in fold.uncertified]
        return coeffs, [(d, weight) for d, weight in terms if weight > 0.0]


def _decoded_rate(folded: tuple, beta: float) -> float:
    """(1 - beta) times the Horner sum, plus weight * D for every uncertified D below zero at beta."""
    coeffs, terms = folded
    acc = 0.0
    for c in coeffs:
        acc = acc * beta + c
    rate = (1.0 - beta) * acc
    for d, weight in terms:
        v = 0.0
        for c in d:
            v = v * beta + c
        if v < 0.0:
            rate += weight * v
    return rate


def _fold(rows: dict, n: int) -> _Fold:
    """Transform each distinct weight row once and fold its syndrome pairs by (s, f) key."""
    # patterns and packed sums of lower sides per key, each uncertified D's weights per key, each D's certificate
    patterns, sums, uncertified, signs = Counter(), {}, {}, {}
    for row, counts in rows.items():
        t = [v * ((1 << n) // len(row)) for v in _walsh(row)]  # at denominator 2^n
        lower = 0
        for (a, b), m in Counter(zip(t[: len(t) // 2], t[len(t) // 2 :])).items():
            if a - b not in signs:
                signs[a - b] = _descartes(signed_digits(a - b, n + 1, _SLOT))
            sign, certified = signs[a - b]
            lower += m * (b if sign >= 0 else a)
            if not certified:
                uncertified.setdefault((a - b) * sign, Counter()).update({key: m * c for key, c in counts.items()})
        for key, c in counts.items():
            sums[key] = sums.get(key, 0) + c * lower
        patterns.update(counts)
    keys = sorted(patterns)
    totals = [signed_digits(sums[key], n + 1, _SLOT) for key in keys]
    assert not any(map(sum, totals))  # zero at beta = 1: over 1 - beta, the coefficients become prefix sums
    poly = [tuple(accumulate(total))[:-1] for total in totals]
    uncertified = [
        (signed_digits(d, n + 1, _SLOT), tuple(weights[key] for key in keys)) for d, weights in uncertified.items()
    ]
    return _Fold([divmod(key, n + 1) for key in keys], [patterns[key] for key in keys], poly, uncertified)


# -- correctable region ----------------------------------------------

# largest boundary epsilon a region reports; the bisection brackets [0, EPSILON_CAP)
EPSILON_CAP = 0.2


class RegionPoint(NamedTuple):
    gamma: float
    epsilon_boundary: float


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
    logical erasure rate: ``EPSILON_CAP`` where the cap holds, else
    bisected to ``BISECTION_TOL``.
    ``result`` is the code's ``loss_threshold`` under the same bias and
    ``p_fail`` when the caller already has it, as ``search_best_code``
    returns it; otherwise it is computed here.
    """
    if bias.mode is not BiasMode.RANDOMIZED:
        raise ValueError("correctable regions are computed under randomized bias")
    if result is None:
        result = loss_threshold(code, bias, p_fail)
    gamma_star = result.gamma_star
    if gamma_star <= 0.0:
        return []
    cx, cz = result.coeffs
    analyzer = ErrorAnalyzer(code, result.w_star, p_fail)
    points = []
    for i in range(grid_points):
        gamma = gamma_star * i / (grid_points - 1)
        eps_m = err.epsilon_m(randomized_bias_rate(*_rates(cx, cz, gamma)))

        def feasible(eps):
            r = analyzer.rates(1.0 - gamma, eps)
            return 0.5 * (r["X"] + r["Z"]) <= eps_m

        # epsilon = 0 always holds: its rates are exactly 0.0 and eps_m >= 0
        points.append(RegionPoint(gamma, EPSILON_CAP if feasible(EPSILON_CAP) else _bisect(feasible, EPSILON_CAP)))
    return points
