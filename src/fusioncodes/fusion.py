"""Exact loss and Pauli-error analysis of transversal logical fusions.

Two identical graph codes are fused pairwise with standard physical
fusions (availability states and readable sets: see ``lpoly``).  Each
code keeps one readable set per logical parity, a 4^n-bit Python int.
With p_fail = a/q, contracting which states recover one qubit at a
time, each availability digit weighted by its outcome's integer
probability and mapped to that qubit's failure-basis bit, yields the
exact success polynomials of all 2^n bases at once in Bernstein form,
which keeps the basis scan exact and fast.  Only the ML decoder needs
which representative a pattern reads out: it reads the code's packed
cosets itself and takes the lowest one whose minimal state the pattern
includes, the test it also applies to the stabilizers.
"""

from __future__ import annotations

import numpy as np

from .codes import GraphCode, packed_cosets
from .lpoly import AVAIL_BOTH, AVAIL_NONE, AVAIL_XX, AVAIL_ZZ, minimal_state, pattern_states, readable_set
from .pauli import gf2_reduce, span

# -- per-code readable sets ---------------------------------------------


class CodeFusionTable:
    """A code's packed cosets (``codes.packed_cosets``) and the readable set of each logical parity."""

    def __init__(self, code: GraphCode):
        self.code = code
        self.n = n = code.n_code
        self.stab, self.reps = packed_cosets(code)
        self.readable = {basis: readable_set(self.reps[basis], n) for basis in ("X", "Z")}

    def bernstein(self, p_fail) -> tuple[np.ndarray, int]:
        """(B, q): Bernstein numerators of the XX and ZZ success probabilities of every failure basis.

        With p_fail read as a/q (``limit_denominator(2**30)``), B[0] is X,
        B[1] is Z, and B[., w, k] sums (q-a)^s a^f over the patterns with
        s + f = k that recover under w (bit i set: pair i recovers XX), so
        success = sum_k B[., w, k] q^-k x^k (1-x)^(n-k) in x = eta^2.
        Contracting qubit k maps its availability digit to bit k of w:
        NONE weighs 1 at degree +0, the digit that bit's failure recovers
        a at degree +1, and BOTH q-a at degree +1.  Every partial sum is
        at most (1 + q)^n, so below 2^31 the contraction runs in int32.
        As |B[., w, k]| is at most C(n, k) (|q-a| + |a|)^k,
        ``eta2_numerators`` stays within (|q-a| + |a| + 2q)^n, (3q)^n for
        p_fail in [0, 1]: below 2^53 B is int64 (every numerator an exact
        double), else Python ints.
        """
        a, q = p_fail.as_integer_ratio()  # exact, so a dyadic p_fail such as 1/2 loads no fractions module
        if q > 1 << 30:
            from fractions import Fraction

            a, q = Fraction(p_fail).limit_denominator(1 << 30).as_integer_ratio()
        n = self.n
        dtype = np.int64 if (abs(q - a) + abs(a) + 2 * q) ** n < 1 << 53 else object
        work = np.int32 if (1 + q) ** n < 1 << 31 else dtype
        b = np.empty((2, 1 << n, n + 1), dtype=dtype)
        # one parity at a time: both at once doubled the peak memory, no faster
        for parity, basis in enumerate(("X", "Z")):
            packed = np.frombuffer(self.readable[basis].to_bytes((4**n + 7) >> 3, "little"), dtype=np.uint8)
            r = np.unpackbits(packed, count=4**n, bitorder="little").astype(work)
            for k in range(n):
                # axes: qubits above k, qubit k's digit, bits below k of w, degree
                digit = r.reshape(4 ** (n - k - 1), 4, 1 << k, k + 1)
                r = np.zeros((4 ** (n - k - 1), 2, 1 << k, k + 2), dtype=work)
                r[..., :-1] = digit[:, AVAIL_NONE, None]
                r[..., 1:] += (q - a) * digit[:, AVAIL_BOTH, None]
                r[:, 0, :, 1:] += a * digit[:, AVAIL_ZZ]
                r[:, 1, :, 1:] += a * digit[:, AVAIL_XX]
            b[parity] = r.reshape(1 << n, n + 1)
        return b, q


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
        self.code = code
        self.w = tuple(w)
        self.p_fail = p_fail
        self.n = n = code.n_code
        stab, all_reps = packed_cosets(code)
        states, key = map(np.array, pattern_states(n, self.w))
        s_all, f_all = divmod(key, n + 1)
        unread = ~states.astype(np.uint16)[:, None]  # uint16 holds 4^8 states

        def fits(elements):
            """[k, e]: state k reads every parity element e needs (its minimal state is included in k)."""
            return (np.array([minimal_state(v, n) for v in elements], dtype=np.uint16) & unread) == 0

        elems = np.array(stab)
        readable = fits(stab)
        mask_n = (1 << n) - 1
        self._sides = {}
        for basis in ("X", "Z"):
            reps = all_reps[basis]
            fit = fits(reps)
            select = np.nonzero(fit.any(1))[0]
            rep_of = fit.argmax(1)  # the lowest representative each pattern reads out
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
            flat = np.frombuffer(b"".join(distinct), dtype=np.int8)
            lengths = list(map(len, distinct))
            groups, blocks, first, start = {}, [], 0, 0
            for m in dict.fromkeys(lengths):
                count = lengths.count(m)
                stop = start + m * count
                rows = np.nonzero((ids >= first) & (ids < first + count))[0]
                # rows[i] has weight row distinct[inverse[i]], of rank log2(m) - 1
                groups[m.bit_length() - 2] = (rows, (ids[rows] - first, flat[start:stop].reshape(count, m)))
                blocks.append((start, stop, m))
                first, start = first + count, stop
            s_cnt = s_all[select].astype(np.float64)
            f_cnt = f_all[select].astype(np.float64)
            self._sides[basis] = {
                "idxs": states[select],
                "s": s_cnt,
                "f": f_cnt,
                "l": n - s_cnt - f_cnt,
                "groups": groups,
                "walsh": (flat, blocks, ids),
            }

    def pattern_probabilities(self, basis: str, eta) -> np.ndarray:
        side = self._sides[basis]
        a = eta * eta
        if np.ndim(a):
            a = a[..., None]
        return (
            (1.0 - self.p_fail) ** side["s"]
            * self.p_fail ** side["f"]
            * a ** (side["s"] + side["f"])
            * (1.0 - a) ** side["l"]
        )

    def pattern_error_rates(self, basis: str, epsilon) -> np.ndarray:
        """Conditional logical error rate per recovering pattern."""
        flat, blocks, ids = self._sides[basis]["walsh"]
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
