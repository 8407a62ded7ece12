"""Independent brute-force oracles used to pin expected values.

The state oracles are built from raw 2x2 matrices and numpy kron
products, on purpose sharing no code with the package's bit-packed
algebra, so the two can check each other.  The availability-state
oracles decode every one of the 4^n table states digit by digit, once
per size.  The erasure oracles redo the loss-threshold scan one failure
basis at a time, in exact ``Fraction`` arithmetic and scalar floats;
they share only the package's readable sets (``readable_states``), and
``bernstein_violations`` certifies exactly that every success
probability is nondecreasing in eta.  ``CodeFusionTable.bernstein``
(the 4^n Bernstein contraction), ``eta2_numerators`` and
``eta2_float_coeffs`` are the reference the package's transfer counts
are pinned against, and ``lockstep_loss_thresholds`` bisects every
(code, basis) row to the end in one numpy lockstep
(``bisect_largest_feasible``), the reference for the pruned scalar
search.  ``gather_counts`` and ``count_numerators`` are the (s, f)
count gather and its count-matrix numerators, which pin
the contraction and the package's count rows in turn; ``LossPolynomial``
keys such counts by (s, f, l) and evaluates them term by term.  The
pattern oracles list outcomes object by object, and the decoder oracles
build the decoder's weight rows one table state at a time
(``per_row_sides``), reading nothing of the package's decoder but a
record's code, w and p_fail.  In floats they transform each pattern's
row on its own with the block-loop Walsh transform, give the uncorrected
baseline from each pattern's readable representative, and redo the
region one grid point and one epsilon at a time with the 16-term flip
enumeration.  In integers they transform one-hot weight matrices
(``walsh_pairs``), fold the pairs by their lower side just below beta = 1
from Taylor coefficients (``fold_pairs``), evaluate the rates in exact
rationals (``exact_error_rates``) and count roots in (0, 1) by Sturm
sequences (``sturm_roots``), the reference for the package's Descartes
certificate.  The sequence oracles key every LEAF/PATH_EDGE
string of a size by AHU tree canonical forms: ``progenitor_scan``
dedupes them into the marked-graph classes, the scans find a graph's
generation sequence, and ``apply_generation_op`` grows a progenitor one
letter at a time.  The dense state-vector oracles replay a compiled
sequence and build its concatenated target on numpy complex amplitudes,
in emission order; they share only the instruction loop ``_run`` with
the package's bit-packed state vector, and they replay -1 outcomes too.
``signed_first_non_member`` tests stabilizer-group membership by a
signed row echelon, the reference for the tableau's tagged unsigned
elimination.  ``PauliOperator`` (a validated record with a mod-4 phase),
``multiply`` (signed by the package's ``product_phase``) and
``DimensionMismatch`` are the signed Pauli algebra, checked against
dense matrices; the package keeps only packed ints and renders signed
strings with ``pauli.pauli_string``, which ``to_string``, a separate
rendering, pins.  ``StabilizerGroup`` (commutation and independence
checked on construction), ``enumerate_group``, ``stabilizer_generators``
and ``sign`` are the signed group algebra; ``signed_code`` turns a
code's packed logicals and generators into operators and its generators
into a checked group, and ``signed_logical_set`` multiplies out the
logical set that the package's ``logical_set`` returns as strings.  The
rest are small helpers that only tests use: JSON round trips,
Pauli-string parsing, Pauli images under local complementation,
pairwise commutation, dual failure bases and state-vector expectations.  ``validate_dual_swap`` checks the dual
swap on the success polynomials themselves, the reference for the
package's check on logical cosets.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from fusioncodes.codes import GraphCode, packed_cosets
from fusioncodes.compiler import _run, compile_generation, derive_outer_sequence
from fusioncodes.graphs import GenerationOp, GraphState, ProgenitorRecord, build_progenitor
from fusioncodes.lpoly import readable_set
from fusioncodes.pauli import VerificationError, gf2_reduce, product_phase
from fusioncodes.thresholds import BISECTION_TOL, BiasMode, ThresholdResult
from fusioncodes.thresholds import loss_threshold as package_loss_threshold

# -- the signed Pauli algebra ------------------------------------------------


class DimensionMismatch(ValueError):
    """Two operators act on different qubit counts."""


class _PauliFields(NamedTuple):
    n: int
    x_bits: int
    z_bits: int
    phase: int = 0


class PauliOperator(_PauliFields):
    """Signed n-qubit Pauli string.

    ``phase`` is the exponent k of the global factor i^k (mod 4).  Every
    element of a code's logical set has k in {0, 2}, i.e. sign +1 or -1.
    """

    __slots__ = ()

    def __new__(cls, n: int, x_bits: int, z_bits: int, phase: int = 0):
        if n < 0:
            raise ValueError("negative qubit count")
        mask = (1 << n) - 1
        if x_bits & ~mask or z_bits & ~mask:
            raise ValueError("component bits outside qubit range")
        return tuple.__new__(cls, (n, x_bits, z_bits, phase % 4))

    # -- constructors ------------------------------------------------

    @staticmethod
    def unpack(n: int, packed: int) -> "PauliOperator":
        """The sign +1 operator ``packed`` as x | z << n."""
        return PauliOperator(n, packed & ((1 << n) - 1), packed >> n)

    # -- basic queries -----------------------------------------------

    def letter(self, qubit: int) -> str:
        return "IXZY"[(self.x_bits >> qubit & 1) | (self.z_bits >> qubit & 1) << 1]

    def to_string(self) -> str:
        sgn = "+" if self.phase == 0 else "-" if self.phase == 2 else ("+i" if self.phase == 1 else "-i")
        return sgn + "".join(self.letter(q) for q in range(self.n))

    def __str__(self):
        return self.to_string()


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Product ``a * b`` with exact phase bookkeeping."""
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts differ: {a.n} vs {b.n}")
    phase = a.phase + b.phase + product_phase(a.x_bits, a.z_bits, b.x_bits, b.z_bits)
    return PauliOperator(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits, phase)


# -- dense Pauli matrices ----------------------------------------------------

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
    """Letters and sign of a ``PauliOperator``, read off its rendered string.

    ``to_string`` is the oracle's own rendering, independent of the
    package's ``pauli.pauli_string``, the one place where the package
    turns a signed Pauli into text."""
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


def expectation(state: np.ndarray, p: PauliOperator) -> complex:
    return complex(np.vdot(state, apply_pauli(state, p)))


# -- dense complex state vectors of compiled sequences ---------------------


def apply_pauli(state: np.ndarray, p: PauliOperator) -> np.ndarray:
    """Apply a signed Pauli given in bit-packed form.

    With Y = iXZ each letter splits as i^[Y] X^x Z^z (Z acting first), so
    out[c] = i^(phase + #Y) (-1)^((c ^ x) . z) state[c ^ x].
    """
    n = p.n
    if state.size != 1 << n:
        raise ValueError("state size does not match operator")
    idx = np.arange(state.size)
    src = idx ^ p.x_bits
    out = state[src].astype(complex, copy=True)
    parity = np.zeros(state.size, dtype=np.int64)
    for b in range(n):
        if (p.z_bits >> b) & 1:
            parity ^= (src >> b) & 1
    out[parity == 1] *= -1.0
    y_count = (p.x_bits & p.z_bits).bit_count()
    out *= (1j) ** ((p.phase + y_count) % 4)
    return out


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    if a.shape != b.shape:
        return False
    overlap = abs(np.vdot(a, b))
    return abs(overlap - np.linalg.norm(a) * np.linalg.norm(b)) < tol


def project_x(state: np.ndarray, qubit: int, outcome: int = 1) -> np.ndarray:
    """Normalized projection of one qubit onto X = ``outcome``."""
    n = state.size.bit_length() - 1
    out = 0.5 * (state + outcome * apply_pauli(state, PauliOperator(n, 1 << qubit, 0)))
    prob = float(np.vdot(out, out).real)
    if prob < 1e-12:
        raise VerificationError("measurement branch has zero probability")
    return out / np.sqrt(prob)


def drop_plus_qubit(state: np.ndarray, qubit: int) -> np.ndarray:
    """Factor out a qubit in an X eigenstate (e.g. after X projection)."""
    n = state.size.bit_length() - 1
    full = state.reshape([2] * n, order="F")
    sel0 = np.take(full, 0, axis=qubit)
    sel1 = np.take(full, 1, axis=qubit)
    if not (np.allclose(sel0, sel1, atol=1e-9) or np.allclose(sel0, -sel1, atol=1e-9)):
        raise ValueError(f"qubit {qubit} is not in an X eigenstate")
    rest = sel0 * np.sqrt(2.0)
    return rest.reshape(-1, order="F")


class DenseBackend:
    """Replay backend on complex amplitudes with little-endian wires.

    X measurements take the outcome listed in ``outcome_overrides`` under
    their index, +1 otherwise; a -1 outcome leaves |->, which ``reinit``
    turns back into |+>.
    """

    def __init__(self, n_wires: int, outcome_overrides: dict[int, int] | None = None):
        self.n = n_wires
        self.state = dense_graph_state(n_wires, ())
        self.overrides = outcome_overrides or {}
        self.outcomes: list[int] = []
        self.minus: set[int] = set()

    def cz(self, a: int, b: int) -> None:
        lo, hi = min(a, b), max(a, b)
        # axes: rest, qubit hi, qubits between, qubit lo, qubits below
        view = self.state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo, copy=False)
        view[:, 1, :, 1] *= -1.0

    def measure_x(self, wire: int) -> None:
        outcome = self.overrides.get(len(self.outcomes), +1)
        self.outcomes.append(outcome)
        self.state = project_x(self.state, wire, outcome)
        if outcome == -1:
            self.minus.add(wire)

    def reinit(self, wire: int) -> None:
        if wire in self.minus:
            self.state = apply_pauli(self.state, PauliOperator(self.n, 0, 1 << wire))
            self.minus.discard(wire)


def photon_order(state: np.ndarray, order: list[int]) -> np.ndarray:
    """The photons of a replayed state in emission order, slot wires dropped.

    ``order`` is what ``_run`` returns: the wire of each photon, then the
    final wires of the two spin slots, which every branch leaves in |+>.
    """
    n = len(order)
    state = state.reshape([2] * n, order="F").transpose(order).flatten(order="F")
    return drop_plus_qubit(drop_plus_qubit(state, n - 1), n - 2)


def photon_statevector(seq, outcome_overrides: dict[int, int] | None = None):
    """Emission-order replay; returns (photon state, measurement outcomes)."""
    backend = DenseBackend(seq.photon_count + 2, outcome_overrides)
    order = _run(seq, backend)
    return photon_order(backend.state, order), backend.outcomes


def target_statevector(target) -> np.ndarray:
    """Photons of the concatenated target in emission order, virtual nodes
    projected onto X = +1 and dropped."""
    state = dense_graph_state(target.n_total, target.edges)
    for v in reversed(target.virtual_wires()):
        state = drop_plus_qubit(project_x(state, v), v)
    return state


def dense_amplitudes(flat) -> np.ndarray:
    """A bit-packed ``FlatState`` as complex amplitudes +/-1/sqrt(|support|)."""
    size = 1 << flat.n

    def bits(x: int) -> np.ndarray:
        raw = np.frombuffer(x.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:size]

    signs = 1.0 - 2.0 * bits(flat.negative)
    return (bits(flat.support) * signs / np.sqrt(flat.support.bit_count())).astype(complex)


# -- stabilizer membership by a signed row echelon -------------------------


def _pauli_key(row: PauliOperator) -> int:
    return row.x_bits | (row.z_bits << row.n)


def _signed_reduce(row: PauliOperator, basis: dict[int, PauliOperator]) -> PauliOperator:
    """Multiply ``row`` by basis rows while its leading bit has a pivot."""
    key = _pauli_key(row)
    while key and (key.bit_length() - 1) in basis:
        row = multiply(row, basis[key.bit_length() - 1])
        key = _pauli_key(row)
    return row


def signed_first_non_member(rows: list[PauliOperator], targets: list[PauliOperator]):
    """``StabilizerTableau.first_non_member`` of the group ``rows`` generate,
    by a signed row echelon keyed by leading bit of x | z << n: (index,
    residue) of the first target that does not reduce to +I, or None."""
    basis: dict[int, PauliOperator] = {}
    for row in rows:
        key = _pauli_key(cur := _signed_reduce(row, basis))
        if key:
            basis[key.bit_length() - 1] = cur
    for k, row in enumerate(targets):
        rest = _signed_reduce(row, basis)
        if _pauli_key(rest) or rest.phase:
            return k, rest
    return None


# -- signed stabilizer groups ----------------------------------------------


def sign(p: PauliOperator) -> int:
    """+1 or -1.  Raises if the phase is imaginary (+/-i)."""
    if p.phase % 2:
        raise ValueError("operator carries an imaginary phase, sign undefined")
    return 1 if p.phase == 0 else -1


class _GroupFields(NamedTuple):
    n: int
    generators: tuple[PauliOperator, ...]


class StabilizerGroup(_GroupFields):
    """Independent, mutually commuting generators of an abelian Pauli group."""

    __slots__ = ()

    def __new__(cls, n: int, generators: tuple[PauliOperator, ...]):
        for g in generators:
            if g.n != n:
                raise DimensionMismatch("generator qubit count differs from group")
            sign(g)  # asserts the phase is real
        rows = [g.x_bits | g.z_bits << n for g in generators]
        # a & (zb | xb << n) holds xa & zb and za & xb: its popcount parity is the symplectic product
        swapped = [g.z_bits | g.x_bits << n for g in generators]
        for i, a in enumerate(rows):
            for j in range(i + 1, len(rows)):
                if (a & swapped[j]).bit_count() & 1:
                    raise ValueError(f"generators do not commute: {generators[i]} vs {generators[j]}")
        if len(gf2_reduce(rows)) != len(rows):
            raise ValueError("generators are not independent")
        return tuple.__new__(cls, (n, generators))

    @property
    def k(self) -> int:
        return len(self.generators)


def enumerate_group(group: StabilizerGroup) -> list[PauliOperator]:
    """All 2^k signed elements, ordered by the generator-subset counter.

    Element at index ``s`` is the product of the generators whose bit is
    set in ``s``, so the ordering is reproducible across runs.
    """
    elements = [PauliOperator(group.n, 0, 0)]
    for s in range(1, 1 << group.k):
        low = (s & -s).bit_length() - 1
        elements.append(multiply(elements[s & (s - 1)], group.generators[low]))
    return elements


def stabilizer_generators(g: GraphState) -> tuple[PauliOperator, ...]:
    """One generator per vertex: X there, Z on each neighbor, sign +1."""
    return tuple(PauliOperator(g.n, 1 << v, g.neighbor_mask(v), 0) for v in range(g.n))


class SignedCode(NamedTuple):
    logical_x: PauliOperator
    logical_z: PauliOperator
    stabilizers: StabilizerGroup


def signed_logical_set(code: GraphCode, basis: str) -> list[PauliOperator]:
    """All 2^(n-1) signed representatives of the X or Z logical, stable order.

    Element k is the anchor logical times the stabilizer generators
    whose bit is set in k, as ``packed_cosets`` orders them; the
    generators commute, so the product's sign does not depend on the
    order of its factors.  The package's ``logical_set`` renders these.
    """
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    n = code.n_code
    out = [PauliOperator.unpack(n, code.logical_x if basis == "X" else code.logical_z)]
    for g in code.stabilizers:
        gen = PauliOperator.unpack(n, g)
        out += [multiply(p, gen) for p in out]
    return out


def signed_code(code: GraphCode) -> SignedCode:
    """A code's packed logicals and generators as sign +1 operators, the generators checked as a group."""
    n = code.n_code
    return SignedCode(
        PauliOperator.unpack(n, code.logical_x),
        PauliOperator.unpack(n, code.logical_z),
        StabilizerGroup(n, tuple(PauliOperator.unpack(n, g) for g in code.stabilizers)),
    )


# -- the availability table, digit by digit --------------------------------

# availability digits, one per fused pair: bit 0 the ZZ parity, bit 1 the XX parity
AVAIL_NONE = 0  # photon loss: no parity
AVAIL_ZZ = 1  # failure recovering ZZ
AVAIL_XX = 2  # failure recovering XX
AVAIL_BOTH = 3  # successful fusion: XX and ZZ


@lru_cache(maxsize=None)
def state_arrays(n: int) -> SimpleNamespace:
    """Per-state outcome counts and parity masks over the 4^n availability states.

    Digit i of a state is pair i's availability: ``fail_xx_mask`` /
    ``fail_zz_mask`` mark the failed pairs that recovered XX / ZZ, and
    ``ax_mask`` / ``az_mask`` every pair whose XX / ZZ parity is known.
    """
    idx = np.arange(4**n, dtype=np.int64)
    digits = (idx[:, None] >> 2 * np.arange(n, dtype=np.int64)) & 3
    bits = 1 << np.arange(n, dtype=np.int64)
    n_success = (digits == AVAIL_BOTH).sum(axis=1).astype(np.int8)
    n_fail = ((digits == AVAIL_XX) | (digits == AVAIL_ZZ)).sum(axis=1).astype(np.int8)
    return SimpleNamespace(
        n_success=n_success,
        n_fail=n_fail,
        n_loss=(n - n_success - n_fail).astype(np.int8),
        fail_xx_mask=((digits == AVAIL_XX) * bits).sum(axis=1),
        fail_zz_mask=((digits == AVAIL_ZZ) * bits).sum(axis=1),
        ax_mask=(((digits == AVAIL_BOTH) | (digits == AVAIL_XX)) * bits).sum(axis=1),
        az_mask=(((digits == AVAIL_BOTH) | (digits == AVAIL_ZZ)) * bits).sum(axis=1),
    )


def basis_mask(w) -> int:
    """A failure basis as an integer: bit i is pair i's basis."""
    return sum(1 << i for i, b in enumerate(w) if b)


def consistent(n: int, w_mask: int) -> np.ndarray:
    """Table states whose failure outcomes agree with the failure basis."""
    arr = state_arrays(n)
    return ((arr.fail_xx_mask & ~w_mask) == 0) & ((arr.fail_zz_mask & w_mask) == 0)


@lru_cache(maxsize=None)
def consistent_counts(n: int) -> np.ndarray:
    """int64 C[w, s*(n+1)+f] of the patterns placed under each failure basis w
    that land on a state whose XX failures lie in w and ZZ failures outside it.

    Every pattern should, so each row should be the multinomials n!/(s!f!l!).
    The patterns are placed by ``trit_patterns``.
    """
    arr = state_arrays(n)
    low, spread, key = trit_patterns(n)
    out = np.zeros((1 << n, (n + 1) ** 2), dtype=np.int64)
    for w in range(1 << n):
        idx = low + (spread & sum(4**i for i in range(n) if (w >> i) & 1))
        hit = ((arr.fail_xx_mask[idx] & ~w) | (arr.fail_zz_mask[idx] & w)) == 0
        out[w] = np.bincount(key[hit], minlength=(n + 1) ** 2)
    return out


class LossPolynomial:
    """Integer-counted sum of fusion-pattern probability monomials, keyed by (s, f, l)."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: dict[tuple[int, int, int], int] | None = None):
        self.n = n
        self.counts = dict(counts or {})

    @classmethod
    def from_counts(cls, n: int, row) -> "LossPolynomial":
        """From a count row indexed by s*(n+1)+f, as ``lpoly.erasure_analysis`` reports it."""
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


def is_normalized(poly: LossPolynomial) -> bool:
    """True iff ``poly`` is the sum over all 3^n patterns (so identically 1)."""
    n = poly.n
    expect = {
        (s, f, n - s - f): factorial(n) // (factorial(s) * factorial(f) * factorial(n - s - f))
        for s in range(n + 1)
        for f in range(n + 1 - s)
    }
    return poly.counts == expect


# -- erasure coefficients and thresholds, one failure basis at a time ----


def basis_counts(table, basis: str, w_mask: int) -> dict[tuple[int, int, int], int]:
    """{(s, f, l): count} of the table states consistent with one failure
    basis that recover the paired ``basis`` parity (None: every one)."""
    n = table.n
    arr = state_arrays(n)
    select = consistent(n, w_mask)
    if basis is not None:
        select &= readable_states(table, basis)
    sf = np.stack([arr.n_success[select], arr.n_fail[select]], axis=1).astype(np.int64)
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


def bernstein_violations(b: np.ndarray, q: int) -> np.ndarray:
    """Per Bernstein row, True where the exact monotonicity certificate fails.

    ``b[w, k]`` = c_k q^k as ``CodeFusionTable.bernstein`` gives it with
    its q, so the success probability is sum_k c_k x^k (1-x)^(n-k) in
    x = eta^2, whose Bernstein coefficients are c_k / C(n, k).  If those
    never decrease in k, success never decreases in eta: the check is
    b_{k+1} C(n, k) >= q b_k C(n, k+1), in int64.
    """
    n = b.shape[-1] - 1
    assert int(abs(b).max()) * q * comb(n, n // 2) < 1 << 63, "int64 overflow"
    binom = np.array([comb(n, k) for k in range(n + 1)], dtype=np.int64)
    b = b.astype(np.int64)
    return (b[:, :-1] * (q * binom[1:]) > b[:, 1:] * binom[:-1]).any(axis=1)


# -- the 4^n Bernstein contraction and the numpy lockstep search ------------


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
        a, q = p_fail.as_integer_ratio()
        if q > 1 << 30:
            a, q = Fraction(p_fail).limit_denominator(1 << 30).as_integer_ratio()
        n = self.n
        dtype = np.int64 if (abs(q - a) + abs(a) + 2 * q) ** n < 1 << 53 else object
        work = np.int32 if (1 + q) ** n < 1 << 31 else dtype
        b = np.empty((2, 1 << n, n + 1), dtype=dtype)
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
    """``eta2_numerators`` as floats, each the correctly rounded N / q^n (int64 and q^n are exact doubles)."""
    num, den = eta2_numerators(b, q)
    if num.dtype == object:
        return (num / den).astype(float)
    return num / float(den)


def erasure_rates(cx: np.ndarray, cz: np.ndarray, gamma) -> tuple[np.ndarray, np.ndarray]:
    """(p_xx, p_zz) per coefficient row at photon loss gamma: one Horner pass over all rows."""
    eta = 1.0 - gamma
    x = eta * eta
    sx = sz = 0.0
    for j in range(cx.shape[1] - 1, -1, -1):
        sx = sx * x + cx[:, j]
        sz = sz * x + cz[:, j]
    return 1.0 - sx, 1.0 - sz


def interp_rows(table, x: np.ndarray) -> np.ndarray:
    """Piecewise-linear lookup with flat extrapolation, elementwise."""
    xs, ys = np.array(table, dtype=np.float64).T
    y = np.where(x <= xs[0], ys[0], ys[-1])
    inner = (x > xs[0]) & (x < xs[-1])
    if inner.any():
        xi = x[inner]
        j = np.searchsorted(xs, xi, side="left")
        t = (xi - xs[j - 1]) / (xs[j] - xs[j - 1])
        y[inner] = ys[j - 1] * (1 - t) + ys[j] * t
    return y


def feasible_rows(bias, p_xx: np.ndarray, p_zz: np.ndarray) -> np.ndarray:
    """The bias rule elementwise on arrays of erasure rates."""
    for v in (p_xx, p_zz):
        assert ((v >= -1e-12) & (v <= 1.0 + 1e-12)).all()
    if bias.mode is BiasMode.RANDOMIZED:
        return 0.5 * (p_xx + p_zz) <= bias.p_tilde_randomized
    hi = np.maximum(p_xx, p_zz)
    ratio = np.where(hi == 0.0, 1.0, np.minimum(p_xx, p_zz) / np.where(hi == 0.0, 1.0, hi))
    return hi <= interp_rows(bias.p_tilde_biased, ratio)


def bisect_largest_feasible(feasible, size: int, upper: float) -> np.ndarray:
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


def lockstep_loss_thresholds(codes, bias, p_fail) -> list[ThresholdResult]:
    """Every (code, basis) row of one size bisected to the end in one numpy lockstep.

    Row c * 2^n + w holds basis w of codes[c], its coefficients those of
    the Bernstein contraction; the tie rule and diagnostics are the
    package's.  The reference for the pruned scalar search.
    """
    n = codes[0].n_code
    size = 1 << n
    cx, cz = coeffs = np.empty((2, len(codes) * size, n + 1))
    for c, code in enumerate(codes):
        coeffs[:, c * size : (c + 1) * size] = eta2_float_coeffs(*CodeFusionTable(code).bernstein(p_fail))
    ok = feasible_rows(bias, *erasure_rates(cx, cz, 0.0))
    fx, fz = cx[ok], cz[ok]
    gammas = np.zeros(len(cx))
    gammas[ok] = bisect_largest_feasible(lambda g: feasible_rows(bias, *erasure_rates(fx, fz, g)), len(fx), 1.0)
    g = gammas.tolist()
    out = []
    for c, code in enumerate(codes):
        best = c * size
        for r in range(best + 1, best + size):
            if g[r] > g[best] + 1e-12:
                best = r
        p_xx, p_zz = (float(v[0]) for v in erasure_rates(cx[best : best + 1], cz[best : best + 1], g[best]))
        hi = max(p_xx, p_zz)
        diagnostics = {
            "p_erase_xx": p_xx,
            "p_erase_zz": p_zz,
            "averaged": 0.5 * (p_xx + p_zz),
            "bias_ratio": min(p_xx, p_zz) / hi if hi else 1.0,
            "feasible_at_zero_loss": bool(ok[best]),
        }
        w_star = tuple(((best % size) >> i) & 1 for i in range(n))
        coeffs = (cx[best].tolist(), cz[best].tolist())
        out.append(ThresholdResult(code, bias.mode, p_fail, w_star, g[best], diagnostics, coeffs))
    return out


# -- the count gather the Bernstein engine replaced ------------------------


def trit_patterns(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low, spread, key) of every pattern, read off the (3^n, n) trit matrix at once.

    Pattern t counts up in base 3 (trit i is pair i: 0 loss, 1 failure, 2
    success).  ``low`` is its state with every failed pair read as ZZ,
    ``spread`` has bit 2i set for each failed pair i and ``key`` is
    s*(n+1)+f.  Under failure basis w it sits at low + (spread & spread(w)):
    the bit turns digit ZZ (1) into XX (2).
    """
    trits = (np.arange(3**n, dtype=np.int64)[:, None] // 3 ** np.arange(n)) % 3  # 0 loss, 1 fail, 2 success
    quad = 4 ** np.arange(n, dtype=np.int64)
    low = (np.array([AVAIL_NONE, AVAIL_ZZ, AVAIL_BOTH])[trits] * quad).sum(axis=1)
    spread = ((trits == 1) * quad).sum(axis=1)
    key = (trits == 2).sum(axis=1) * (n + 1) + (trits == 1).sum(axis=1)
    return low, spread, key


def gather_counts(table, basis: str) -> np.ndarray:
    """int64 C[w, s*(n+1)+f] for every failure basis w at once.

    Row w counts the patterns with s successes and f failures, placed
    under w (bit i set: pair i recovers XX), that recover the paired
    ``basis`` parity: one gather of the readable set at each pattern's
    w-placed state.
    """
    n, n_keys = table.n, (table.n + 1) ** 2
    low, spread, key = trit_patterns(n)
    recovers = readable_states(table, basis)
    out = np.empty((1 << n, n_keys), dtype=np.int64)
    for w in range(1 << n):
        idx = low + (spread & sum(4**i for i in range(n) if (w >> i) & 1))
        out[w] = np.bincount(key[recovers[idx]], minlength=n_keys)
    return out


def count_numerators(counts: np.ndarray, n: int, p_fail) -> tuple[np.ndarray, int]:
    """Exact eta^2-power coefficients of count rows: numerators N over q^n.

    ``counts[..., s*(n+1)+f]`` counts patterns with s successes and f
    failures.  ``p_fail`` is read as p/q (``limit_denominator(2**30)``);
    then N = counts @ M with M[(s, f), j] = (q-p)^s p^f q^l C(l, i) (-1)^i,
    l = n-s-f, i = j-s-f, constant term first.  As no count exceeds the
    multinomial n!/(s!f!l!), every |N| is at most (|q-p| + |p| + 2q)^n:
    below 2^53 the product runs in int64, otherwise on Python ints.
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


def pattern_probability(outcomes) -> LossPolynomial:
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


def measurement_patterns(code, w, basis: str):
    """The recovering patterns M_X or M_Z with representatives, in index order."""
    table = CodeFusionTable(code)
    index = rep_index_scan(table, basis)
    select = consistent(table.n, basis_mask(w)) & (index >= 0)
    reps = signed_logical_set(code, basis)
    out = []
    for avail_idx in np.nonzero(select)[0]:
        outcomes = pattern_outcomes(table, int(avail_idx))
        rep = reps[int(index[avail_idx])]
        out.append((MeasurementPattern(outcomes, pattern_probability(outcomes)), rep))
    return out


def readable_states(table, basis: str) -> np.ndarray:
    """The package's readable set of ``basis`` as one bool per table state."""
    n = table.n
    packed = np.frombuffer(table.readable[basis].to_bytes((4**n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=4**n, bitorder="little").astype(bool)


def rep_index_scan(table, basis: str) -> np.ndarray:
    """Lowest representative each table state can read out, by one full-table scan per representative."""
    arr = state_arrays(table.n)
    rep = np.full(4**table.n, -1, dtype=np.int16)
    for k, p in enumerate(signed_logical_set(table.code, basis)):
        cov = ((p.x_bits & ~arr.ax_mask) == 0) & ((p.z_bits & ~arr.az_mask) == 0)
        rep[cov & (rep < 0)] = k
    return rep


# -- the decoder, one table state, grid point and epsilon at a time --------


def pauli_flip_probability(epsilon: float) -> float:
    """Chance a fused pair's measured parity is flipped by depolarizing noise."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon out of range: {epsilon}")
    return 4.0 * ((epsilon / 3.0) * (1.0 - epsilon) + epsilon**2 / 9.0)


def joint_flip_distribution(epsilon: float, exact: bool = False) -> dict[tuple[int, int], float | Fraction]:
    """Joint law of (XX flip, ZZ flip) on one fused pair.

    Enumerates the 16 two-photon Pauli assignments of the single-qubit
    depolarizing channel: each photon is clean with probability 1-eps,
    or suffers X, Y or Z with probability eps/3.  A single-photon X
    flips the ZZ parity, Z flips XX, Y flips both; the pair flip is the
    XOR of the two photons' contributions.  Float mode also takes an
    array of epsilons and returns arrays.
    """
    if not np.all((0.0 <= epsilon) & (epsilon <= 1.0)):
        raise ValueError(f"epsilon out of range: {epsilon}")
    one = Fraction(1) if exact else 1.0
    eps = Fraction(epsilon).limit_denominator(10**12) if exact else epsilon
    probs = {(0, 0): one - eps, (0, 1): eps / 3, (1, 1): eps / 3, (1, 0): eps / 3}
    dist: dict[tuple[int, int], float | Fraction] = {(0, 0): 0 * one, (0, 1): 0 * one, (1, 0): 0 * one, (1, 1): 0 * one}
    for (u1, v1), p1 in probs.items():
        for (u2, v2), p2 in probs.items():
            dist[(u1 ^ u2, v1 ^ v2)] += p1 * p2
    return dist


def flip_bias(epsilon):
    """1-2p per touched pair from the enumerated joint law; the XX, ZZ and joint flips must agree."""
    dist = joint_flip_distribution(epsilon)
    bias_u = 1.0 - 2.0 * (dist[(1, 0)] + dist[(1, 1)])
    bias_v = 1.0 - 2.0 * (dist[(0, 1)] + dist[(1, 1)])
    bias_uv = 1.0 - 2.0 * (dist[(1, 0)] + dist[(0, 1)])
    assert np.all(abs(bias_u - bias_v) < 1e-15) and np.all(abs(bias_u - bias_uv) < 1e-15)
    return bias_u


def per_row_sides(code, w: tuple[int, ...]) -> dict[str, dict]:
    """The decoder's per-basis setup, built one w-consistent table state at a time.

    Per basis: ``idxs``, each recovering pattern's table state, in
    increasing order; ``s``, ``f`` and ``l``, its successes, failures and
    losses; and ``weights``, its int8 weight row over the subgroup of
    readable stabilizers times {1, rep}, rep the lowest readable
    representative, the top bit of the index selecting rep.
    """
    n = code.n_code
    table = CodeFusionTable(code)
    arr = state_arrays(n)
    stab_xz = [(p.x_bits, p.z_bits) for p in enumerate_group(signed_code(code).stabilizers)]
    sides = {}
    for basis in ("X", "Z"):
        reps = signed_logical_set(code, basis)
        index = rep_index_scan(table, basis)
        idxs = np.nonzero(consistent(n, basis_mask(w)) & (index >= 0))[0]
        rows = []
        for row, avail in enumerate(idxs):
            ax, az = int(arr.ax_mask[avail]), int(arr.az_mask[avail])
            rep = reps[int(index[avail])]
            gens = gf2_reduce([x | (z << n) for (x, z) in stab_xz if (x & ~ax) == 0 and (z & ~az) == 0])
            base = [(g & ((1 << n) - 1), g >> n) for g in gens]
            r = len(gens)
            cur = [(0, 0)] * (1 << r)
            for y in range(1, 1 << r):
                low = (y & -y).bit_length() - 1
                px, pz = cur[y & (y - 1)]
                cur[y] = (px ^ base[low][0], pz ^ base[low][1])
            weights = np.zeros(1 << (r + 1), dtype=np.int8)
            for y, (x0, z0) in enumerate(cur):
                weights[y] = (x0 | z0).bit_count()
                weights[y | (1 << r)] = ((x0 ^ rep.x_bits) | (z0 ^ rep.z_bits)).bit_count()
            rows.append(weights)
        sides[basis] = {
            "idxs": idxs,
            "s": arr.n_success[idxs].astype(np.float64),
            "f": arr.n_fail[idxs].astype(np.float64),
            "l": arr.n_loss[idxs].astype(np.float64),
            "weights": rows,
        }
    return sides


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


@lru_cache(maxsize=64)
def _sides(code, w: tuple[int, ...]) -> dict[str, dict]:
    """``per_row_sides``, kept per (code, w): the decoder oracles below read it many times."""
    return per_row_sides(code, w)


def pattern_probabilities(ana, basis: str, eta: float) -> np.ndarray:
    """Each recovering pattern's probability (1-pf)^s pf^f (eta^2)^(s+f) (1-eta^2)^l, one per row of ``per_row_sides``.

    ``ana`` is an ``ErrorAnalyzer`` or any record of its ``code``, ``w`` and
    ``p_fail``; the decoder oracles read nothing else of it.
    """
    side = _sides(ana.code, ana.w)[basis]
    a, pf = eta * eta, ana.p_fail
    return (1.0 - pf) ** side["s"] * pf ** side["f"] * a ** (side["s"] + side["f"]) * (1.0 - a) ** side["l"]


def pattern_error_rates(ana, basis: str, epsilon: float) -> np.ndarray:
    """Per-pattern error rates from every pattern's own weight row, raised to float powers."""
    bias = flip_bias(epsilon)
    rows = _sides(ana.code, ana.w)[basis]["weights"]
    out = np.zeros(len(rows), dtype=np.float64)
    for m in {len(row) for row in rows}:
        at = [i for i, row in enumerate(rows) if len(row) == m]
        wmat = np.array([rows[i] for i in at]).astype(np.float64)
        t = fwht_blocks(bias**wmat) / float(m)
        out[at] = np.minimum(t[:, : m // 2], t[:, m // 2 :]).sum(axis=1)
    return out


def error_rates(ana, eta: float, epsilon: float, corrections: bool = True) -> dict[str, float]:
    """Erasure-weighted logical error rate per parity at one (eta, epsilon) point.

    Without corrections a pattern's rate is the chance that its readable
    logical representative (the table's lowest one) has an odd number of
    flipped pairs, 0.5 (1 - bias^weight): the decoder's uncorrected baseline.
    """
    result = {}
    for basis in ("X", "Z"):
        p = pattern_probabilities(ana, basis, eta)
        total = p.sum()
        if total <= 0.0:
            result[basis] = 0.0
            continue
        if corrections:
            perr = pattern_error_rates(ana, basis, epsilon)
        else:
            reps = signed_logical_set(ana.code, basis)
            rep_of = rep_index_scan(CodeFusionTable(ana.code), basis)[_sides(ana.code, ana.w)[basis]["idxs"]]
            weight = np.array([(reps[k].x_bits | reps[k].z_bits).bit_count() for k in rep_of.tolist()], dtype=np.float64)
            perr = 0.5 * (1.0 - flip_bias(epsilon) ** weight)
        result[basis] = float(np.dot(p, perr) / total)
    return result


# -- the decoder in exact integers: one-hot Walsh pairs and a Sturm count ----


@lru_cache(maxsize=64)
def walsh_pairs(code, w: tuple[int, ...]) -> dict[str, dict[tuple, dict[tuple[int, int], int]]]:
    """Per parity, every syndrome's pair (A, B) mapped to its multiplicity per (s, f) over the recovering patterns.

    A and B are integer coefficient tuples in beta, constant first, at
    denominator 2^n.  Each pattern's weight row r becomes the one-hot
    integer matrix E[k, v] = [r[v] == k]; its block-loop Walsh transform
    along v holds, at column u, the coefficients of
    sum_v (-1)^(u.v) beta^r[v].  A is column u and B column u + m/2, for
    u < m/2.
    """
    n = code.n_code
    out = {}
    for basis, side in _sides(code, w).items():
        table: dict[tuple, dict[tuple[int, int], int]] = {}
        for s, f, row in zip(side["s"].tolist(), side["f"].tolist(), side["weights"]):
            m = len(row)
            onehot = (np.arange(n + 1)[:, None] == row.astype(np.int64)[None, :]).astype(np.int64)
            t = (fwht_blocks(onehot) * ((1 << n) // m)).T.tolist()
            for u in range(m // 2):
                per_sf = table.setdefault((tuple(t[u]), tuple(t[u + m // 2])), {})
                per_sf[(int(s), int(f))] = per_sf.get((int(s), int(f)), 0) + 1
        out[basis] = table
    return out


def lower_side(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The one of A and B that is lower just below beta = 1, by the Taylor
    coefficients of D = A - B there: D(1 - x) has x^j coefficient
    (-1)^j sum_k d_k C(k, j).  B where they are equal."""
    d = [p - q for p, q in zip(a, b)]
    for j in range(len(d)):
        c = (-1) ** j * sum(dk * comb(k, j) for k, dk in enumerate(d) if k >= j)
        if c:
            return b if c > 0 else a
    return b


def fold_pairs(table: dict) -> tuple[dict, dict]:
    """(lower, differences) of a ``walsh_pairs`` table: per (s, f) the weighted sum of every
    pair's lower side, and per difference D = other - lower (D != 0) its weight per (s, f)."""
    lower: dict[tuple[int, int], list[int]] = {}
    diffs: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for (a, b), per_sf in table.items():
        lo = lower_side(a, b)
        d = tuple(p + q - 2 * r for p, q, r in zip(a, b, lo))
        for sf, c in per_sf.items():
            acc = lower.setdefault(sf, [0] * len(a))
            for k, v in enumerate(lo):
                acc[k] += c * v
            if any(d):
                diffs.setdefault(d, {})
                diffs[d][sf] = diffs[d].get(sf, 0) + c
    return {sf: tuple(v) for sf, v in lower.items()}, diffs


def exact_error_rates(ana, eta: float, beta: Fraction) -> dict[str, Fraction]:
    """The decoded rate per parity in exact rationals: min(A, B) of every
    ``walsh_pairs`` entry at flip bias ``beta``, weighted by exact pattern
    probabilities at ``eta`` and ``ana.p_fail`` (each float read exactly)."""
    n, a, pf = ana.code.n_code, Fraction(eta) ** 2, Fraction(ana.p_fail)
    result = {}
    for basis, table in walsh_pairs(ana.code, ana.w).items():
        side = _sides(ana.code, ana.w)[basis]
        prob = {}
        for s, f in zip(side["s"].tolist(), side["f"].tolist()):
            s, f = int(s), int(f)
            prob[(s, f)] = (1 - pf) ** s * pf**f * a ** (s + f) * (1 - a) ** (n - s - f)
        total = sum(prob[(int(s), int(f))] for s, f in zip(side["s"].tolist(), side["f"].tolist()))
        if total == 0:
            result[basis] = Fraction(0)
            continue
        num = Fraction(0)
        for (pa, pb), per_sf in table.items():
            low = min(sum(c * beta**k for k, c in enumerate(pa)), sum(c * beta**k for k, c in enumerate(pb)))
            num += low * sum(prob[sf] * c for sf, c in per_sf.items())
        result[basis] = num / (total * (1 << n))
    return result


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b, coefficient lists constant first, b's top coefficient nonzero."""
    a = list(a)
    while len(a) >= len(b) and any(a):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for k, c in enumerate(b):
            a[shift + k] -= q * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def sturm_roots(d) -> int:
    """Distinct real roots of the integer polynomial D (constant first) in the open interval (0, 1), by Sturm's theorem.

    Roots at 0 and 1 are divided out first, so that neither end is a
    root; then V(0) - V(1), the drop in sign changes along the Sturm
    chain D, D', -rem(...), counts the distinct roots between.  0 for D = 0.
    """
    p = [Fraction(c) for c in d]
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return 0
    while p[0] == 0:
        p.pop(0)
    while len(p) > 1 and sum(p) == 0:  # divide by (1 - beta): quotient coefficients are the prefix sums
        p = [sum(p[: k + 1]) for k in range(len(p) - 1)]
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while chain[-1]:
        chain.append([-c for c in _poly_rem(chain[-2], chain[-1])])
    chain.pop()

    def changes(x: Fraction) -> int:
        signs = [v > 0 for v in (sum(c * x**k for k, c in enumerate(q)) for q in chain) if v != 0]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return changes(Fraction(0)) - changes(Fraction(1))


def correctable_region(code, bias, err, p_fail=0.5, grid_points=21, epsilon_cap=0.2) -> list[tuple[float, float]]:
    """(gamma, boundary epsilon) pairs by one scalar bisection per grid point, on the per-row decoder above."""
    result = package_loss_threshold(code, bias, p_fail)
    gamma_star = result.gamma_star
    if gamma_star <= 0.0:
        return []
    w = sum(1 << i for i, b in enumerate(result.w_star) if b)
    cx, cz = (c[w : w + 1] for c in eta2_float_coeffs(*CodeFusionTable(code).bernstein(p_fail)))
    decoder = SimpleNamespace(code=code, w=result.w_star, p_fail=p_fail)
    points = []
    for i in range(grid_points):
        gamma = gamma_star * i / (grid_points - 1)
        p_xx, p_zz = erasure_rates(cx, cz, gamma)
        p_bar = float(0.5 * (p_xx + p_zz)[0])
        eps_m = err.epsilon_m(p_bar)

        def feasible(eps):
            r = error_rates(decoder, 1.0 - gamma, eps)
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


def is_tree(g: GraphState) -> bool:
    if len(g.edges) != g.n - 1:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def _rooted_tree_key(g: GraphState, root: int) -> str:
    """AHU canonical encoding of a tree rooted at ``root``."""

    def encode(v: int, parent: int) -> str:
        children = sorted(encode(u, v) for u in g.neighbors(v) if u != parent)
        return "(" + "".join(children) + ")"

    return encode(root, -1)


def canonical_key(g: GraphState) -> str:
    """Canonical string identifying (graph, emitter) up to isomorphism.

    Rooted canonical labeling with the emitter pinned as root.  Every
    single-emitter progenitor is a tree, so other graphs are rejected.
    """
    if not is_tree(g):
        raise ValueError("marked canonical key implemented for trees only")
    return "T" + _rooted_tree_key(g, g.emitter)


def progenitor_scan(n_photons: int) -> list[ProgenitorRecord]:
    """Distinct marked graphs reachable with ``n_photons`` emissions, by
    brute force: scans every LEAF/PATH_EDGE string, dedupes by
    ``canonical_key`` and keeps the first string of each class in
    binary-counter order.  No size cap."""
    found: dict[str, ProgenitorRecord] = {}
    for s in range(1 << n_photons):
        ops = "".join("P" if (s >> i) & 1 else "L" for i in range(n_photons))
        g = build_progenitor(ops)
        found.setdefault(canonical_key(g), ProgenitorRecord(ops, g))
    return list(found.values())


def _unmarked_tree_key(g) -> str:
    """Canonical key of a tree ignoring the emitter mark (centroid rooted)."""
    if g.n == 1:
        return "T()"
    # peel leaves down to the one or two centroids
    degree = {v: len(g.neighbors(v)) for v in range(g.n)}
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
    return {canonical_key(rec.graph): rec.sequence for rec in progenitor_scan(n_photons)}


def outer_sequence_scan(g) -> str | None:
    """First op string in binary-counter order whose progenitor is ``g``
    up to isomorphism, emitter mark ignored; ``g`` must be a tree."""
    return _unmarked_index(g.n - 1).get(_unmarked_tree_key(g)) if g.n > 1 else ""


def marked_sequence_scan(g) -> str | None:
    """First op string in binary-counter order whose progenitor is ``g``
    up to isomorphism with the emitter pinned; ``g`` must be a tree."""
    return _marked_index(g.n - 1).get(canonical_key(g)) if g.n > 1 else ""


# -- small helpers only tests use -------------------------------------------


def compile_graph(outer: GraphState, inner_ops: str, mode):
    """``compile_generation`` of an outer graph, read as letters by the spine walk."""
    return compile_generation(derive_outer_sequence(outer), inner_ops, mode)


def graph_to_json(g: GraphState) -> str:
    return json.dumps(g.to_json_dict(), sort_keys=True)


def graph_from_json(text: str) -> GraphState:
    return GraphState.from_json_dict(json.loads(text))


def pauli_from_string(text: str) -> PauliOperator:
    """Parse '+XIZ', '-Y Y', 'XZ' (optional sign, optional spaces); the leftmost letter is qubit 0."""
    s = text.strip().replace(" ", "")
    phase = 0
    if s and s[0] in "+-":
        phase = 0 if s[0] == "+" else 2
        s = s[1:]
    if not s:
        raise ValueError(f"empty Pauli string: {text!r}")
    x = z = 0
    for i, ch in enumerate(s):
        try:
            xb, zb = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[ch.upper()]
        except KeyError:
            raise ValueError(f"bad Pauli letter {ch!r} in {text!r}") from None
        x |= xb << i
        z |= zb << i
    return PauliOperator(len(s), x, z, phase)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic inner product of a and b is even."""
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts differ: {a.n} vs {b.n}")
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2 == 0


def qubitwise_commutes(a: PauliOperator, available_x: int, available_z: int) -> bool:
    """True iff ``a`` is reconstructible qubit by qubit from measured parities.

    ``available_x`` / ``available_z`` are bit masks of the qubits whose X /
    Z parity was recovered.  An X letter needs the X parity, Z needs Z,
    Y needs both; identity letters need nothing.
    """
    return (a.x_bits & ~available_x) == 0 and (a.z_bits & ~available_z) == 0


def dual_failure_basis(w: tuple[int, ...], swapped_qubit: int) -> tuple[int, ...]:
    """Failure basis seen by the dual code: flip the bit at the pivot qubit."""
    return tuple((1 - b) if i == swapped_qubit else b for i, b in enumerate(w))


def validate_dual_swap(code: GraphCode, dual: GraphCode, swapped_qubit: int, p_fail=0.5) -> bool:
    """Check the exact polynomial swap p_xx <-> p_zz for every basis.

    Compares the Bernstein numerators of all 2^n bases at once, which
    fix the eta^2 numerators: the code's XX (ZZ) row under w must equal
    the dual's ZZ (XX) row under w with the pivot bit flipped.
    """
    flipped = np.arange(1 << code.n_code) ^ (1 << swapped_qubit)
    swapped = CodeFusionTable(dual).bernstein(p_fail)[0][::-1, flipped]
    return np.array_equal(CodeFusionTable(code).bernstein(p_fail)[0], swapped)


# Letter images under conjugation by the local-complementation Clifford
# at q (an X-axis quarter rotation on q, Z-axis quarter rotations on its
# neighbors).  Entries are (letter, sign).
_LC_ON_VERTEX = {"X": ("X", 1), "Y": ("Z", 1), "Z": ("Y", -1), "I": ("I", 1)}
_LC_ON_NEIGHBOR = {"X": ("Y", -1), "Y": ("X", 1), "Z": ("Z", 1), "I": ("I", 1)}


def lc_pauli_transform(p: PauliOperator, q: int, g: GraphState) -> PauliOperator:
    """Image of ``p`` under the local complementation at ``q`` of ``g``.

    Per-qubit substitution with signs multiplied through; qubit support
    is preserved.  The convention is fixed so that the stabilizer group
    of ``g`` maps exactly onto that of ``local_complement(g, q)``.
    """
    if p.n != g.n:
        raise ValueError("operator size does not match graph")
    if not 0 <= q < g.n:
        raise ValueError(f"vertex {q} out of range")
    nbr = g.neighbors(q)
    x = z = 0
    phase = p.phase
    for v in range(g.n):
        letter = p.letter(v)
        if v == q:
            letter, sgn = _LC_ON_VERTEX[letter]
        elif v in nbr:
            letter, sgn = _LC_ON_NEIGHBOR[letter]
        else:
            sgn = 1
        if sgn < 0:
            phase += 2
        if letter in ("X", "Y"):
            x |= 1 << v
        if letter in ("Z", "Y"):
            z |= 1 << v
    return PauliOperator(p.n, x, z, phase)
