"""Single-logical-qubit graph codes derived from progenitor graph states.

Measuring the input vertex q of an (n+1)-vertex graph state in X with
outcome +1 leaves an n-qubit code word.  The logical operators are
X = product of Z over the neighbors of q, and Z = S_q0 Z_q for any
neighbor q0; the code stabilizers are the progenitor stabilizers (and
products) that act trivially on q.  A code holds them packed,
``x | z << n`` on the code qubits, all with sign +1.  Signed operators
exist only as rendered text: ``logical_set`` carries each element's
phase beside its packed int and returns the strings.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import PROGENITOR_CAP, GraphState, local_complement
from .pauli import ResourceCapExceeded, pauli_string, product_phase, span


class CodeConstructionError(ValueError):
    """The progenitor cannot be turned into a code (e.g. isolated input)."""


class GraphCode(NamedTuple):
    """Graph code with its logicals and stabilizers on the code qubits.

    Code qubit ``i`` is progenitor vertex ``code_qubits[i]`` (the
    progenitor vertices in increasing order with the input removed).
    ``logical_x``, ``logical_z`` and each of the n-1 ``stabilizers``
    are packed ``x | z << n`` with sign +1.
    """

    progenitor: GraphState
    input_qubit: int
    code_qubits: tuple[int, ...]
    logical_x: int
    logical_z: int
    stabilizers: tuple[int, ...]
    code_id: str = ""

    @property
    def n_code(self) -> int:
        return len(self.code_qubits)

    def code_index(self, vertex: int) -> int:
        return self.code_qubits.index(vertex)

    def to_json_dict(self) -> dict:
        n, low = self.n_code, (1 << self.n_code) - 1
        return {
            "code_id": self.code_id,
            "progenitor": self.progenitor.to_json_dict(),
            "input_qubit": self.input_qubit,
            "n_code": self.n_code,
            "logical_x": logical_set(self, "X"),
            "logical_z": logical_set(self, "Z"),
            "stabilizer_generators": [pauli_string(n, g & low, g >> n) for g in self.stabilizers],
        }


def code_from_progenitor(g: GraphState, code_id: str = "") -> GraphCode:
    """Build the code obtained by measuring the emitter vertex in X(+1).

    Graph-state generator S_v is X on v and Z on each neighbor.  The
    product of two of them carries no phase: where each has X on a
    vertex the other has Z on, the two letters give -i and +i.  So
    every operator below has sign +1.  Each acts trivially on q, logical
    Z once its Z_q cancels S_q0's Z there, so dropping bit q (and with
    it that Z) restricts it to the code qubits.
    """
    if g.n < 2:
        raise CodeConstructionError("progenitor needs at least two vertices")
    q = g.emitter
    nbrs = sorted(g.neighbors(q))
    if not nbrs:
        raise CodeConstructionError("input qubit is isolated")
    q0 = nbrs[0]
    n, low = g.n - 1, (1 << q) - 1

    def packed(x: int, z: int) -> int:
        """x | z << n on the code qubits: progenitor bit q dropped."""
        return (x & low | (x >> (q + 1)) << q) | (z & low | (z >> (q + 1)) << q) << n

    z0 = g.neighbor_mask(q0)
    stab = [packed(1 << q0 | 1 << i, z0 ^ g.neighbor_mask(i)) for i in nbrs[1:]]
    stab += [packed(1 << j, g.neighbor_mask(j)) for j in range(g.n) if j != q and j not in nbrs]
    return GraphCode(
        progenitor=g,
        input_qubit=q,
        code_qubits=tuple(v for v in range(g.n) if v != q),
        logical_x=packed(0, g.neighbor_mask(q)),
        logical_z=packed(1 << q0, z0),
        stabilizers=tuple(stab),
        code_id=code_id,
    )


def logical_set(code: GraphCode, basis: str) -> list[str]:
    """All 2^(n-1) signed representatives of the X or Z logical as strings, stable order.

    Element k is the anchor logical times the stabilizer generators
    whose bit is set in k, as ``packed_cosets`` orders them; the
    generators commute, so the product's sign does not depend on the
    order of its factors.  Each product is a packed int with its phase
    exponent, signed by ``product_phase``.
    """
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    n, low = code.n_code, (1 << code.n_code) - 1
    out = [(code.logical_x if basis == "X" else code.logical_z, 0)]
    for g in code.stabilizers:
        gx, gz = g & low, g >> n
        out += [(p ^ g, (k + product_phase(p & low, p >> n, gx, gz)) & 3) for p, k in out]
    return [pauli_string(n, p & low, p >> n, k) for p, k in out]


def packed_cosets(code: GraphCode) -> tuple[list[int], dict[str, list[int]]]:
    """(stab, reps) unsigned, packed x | z << n: ``stab[s]`` is generator subset s, ``reps[b][k]`` anchor ^ stab[k].

    Raises ``ResourceCapExceeded`` above ``PROGENITOR_CAP`` code qubits, before the 2^(n-1) elements
    (and the 4^n-state readable sets built from them) are spanned.
    """
    n = code.n_code
    if n > PROGENITOR_CAP:
        raise ResourceCapExceeded(f"{n} code qubits exceeds cap {PROGENITOR_CAP}")
    stab = span(list(code.stabilizers))
    return stab, {"X": [code.logical_x ^ s for s in stab], "Z": [code.logical_z ^ s for s in stab]}


def dual_code_with_map(code: GraphCode) -> tuple[GraphCode, int]:
    """Dual code plus the code-qubit index whose failure basis flips.

    The dual progenitor is obtained by local complementation at the
    input qubit s, then at its lowest-index neighbor q*, then at s
    again.  On the input this swaps X and Z (so the logical roles swap);
    on every code qubit except q* the induced single-qubit Clifford is
    the identity permutation of {X, Y, Z}, while on q* it is the X<->Z
    transposition.  A fusion failure-basis vector therefore maps to the
    dual by flipping the single bit at q*.
    """
    g, s = code.progenitor, code.input_qubit
    q_star = min(g.neighbors(s))
    for v in (s, q_star, s):
        g = local_complement(g, v)
    dual = code_from_progenitor(g, code_id=code.code_id + "*" if code.code_id else "")
    return dual, code.code_index(q_star)


def dual_swap_holds(code: GraphCode, dual: GraphCode, swapped_qubit: int) -> bool:
    """Whether the code's X (Z) logical coset is the dual's Z (X) coset with x and z exchanged at ``swapped_qubit``.

    Flipping that qubit's failure-basis bit swaps the ZZ and XX parities of its failed pairs, which the exchange
    maps onto each other, so equal cosets give equal readable sets: the code's XX (ZZ) success polynomial under
    every basis w is the dual's ZZ (XX) one under w with that bit flipped.
    """
    flip = 1 << swapped_qubit | 1 << (swapped_qubit + code.n_code)
    mine, theirs = packed_cosets(code)[1], packed_cosets(dual)[1]
    # x and z differ at the qubit exactly when v & flip has one bit set; exchanging them is then v ^ flip
    swapped = {b: {v ^ flip if (v & flip).bit_count() == 1 else v for v in theirs[b]} for b in "XZ"}
    return set(mine["X"]) == swapped["Z"] and set(mine["Z"]) == swapped["X"]
