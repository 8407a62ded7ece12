"""Dense state-vector helpers for small graph states.

Qubit i is the i-th tensor factor with stride 2^i (little-endian), so
basis index b has qubit i in state (b >> i) & 1.  Only used for small
verification problems; everything here is plain numpy.
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliOperator


def plus_state(n: int) -> np.ndarray:
    v = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=complex)
    return v


def apply_cz(state: np.ndarray, i: int, j: int) -> np.ndarray:
    """Negate, in place, the amplitudes with qubits i and j both 1; returns ``state``."""
    lo, hi = min(i, j), max(i, j)
    # axes: rest, qubit hi, qubits between, qubit lo, qubits below
    view = state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo, copy=False)
    view[:, 1, :, 1] *= -1.0
    return state


def graph_state(n: int, edges) -> np.ndarray:
    state = plus_state(n)
    for u, v in edges:
        state = apply_cz(state, u, v)
    return state


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


def project_pauli(state: np.ndarray, p: PauliOperator, outcome: int) -> tuple[np.ndarray, float]:
    """Apply (I + outcome*P)/2; returns (unnormalized state, probability)."""
    out = 0.5 * (state + outcome * apply_pauli(state, p))
    prob = float(np.vdot(out, out).real)
    return out, prob


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    if a.shape != b.shape:
        return False
    overlap = abs(np.vdot(a, b))
    return abs(overlap - np.linalg.norm(a) * np.linalg.norm(b)) < tol


def project_x_plus(state: np.ndarray, qubit: int, n: int, outcome: int = 1) -> tuple[np.ndarray, float]:
    """Project qubit onto the X eigenstate with the given outcome."""
    p = PauliOperator.single(n, qubit, "X")
    return project_pauli(state, p, outcome)


def drop_plus_qubit(state: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Factor out a qubit in an X eigenstate (e.g. after X projection)."""
    full = state.reshape([2] * n, order="F")
    sel0 = np.take(full, 0, axis=qubit)
    sel1 = np.take(full, 1, axis=qubit)
    if not (np.allclose(sel0, sel1, atol=1e-9) or np.allclose(sel0, -sel1, atol=1e-9)):
        raise ValueError(f"qubit {qubit} is not in an X eigenstate")
    rest = sel0 * np.sqrt(2.0)
    return rest.reshape(-1, order="F")
