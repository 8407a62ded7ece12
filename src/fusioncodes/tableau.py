"""Sign-exact stabilizer tableau for verifying Clifford generation circuits.

Tracks stabilizer generators only (no destabilizers): the circuits
verified here consist of |+> preparations, CZ gates and X measurements
postselected on +1, so measurement updates never need an outcome drawn
from destabilizer bookkeeping.  Signs are carried exactly through the
bit-packed Pauli arithmetic.  Two pure states on the same wires are
equal iff every generator of one is a +1 element of the other's group,
so ``first_non_member`` is an exact, sign-exact state-equality check
(the deterministic-measurement test of Aaronson and Gottesman's CHP).
Membership runs on ``pauli.gf2_reduce`` over the generators, each tagged
with its index below its Pauli bits; the row's sign is then that of
the product of the generators its tags name.
"""

from __future__ import annotations

from .pauli import PauliOperator, gf2_reduce, multiply


class BranchImpossible(RuntimeError):
    """The forced +1 measurement branch has zero probability."""


class StabilizerTableau:
    """n commuting generators with exact signs, one per wire."""

    def __init__(self, n: int):
        self.n = n
        self.rows = [PauliOperator.single(n, i, "X") for i in range(n)]  # all wires |+>

    @staticmethod
    def graph_state(n: int, edges) -> "StabilizerTableau":
        tab = StabilizerTableau(n)
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        tab.rows = [PauliOperator(n, 1 << i, adj[i], 0) for i in range(n)]
        return tab

    def cz(self, a: int, b: int) -> None:
        """Conjugate every generator by CZ(a, b).

        X_a -> X_a Z_b and X_b -> X_b Z_a; a generator picks up a sign
        when both X components are present and exactly one Z is (the
        XX <-> YY exchange).  A row with no X on a or b is unchanged."""
        if a == b:
            raise ValueError("CZ needs two distinct wires")
        touched = (1 << a) | (1 << b)
        new_rows = []
        for row in self.rows:
            if not row.x_bits & touched:
                new_rows.append(row)
                continue
            xa = (row.x_bits >> a) & 1
            xb = (row.x_bits >> b) & 1
            za = (row.z_bits >> a) & 1
            zb = (row.z_bits >> b) & 1
            z = row.z_bits ^ (xa << b) ^ (xb << a)
            phase = row.phase + (2 if xa and xb and (za ^ zb) else 0)
            new_rows.append(PauliOperator(row.n, row.x_bits, z, phase))
        self.rows = new_rows

    def measure_x(self, wire: int) -> None:
        """Project wire onto X=+1 and update; raises if that branch is null."""
        x_row = PauliOperator.single(self.n, wire, "X")
        anti = [k for k, row in enumerate(self.rows) if (row.z_bits >> wire) & 1]
        if anti:
            pivot = self.rows[anti[0]]
            for k in anti[1:]:
                self.rows[k] = multiply(self.rows[k], pivot)
            self.rows[anti[0]] = x_row
            return
        # X_wire commutes with all n independent generators, so +X_wire or -X_wire is in the group
        if self.first_non_member([x_row]):
            raise BranchImpossible(f"forced +1 outcome on wire {wire} has zero probability")

    def reinit(self, wire: int) -> None:
        """No-op: the only measurements are +1 X projections, which leave |+>."""

    def first_non_member(self, rows: list[PauliOperator]) -> tuple[int, PauliOperator] | None:
        """Index and residue of the first of ``rows`` that is not a +1
        element of this group, or None.  The residue is -I for a row the
        group holds with sign -1, and not proportional to I for a row it
        does not hold at all.  The n generators are independent, so every
        pivot leads with a Pauli bit and a row is in the group iff its
        Pauli part reduces to zero; they commute, so the order of the
        tagged product does not matter.
        """
        n = self.n
        basis = gf2_reduce([_key(g) << n | 1 << r for r, g in enumerate(self.rows)])
        pivots = {b.bit_length() - 1: b for b in basis}
        for k, row in enumerate(rows):
            rest = _key(row) << n
            while rest >> n and (rest.bit_length() - 1) in pivots:
                rest ^= pivots[rest.bit_length() - 1]
            if rest >> n:
                return k, PauliOperator(n, rest >> n & ((1 << n) - 1), rest >> 2 * n)
            while rest:  # the tag bits: multiply by the generators they name
                row = multiply(row, self.rows[(rest & -rest).bit_length() - 1])
                rest &= rest - 1
            if row.phase:
                return k, PauliOperator(n, 0, 0, 2)
        return None


def _key(row: PauliOperator) -> int:
    return row.x_bits | (row.z_bits << row.n)
