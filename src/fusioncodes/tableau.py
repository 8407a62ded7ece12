"""Sign-exact stabilizer tableau for verifying Clifford generation circuits.

Tracks stabilizer generators only (no destabilizers): the circuits
verified here consist of |+> preparations, CZ gates and X measurements
postselected on +1, so measurement updates never need an outcome drawn
from destabilizer bookkeeping.  Generator r is the Pauli string with X
bits ``xs[r]`` and Z bits ``zs[r]``, with sign -1 iff bit r of ``signs``
is set; products take their sign from ``pauli.product_phase``.  Two pure
states on the same wires are equal iff every generator of one is a +1
element of the other's group, so ``first_non_member`` is an exact,
sign-exact state-equality check (the deterministic-measurement test of
Aaronson and Gottesman's CHP).  Membership runs on ``pauli.gf2_reduce``
over the generators, each tagged with its index below its Pauli bits;
the row's sign is then that of the product of the generators its tags
name.  ``mismatch`` is the verifier's verdict: the first target
generator that fails, rendered by ``pauli.pauli_string``.
"""

from __future__ import annotations

from .pauli import BranchImpossible, gf2_reduce, pauli_string, product_phase


class StabilizerTableau:
    """n commuting generators with exact signs, one per wire."""

    def __init__(self, n: int):
        self.n = n
        self.xs = [1 << i for i in range(n)]  # all wires |+>
        self.zs = [0] * n
        self.signs = 0

    @staticmethod
    def graph_state(n: int, edges) -> "StabilizerTableau":
        tab = StabilizerTableau(n)
        for u, v in edges:
            tab.zs[u] |= 1 << v
            tab.zs[v] |= 1 << u
        return tab

    def cz(self, a: int, b: int) -> None:
        """Conjugate every generator by CZ(a, b).

        X_a -> X_a Z_b and X_b -> X_b Z_a; a generator picks up a sign
        when both X components are present and exactly one Z is (the
        XX <-> YY exchange).  A row with no X on a or b is unchanged."""
        if a == b:
            raise ValueError("CZ needs two distinct wires")
        touched = (1 << a) | (1 << b)
        xs, zs = self.xs, self.zs
        for r in [r for r, x in enumerate(xs) if x & touched]:
            xa, xb, z = xs[r] >> a & 1, xs[r] >> b & 1, zs[r]
            if xa and xb and (z >> a ^ z >> b) & 1:
                self.signs ^= 1 << r
            zs[r] = z ^ xa << b ^ xb << a

    def measure_x(self, wire: int) -> None:
        """Project wire onto X=+1 and update; raises if that branch is null."""
        bit = 1 << wire
        xs, zs = self.xs, self.zs
        anti = [r for r, z in enumerate(zs) if z & bit]
        if anti:
            p = anti[0]
            px, pz, ps = xs[p], zs[p], self.signs >> p & 1
            for r in anti[1:]:  # row r times the pivot
                if ps ^ product_phase(xs[r], zs[r], px, pz) >> 1:
                    self.signs ^= 1 << r
                xs[r] ^= px
                zs[r] ^= pz
            xs[p], zs[p] = bit, 0
            self.signs &= ~(1 << p)
            return
        # X_wire commutes with all n independent generators, so +X_wire or -X_wire is in the group
        if self.first_non_member([bit], [0], 0):
            raise BranchImpossible(f"forced +1 outcome on wire {wire} has zero probability")

    def reinit(self, wire: int) -> None:
        """No-op: the only measurements are +1 X projections, which leave |+>."""

    def mismatch(self, want: "StabilizerTableau") -> str | None:
        """Why this state is not ``want``, naming the first generator of
        ``want`` that is not a +1 element of this group, or None."""
        stray = self.first_non_member(want.xs, want.zs, want.signs)
        if stray is None:
            return None
        k, rest = stray
        text = pauli_string(want.n, want.xs[k], want.zs[k], 2 * (want.signs >> k & 1))
        how = "is missing from" if rest else "has sign -1 in"
        return f"target generator {k} ({text}) {how} the compiled group"

    def first_non_member(self, xs: list[int], zs: list[int], signs: int) -> tuple[int, int] | None:
        """Index and residue of the first row k, (``xs[k]``, ``zs[k]``) with
        sign -1 iff bit k of ``signs`` is set, that is not a +1 element of
        this group, or None.  The residue is the reduced row's Pauli part
        x | z << n: 0 (that is, -I) for a row the group holds with sign -1,
        nonzero for a row it does not hold at all.  The n generators are
        independent, so every pivot leads with a Pauli bit and a row is in
        the group iff its Pauli part reduces to zero; they commute, so the
        order of the tagged product does not matter.
        """
        n = self.n
        basis = gf2_reduce([(x | z << n) << n | 1 << r for r, (x, z) in enumerate(zip(self.xs, self.zs))])
        pivots = {b.bit_length() - 1: b for b in basis}
        for k, (x, z) in enumerate(zip(xs, zs)):
            rest = (x | z << n) << n
            while rest >> n and (rest.bit_length() - 1) in pivots:
                rest ^= pivots[rest.bit_length() - 1]
            if rest >> n:
                return k, rest >> n
            sign = signs >> k & 1
            while rest:  # the tag bits: multiply by the generators they name
                r = (rest & -rest).bit_length() - 1
                sign ^= (self.signs >> r & 1) ^ product_phase(x, z, self.xs[r], self.zs[r]) >> 1
                x ^= self.xs[r]
                z ^= self.zs[r]
                rest &= rest - 1
            if sign:
                return k, 0
        return None
