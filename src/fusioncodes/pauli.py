"""Exact n-qubit Pauli algebra in bit-packed symplectic form.

Everything in the package holds a Pauli as one integer ``x | z << n``,
or as its two halves x and z: bit i of x / z is the X / Z component on
qubit i (X = (1,0), Z = (0,1), Y = (1,1) with the Hermitian convention
Y = iXZ).  Every generator and anchor logical of a graph code has sign
+1, so those ints carry no sign.  A sign is a phase exponent k of i^k
(mod 4) kept beside the bits; ``product_phase`` is the one phase rule,
used by the logical sets and the stabilizer tableau's int rows.  Signed
strings exist only as rendered text, from ``pauli_string``.
"""

from __future__ import annotations


class ResourceCapExceeded(RuntimeError):
    """An enumeration would exceed its configured cap."""


# ConfigError, CompileError and the verification errors live here, where
# the CLI can catch them without importing the modules that raise them.
class ConfigError(ValueError):
    """A configuration file violates the expected schema."""


class CompileError(ValueError):
    """The requested target cannot be compiled."""


class VerificationError(RuntimeError):
    """A compiled sequence failed verification."""


class BranchImpossible(VerificationError):
    """A verification backend's forced +1 measurement branch has zero probability."""


def product_phase(xa: int, za: int, xb: int, zb: int) -> int:
    """Exponent k (mod 4) of the factor i^k that the product of the Pauli
    strings (xa, za) and (xb, zb), in that order, picks up.

    Writing each letter canonically as i^(x z) X^x Z^z, the product picks
    up i^g per qubit with
    g = x_a z_a + x_b z_b + 2 z_a x_b - (x_a ^ x_b)(z_a ^ z_b)  (mod 4).
    The product of two commuting Hermitian strings is Hermitian: k is 0 or 2.
    """
    g = (xa & za).bit_count() + (xb & zb).bit_count() + 2 * (za & xb).bit_count()
    return (g - ((xa ^ xb) & (za ^ zb)).bit_count()) & 3


def pauli_string(n: int, x: int, z: int, phase: int = 0) -> str:
    """The Pauli string i^phase (x, z) as text: its sign ('+', '+i', '-'
    or '-i'), then one letter of "IXZY" per qubit, qubit 0 first."""
    sign = ("+", "+i", "-", "-i")[phase & 3]
    return sign + "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n))


def gf2_reduce(rows: list[int]) -> list[int]:
    """Independent basis (one row per leading bit) spanning the given rows."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            h = row.bit_length() - 1
            if h in basis:
                row ^= basis[h]
            else:
                basis[h] = row
                break
    return [basis[h] for h in sorted(basis, reverse=True)]


def span(gens: list[int]) -> list[int]:
    """Every XOR of a subset of ``gens``: subset s (bit j selects gens[j]) at index s."""
    out = [0]
    for g in gens:
        out += [v ^ g for v in out]
    return out
