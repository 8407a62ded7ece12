"""Exact n-qubit Pauli algebra in bit-packed symplectic form.

Codes and the fusion layer hold a Pauli as one integer ``x | z << n``:
bit i of x / z is the X / Z component on qubit i (X = (1,0), Z = (0,1),
Y = (1,1) with the Hermitian convention Y = iXZ).  Every generator and
anchor logical of a graph code has sign +1, so those ints carry no sign.
``PauliOperator`` is the signed form that renders logical sets and
stabilizer strings.  Its phase is a power of i, so that multiplication
stays exactly associative, e.g. (XZ)^2 = -I.  ``product_phase`` is the
one phase rule, shared by ``multiply`` and the stabilizer tableau's
int rows.
"""

from __future__ import annotations

from typing import NamedTuple


class DimensionMismatch(ValueError):
    """Two operators act on different qubit counts."""


class ResourceCapExceeded(RuntimeError):
    """An enumeration would exceed its configured cap."""


# ConfigError, CompileError and VerificationError live here, where the CLI
# can catch them without importing the modules that raise them.
class ConfigError(ValueError):
    """A configuration file violates the expected schema."""


class CompileError(ValueError):
    """The requested target cannot be compiled."""


class VerificationError(RuntimeError):
    """A compiled sequence failed verification."""


# Records are NamedTuples: equality and hashing by value, no per-class
# generated code.  One that validates subclasses its fields and checks
# them in ``__new__``, which builds the tuple directly.


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


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Product ``a * b`` with exact phase bookkeeping."""
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts differ: {a.n} vs {b.n}")
    phase = a.phase + b.phase + product_phase(a.x_bits, a.z_bits, b.x_bits, b.z_bits)
    return PauliOperator(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits, phase)


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
