import itertools
import random

import numpy as np
import pytest

from fusioncodes.pauli import pauli_string

from oracles import (
    DimensionMismatch,
    PauliOperator,
    StabilizerGroup,
    commutes,
    enumerate_group,
    identify_pauli,
    multiply,
    op_matrix,
    pauli_from_string,
    pauli_matrix,
    qubitwise_commutes,
    sign,
)


def P(text):
    return pauli_from_string(text)


class TestMultiply:
    def test_x_squared_is_identity(self):
        assert multiply(P("X"), P("X")) == P("+I")

    def test_xz_is_y_up_to_phase_and_squares_to_minus_identity(self):
        prod = multiply(P("X"), P("Z"))
        assert prod.x_bits == 1 and prod.z_bits == 1  # Y letter
        square = multiply(prod, prod)
        assert square.x_bits == 0 and square.z_bits == 0
        assert sign(square) == -1  # (XZ)^2 = -I

    def test_edge_graph_stabilizer_product_matches_matrix_oracle(self):
        # S1 = X0 Z1 and S2 = Z0 X1 for the two-vertex edge graph.
        s1, s2 = P("XZ"), P("ZX")
        prod = multiply(s1, s2)
        expected = op_matrix(s1) @ op_matrix(s2)
        found = identify_pauli(expected, 2)
        assert found is not None
        letters, sign = found
        assert prod.to_string() == ("+" if sign == 1 else "-") + letters
        # frozen value from the oracle: (X0Z1)(Z0X1) = +Y0Y1
        assert prod.to_string() == "+YY"

    def test_random_products_match_matrix_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 3)
            a = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 2 * rng.getrandbits(1))
            b = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 2 * rng.getrandbits(1))
            prod = multiply(a, b)
            mat = op_matrix(a) @ op_matrix(b)
            phase = (1j) ** prod.phase
            base = PauliOperator(n, prod.x_bits, prod.z_bits, 0)
            assert np.allclose(mat, phase * op_matrix(base), atol=1e-12)

    def test_associativity_including_signs(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 4)
            ops = [
                PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
                for _ in range(3)
            ]
            a, b, c = ops
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multiply(P("X"), P("XX"))


class TestCommutes:
    def test_x_vs_z_anticommute(self):
        assert not commutes(P("X"), P("Z"))

    def test_xx_vs_zz_commute(self):
        assert commutes(P("XX"), P("ZZ"))

    def test_matches_matrix_oracle_on_random_pairs(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 3)
            a = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 0)
            b = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), 0)
            ma, mb = op_matrix(a), op_matrix(b)
            assert commutes(a, b) == np.allclose(ma @ mb, mb @ ma, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutes(P("X"), P("XX"))


class TestQubitwiseCommutes:
    def test_identity_always_reconstructible(self):
        assert qubitwise_commutes(P("III"), 0, 0)

    def test_lost_qubit_blocks_everything(self):
        assert not qubitwise_commutes(P("XII"), 0b110, 0b111)

    def test_y_needs_both_parities(self):
        y = P("YI")
        assert qubitwise_commutes(y, 0b01, 0b01)
        assert not qubitwise_commutes(y, 0b01, 0b10)


class TestStabilizerGroup:
    def test_empty_group_enumerates_identity(self):
        grp = StabilizerGroup(2, ())
        assert enumerate_group(grp) == [PauliOperator(2, 0, 0)]

    def test_two_generators_enumerate_four_elements(self):
        grp = StabilizerGroup(2, (P("XX"), P("ZZ")))
        elems = enumerate_group(grp)
        assert len(elems) == 4
        assert len(set(elems)) == 4

    def test_three_vertex_path_group_mutually_commutes(self):
        # path 0-1-2 graph-state generators
        gens = (P("XZI"), P("ZXZ"), P("IZX"))
        elems = enumerate_group(StabilizerGroup(3, gens))
        assert len(elems) == 8
        for a in elems:
            for b in elems:
                assert commutes(a, b)

    def test_enumeration_closed_under_multiplication(self):
        gens = (P("XZI"), P("ZXZ"), P("IZX"))
        elems = enumerate_group(StabilizerGroup(3, gens))
        table = set(elems)
        for a in elems:
            for b in elems:
                assert multiply(a, b) in table

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            StabilizerGroup(2, (P("XX"), P("ZZ"), P("-YY")))

    def test_anticommuting_generators_rejected(self):
        with pytest.raises(ValueError, match="commute"):
            StabilizerGroup(1, (P("X"), P("Z")))

    def test_first_anticommuting_pair_is_reported(self):
        # pairs in itertools.combinations order: (0, 3) before (1, 2)
        with pytest.raises(ValueError, match=r"^generators do not commute: \+XI vs \+ZI$"):
            StabilizerGroup(2, (P("XI"), P("IX"), P("IZ"), P("ZI")))
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(1, 4)
            gens = tuple(PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(rng.randint(2, 6)))
            bad = [(a, b) for a, b in itertools.combinations(gens, 2) if not commutes(a, b)]
            if not bad:
                continue
            with pytest.raises(ValueError) as err:
                StabilizerGroup(n, gens)
            assert str(err.value) == f"generators do not commute: {bad[0][0]} vs {bad[0][1]}"


class TestRendering:
    @pytest.mark.parametrize("text", ["+XIZ", "-YY", "+I", "-XZZX"])
    def test_roundtrip(self, text):
        assert pauli_from_string(text).to_string() == text

    def test_parse_tolerates_spaces_and_no_sign(self):
        assert pauli_from_string("X I Y Z").to_string() == "+XIYZ"

    def test_sign_property(self):
        assert sign(P("-ZZ")) == -1
        with pytest.raises(ValueError, match="imaginary"):
            sign(multiply(P("X"), P("Z")))

    def test_pauli_string_matches_oracle_rendering(self):
        # up to the wire counts of compile's messages, and the +-i phases no code or generator carries
        rng = random.Random(25)
        for _ in range(300):
            n = rng.randint(1, 80)
            x, z = rng.getrandbits(n), rng.getrandbits(n)
            for k in range(4):
                assert pauli_string(n, x, z, k) == PauliOperator(n, x, z, k).to_string(), (n, x, z, k)
        assert pauli_string(3, 0b011, 0b110) == "+XYZ"
        assert [pauli_string(1, 1, 1, k) for k in range(4)] == ["+Y", "+iY", "-Y", "-iY"]

    def test_matrix_convention(self):
        # sanity-pin the oracle itself: Y = i X Z
        assert np.allclose(pauli_matrix("Y"), 1j * pauli_matrix("X") @ pauli_matrix("Z"))
