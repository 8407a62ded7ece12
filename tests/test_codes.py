import numpy as np
import pytest

from fusioncodes.codes import (
    CodeConstructionError,
    code_from_progenitor,
    dual_code_with_map,
    logical_set,
)
from fusioncodes.graphs import GraphState, build_progenitor, enumerate_progenitor_records
from fusioncodes.pauli import enumerate_group

from oracles import commutes, dense_graph_state, op_matrix, pauli_from_string, pauli_matrix, project


def all_codes(max_photons):
    for n in range(1, max_photons + 1):
        for rec in enumerate_progenitor_records(n):
            yield code_from_progenitor(rec.graph, code_id=rec.sequence)


class TestConstruction:
    def test_bare_code_from_edge(self):
        code = code_from_progenitor(build_progenitor("L"))
        assert code.n_code == 1
        assert code.logical_x.to_string() == "+Z"
        assert code.logical_z.to_string() == "+X"
        assert code.stabilizers.k == 0

    def test_star_code_matches_hand_derivation(self):
        code = code_from_progenitor(build_progenitor("LL"))
        assert code.logical_x.to_string() == "+ZZ"
        assert code.logical_z.to_string() == "+XI"
        assert [g.to_string() for g in code.stabilizers.generators] == ["+XX"]

    def test_star_code_against_matrix_oracle(self):
        # stabilizer of the projected state must contain the constructed
        # operators: S psi = psi, Xbar psi = psi
        g = build_progenitor("LL")
        state = dense_graph_state(3, g.edges)
        proj = project(state, pauli_matrix("XII"), +1)  # input qubit is vertex 0
        proj = proj / np.linalg.norm(proj)
        code = code_from_progenitor(g)
        for op in [code.logical_x, *code.stabilizers.generators]:
            full = np.kron(op_matrix(op), np.eye(2))  # code qubits 1,2 sit above vertex 0
            assert np.allclose(full @ proj, proj, atol=1e-12)

    def test_isolated_input_rejected(self):
        g = GraphState.from_edges(3, [(1, 2)], emitter=0)
        with pytest.raises(CodeConstructionError):
            code_from_progenitor(g)

    def test_logicals_anticommute_for_all_small_codes(self):
        for code in all_codes(5):
            assert not commutes(code.logical_x, code.logical_z)

    def test_stabilizer_count(self):
        for code in all_codes(5):
            assert code.stabilizers.k == code.n_code - 1


class TestLogicalSets:
    def test_bare_code_single_element(self):
        code = code_from_progenitor(build_progenitor("L"))
        assert [p.to_string() for p in logical_set(code, "X")] == ["+Z"]

    def test_star_code_two_elements(self):
        code = code_from_progenitor(build_progenitor("LL"))
        xs = [p.to_string() for p in logical_set(code, "X")]
        # frozen from the matrix oracle: ZZ * XX = -YY
        assert xs == ["+ZZ", "-YY"]
        prod = op_matrix(code.logical_x) @ op_matrix(code.stabilizers.generators[0])
        assert np.allclose(prod, pauli_matrix("YY", sign=-1), atol=1e-12)

    def test_set_sizes(self):
        for code in all_codes(6):
            assert len(logical_set(code, "X")) == 2 ** (code.n_code - 1)
            assert len(logical_set(code, "Z")) == 2 ** (code.n_code - 1)

    def test_commutation_structure(self):
        for code in all_codes(4):
            stabs = enumerate_group(code.stabilizers)
            for lx in logical_set(code, "X"):
                for lz in logical_set(code, "Z"):
                    assert not commutes(lx, lz)
                for s in stabs:
                    assert commutes(lx, s)
            for lz in logical_set(code, "Z"):
                for s in stabs:
                    assert commutes(lz, s)


class TestStateVectorOracle:
    @pytest.mark.parametrize("max_photons", [3])
    def test_projected_progenitor_is_stabilized_by_the_code(self, max_photons):
        for n in range(1, max_photons + 1):
            for rec in enumerate_progenitor_records(n):
                g = rec.graph
                code = code_from_progenitor(g)
                state = dense_graph_state(g.n, g.edges)
                letters = ["I"] * g.n
                letters[g.emitter] = "X"
                proj = project(state, pauli_matrix("".join(letters)), +1)
                proj = proj / np.linalg.norm(proj)
                # lift code-qubit operators back to progenitor qubits
                for op in [code.logical_x, *code.stabilizers.generators]:
                    text, sign = op.to_string()[1:], op.sign
                    lifted = ["I"] * g.n
                    for i, v in enumerate(code.code_qubits):
                        lifted[v] = text[i]
                    mat = pauli_matrix("".join(lifted), sign)
                    assert np.allclose(mat @ proj, proj, atol=1e-12), (rec.sequence, str(op))
                # logical Z anticommutes: expectation must vanish
                text, sign = code.logical_z.to_string()[1:], code.logical_z.sign
                lifted = ["I"] * g.n
                for i, v in enumerate(code.code_qubits):
                    lifted[v] = text[i]
                mat = pauli_matrix("".join(lifted), sign)
                assert abs(np.vdot(proj, mat @ proj)) < 1e-12


class TestDualCode:
    def test_dual_of_bare_code(self):
        code = code_from_progenitor(build_progenitor("L"))
        dual = dual_code_with_map(code)[0]
        assert dual.logical_x.to_string() in ("+Z", "-Z")

    def test_dual_swaps_logical_supports(self):
        for code in all_codes(5):
            dual = dual_code_with_map(code)[0]
            x_supports = sorted(p.x_bits | p.z_bits for p in logical_set(code, "X"))
            z_supports = sorted(p.x_bits | p.z_bits for p in logical_set(code, "Z"))
            assert sorted(p.x_bits | p.z_bits for p in logical_set(dual, "Z")) == x_supports
            assert sorted(p.x_bits | p.z_bits for p in logical_set(dual, "X")) == z_supports

    def test_stabilizer_supports_invariant(self):
        for code in all_codes(6):
            dual = dual_code_with_map(code)[0]
            mine = sorted(p.x_bits | p.z_bits for p in enumerate_group(code.stabilizers))
            theirs = sorted(p.x_bits | p.z_bits for p in enumerate_group(dual.stabilizers))
            assert mine == theirs

    def test_dual_of_dual_restores_logical_structure(self):
        # The two LC sweeps may pick different pivot neighbors, so the
        # double dual can land on an LC-equivalent progenitor rather than
        # the same marked graph; the code structure itself round-trips.
        for code in all_codes(4):
            double = dual_code_with_map(dual_code_with_map(code)[0])[0]
            assert double.n_code == code.n_code
            for basis in ("X", "Z"):
                assert sorted(p.x_bits | p.z_bits for p in logical_set(double, basis)) == sorted(
                    p.x_bits | p.z_bits for p in logical_set(code, basis)
                )
            assert sorted(p.x_bits | p.z_bits for p in enumerate_group(double.stabilizers)) == sorted(
                p.x_bits | p.z_bits for p in enumerate_group(code.stabilizers)
            )

    def test_swapped_qubit_is_input_neighbor(self):
        for code in all_codes(4):
            _, idx = dual_code_with_map(code)
            vertex = code.code_qubits[idx]
            assert vertex in code.progenitor.neighbors(code.input_qubit)

    def test_dual_per_qubit_letter_map(self):
        # On every code qubit except q* the dual transport acts as the
        # identity permutation of letters; on q* it swaps X and Z.
        from fusioncodes.graphs import local_complement
        from oracles import lc_pauli_transform

        for code in all_codes(4):
            g = code.progenitor
            s = code.input_qubit
            q_star = min(g.neighbors(s))
            g1 = local_complement(g, s)
            g2 = local_complement(g1, q_star)
            swap = {"I": "I", "X": "Z", "Z": "X", "Y": "Y"}
            for gen in [code.logical_x, code.logical_z]:
                # lift to progenitor, transport, compare letters
                lifted = ["I"] * g.n
                for i, v in enumerate(code.code_qubits):
                    lifted[i if False else v] = gen.letter(i)
                p = pauli_from_string("".join(lifted))
                img = lc_pauli_transform(p, s, g)
                img = lc_pauli_transform(img, q_star, g1)
                img = lc_pauli_transform(img, s, g2)
                for v in code.code_qubits:
                    want = swap[p.letter(v)] if v == q_star else p.letter(v)
                    assert img.letter(v) == want
