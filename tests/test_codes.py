import hashlib
import itertools
import json

import numpy as np
import pytest

from fusioncodes.codes import (
    CodeConstructionError,
    code_from_progenitor,
    dual_code_with_map,
    logical_set,
    packed_cosets,
)
from fusioncodes.graphs import GraphState, build_progenitor, enumerate_progenitor_records
from fusioncodes.pauli import ResourceCapExceeded, gf2_reduce

from oracles import (
    commutes,
    dense_graph_state,
    enumerate_group,
    op_matrix,
    pauli_from_string,
    pauli_matrix,
    project,
    sign,
    signed_code,
    signed_logical_set,
)


# sha256 per code size of every code's canonical to_json_dict(), then its dual's, one line each in enumeration order
CODE_JSON_SHA256 = {
    1: "a32850ebb48be10ec8db75d8707076051b172c826b86d3d6a6dac24bb7795e2b",
    2: "964d58a7a1296939a58486884477d0ebcd0b8cbdb96c5b8eb8807ccda4859be1",
    3: "eac544f7bbe59a17dc9911edcb685dafa447b0e504402ae9746961f0e358d900",
    4: "71574d677a9324f8bdabe2bacc7fcfa75902f4a86f7f6f6fc3fd95b921b9c87a",
    5: "0c0fd6bef6fe44a0e13751cb94d8487a044b6b9a1af75fc078d0536baab826e6",
    6: "72f23ddd5260a4458cdb6198d3dee09b4007111c8208a0de1e5ffc0c08e7df01",
    7: "1e0b477e6b1f0a0777afc897bf6837679a0206f3d0649c327988a4c1b43b22f9",
    8: "37d4411a457406b8dae139e2e0a56aafd30bbbf11da2c6013776d556d113dae9",
}


def all_codes(max_photons):
    for n in range(1, max_photons + 1):
        for rec in enumerate_progenitor_records(n):
            yield code_from_progenitor(rec.graph, code_id=rec.sequence)


def codes_and_duals(n):
    """Every code of size n, each followed by its dual: all the codes a command can build."""
    for rec in enumerate_progenitor_records(n):
        code = code_from_progenitor(rec.graph, code_id=rec.sequence)
        yield code
        yield dual_code_with_map(code)[0]


def anticommute(a, b, n):
    """Symplectic product of packed x | z << n operators: a's x against b's z plus a's z against b's x."""
    return (a & ((b >> n) | (b & ((1 << n) - 1)) << n)).bit_count() & 1


class TestConstruction:
    def test_bare_code_from_edge(self):
        code = code_from_progenitor(build_progenitor("L"))
        assert code.n_code == 1
        assert signed_code(code).logical_x.to_string() == "+Z"
        assert signed_code(code).logical_z.to_string() == "+X"
        assert signed_code(code).stabilizers.k == 0

    def test_star_code_matches_hand_derivation(self):
        code = code_from_progenitor(build_progenitor("LL"))
        assert signed_code(code).logical_x.to_string() == "+ZZ"
        assert signed_code(code).logical_z.to_string() == "+XI"
        assert [g.to_string() for g in signed_code(code).stabilizers.generators] == ["+XX"]

    def test_star_code_against_matrix_oracle(self):
        # stabilizer of the projected state must contain the constructed
        # operators: S psi = psi, Xbar psi = psi
        g = build_progenitor("LL")
        state = dense_graph_state(3, g.edges)
        proj = project(state, pauli_matrix("XII"), +1)  # input qubit is vertex 0
        proj = proj / np.linalg.norm(proj)
        code = code_from_progenitor(g)
        for op in [signed_code(code).logical_x, *signed_code(code).stabilizers.generators]:
            full = np.kron(op_matrix(op), np.eye(2))  # code qubits 1,2 sit above vertex 0
            assert np.allclose(full @ proj, proj, atol=1e-12)

    def test_isolated_input_rejected(self):
        g = GraphState.from_edges(3, [(1, 2)], emitter=0)
        with pytest.raises(CodeConstructionError):
            code_from_progenitor(g)

    def test_logicals_anticommute_for_all_small_codes(self):
        for code in all_codes(5):
            assert not commutes(signed_code(code).logical_x, signed_code(code).logical_z)

    def test_stabilizer_count(self):
        for code in all_codes(5):
            assert signed_code(code).stabilizers.k == code.n_code - 1


class TestPackedCodes:
    def test_group_invariants_of_every_code_and_dual(self):
        for n in range(1, 9):
            for code in codes_and_duals(n):
                lx, lz, gens = code.logical_x, code.logical_z, code.stabilizers
                assert all(type(v) is int for v in (lx, lz, *gens)), code.code_id
                assert len(gens) == n - 1, code.code_id
                assert not any(anticommute(a, b, n) for a, b in itertools.combinations(gens, 2)), code.code_id
                assert len(gf2_reduce(list(gens))) == n - 1, code.code_id
                assert anticommute(lx, lz, n), code.code_id
                assert not any(anticommute(anchor, g, n) for anchor in (lx, lz) for g in gens), code.code_id

    def test_code_json_bytes_are_pinned(self):
        for n, digest in CODE_JSON_SHA256.items():
            h = hashlib.sha256()
            for code in codes_and_duals(n):
                h.update((json.dumps(code.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n").encode())
            assert h.hexdigest() == digest, n

    def test_packed_cosets_cap(self):
        code = code_from_progenitor(build_progenitor("L" * 9))
        with pytest.raises(ResourceCapExceeded, match="^9 code qubits exceeds cap 8$"):
            packed_cosets(code)


class TestLogicalSets:
    def test_bare_code_single_element(self):
        code = code_from_progenitor(build_progenitor("L"))
        assert logical_set(code, "X") == ["+Z"]

    def test_star_code_two_elements(self):
        code = code_from_progenitor(build_progenitor("LL"))
        xs = logical_set(code, "X")
        # frozen from the matrix oracle: ZZ * XX = -YY
        assert xs == ["+ZZ", "-YY"]
        prod = op_matrix(signed_code(code).logical_x) @ op_matrix(signed_code(code).stabilizers.generators[0])
        assert np.allclose(prod, pauli_matrix("YY", sign=-1), atol=1e-12)

    def test_basis_is_x_or_z(self):
        code = code_from_progenitor(build_progenitor("LL"))
        with pytest.raises(ValueError, match="basis must be 'X' or 'Z'"):
            logical_set(code, "Y")

    def test_set_sizes(self):
        for code in all_codes(6):
            assert len(logical_set(code, "X")) == 2 ** (code.n_code - 1)
            assert len(logical_set(code, "Z")) == 2 ** (code.n_code - 1)

    def test_strings_render_the_signed_oracle_products(self):
        # the package signs by product_phase on packed ints; the oracle multiplies PauliOperators
        for code in all_codes(6):
            for basis in ("X", "Z"):
                want = [p.to_string() for p in signed_logical_set(code, basis)]
                assert logical_set(code, basis) == want, (code.code_id, basis)

    def test_commutation_structure(self):
        for code in all_codes(4):
            stabs = enumerate_group(signed_code(code).stabilizers)
            for lx in signed_logical_set(code, "X"):
                for lz in signed_logical_set(code, "Z"):
                    assert not commutes(lx, lz)
                for s in stabs:
                    assert commutes(lx, s)
            for lz in signed_logical_set(code, "Z"):
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
                for op in [signed_code(code).logical_x, *signed_code(code).stabilizers.generators]:
                    text, op_sign = op.to_string()[1:], sign(op)
                    lifted = ["I"] * g.n
                    for i, v in enumerate(code.code_qubits):
                        lifted[v] = text[i]
                    mat = pauli_matrix("".join(lifted), op_sign)
                    assert np.allclose(mat @ proj, proj, atol=1e-12), (rec.sequence, str(op))
                # logical Z anticommutes: expectation must vanish
                text, op_sign = signed_code(code).logical_z.to_string()[1:], sign(signed_code(code).logical_z)
                lifted = ["I"] * g.n
                for i, v in enumerate(code.code_qubits):
                    lifted[v] = text[i]
                mat = pauli_matrix("".join(lifted), op_sign)
                assert abs(np.vdot(proj, mat @ proj)) < 1e-12


class TestDualCode:
    def test_dual_of_bare_code(self):
        code = code_from_progenitor(build_progenitor("L"))
        dual = dual_code_with_map(code)[0]
        assert signed_code(dual).logical_x.to_string() in ("+Z", "-Z")

    def test_dual_swaps_logical_supports(self):
        for code in all_codes(5):
            dual = dual_code_with_map(code)[0]
            x_supports = sorted(p.x_bits | p.z_bits for p in signed_logical_set(code, "X"))
            z_supports = sorted(p.x_bits | p.z_bits for p in signed_logical_set(code, "Z"))
            assert sorted(p.x_bits | p.z_bits for p in signed_logical_set(dual, "Z")) == x_supports
            assert sorted(p.x_bits | p.z_bits for p in signed_logical_set(dual, "X")) == z_supports

    def test_stabilizer_supports_invariant(self):
        for code in all_codes(6):
            dual = dual_code_with_map(code)[0]
            mine = sorted(p.x_bits | p.z_bits for p in enumerate_group(signed_code(code).stabilizers))
            theirs = sorted(p.x_bits | p.z_bits for p in enumerate_group(signed_code(dual).stabilizers))
            assert mine == theirs

    def test_dual_of_dual_restores_logical_structure(self):
        # The two LC sweeps may pick different pivot neighbors, so the
        # double dual can land on an LC-equivalent progenitor rather than
        # the same marked graph; the code structure itself round-trips.
        for code in all_codes(4):
            double = dual_code_with_map(dual_code_with_map(code)[0])[0]
            assert double.n_code == code.n_code
            for basis in ("X", "Z"):
                assert sorted(p.x_bits | p.z_bits for p in signed_logical_set(double, basis)) == sorted(
                    p.x_bits | p.z_bits for p in signed_logical_set(code, basis)
                )
            assert sorted(p.x_bits | p.z_bits for p in enumerate_group(signed_code(double).stabilizers)) == sorted(
                p.x_bits | p.z_bits for p in enumerate_group(signed_code(code).stabilizers)
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
            for gen in [signed_code(code).logical_x, signed_code(code).logical_z]:
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
