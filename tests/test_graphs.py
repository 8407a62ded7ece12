import itertools

import networkx as nx
import pytest

from fusioncodes.graphs import (
    GenerationOp,
    GraphState,
    ProgenitorRecord,
    build_progenitor,
    caterpillar_spine,
    enumerate_progenitor_records,
    local_complement,
)
from fusioncodes.pauli import ResourceCapExceeded

from oracles import (
    PauliOperator,
    StabilizerGroup,
    apply_generation_op,
    canonical_key,
    enumerate_group,
    graph_from_json,
    graph_to_json,
    lc_pauli_transform,
    pauli_from_string,
    progenitor_scan,
    stabilizer_generators,
)


def G(n, edges, emitter=0):
    return GraphState.from_edges(n, edges, emitter)


def nx_marked_isomorphic(a: GraphState, b: GraphState) -> bool:
    """Independent marked-graph isomorphism via networkx VF2."""
    ga, gb = nx.Graph(), nx.Graph()
    for g, gx in ((a, ga), (b, gb)):
        gx.add_nodes_from(range(g.n))
        gx.add_edges_from(g.edges)
        for v in gx.nodes:
            gx.nodes[v]["emitter"] = v == g.emitter
    return nx.is_isomorphic(ga, gb, node_match=lambda x, y: x["emitter"] == y["emitter"])


class TestStabilizerGenerators:
    def test_single_vertex(self):
        assert [g.to_string() for g in stabilizer_generators(G(1, []))] == ["+X"]

    def test_edge(self):
        assert [g.to_string() for g in stabilizer_generators(G(2, [(0, 1)]))] == ["+XZ", "+ZX"]

    def test_star(self):
        assert [g.to_string() for g in stabilizer_generators(G(3, [(0, 1), (0, 2)]))] == ["+XZZ", "+ZXI", "+ZIX"]


class TestLocalComplement:
    def test_triangle_to_path(self):
        tri = G(3, [(0, 1), (0, 2), (1, 2)])
        path = local_complement(tri, 1)
        assert path.edges == frozenset({(0, 1), (1, 2)})

    def test_path_to_triangle(self):
        path = G(3, [(0, 1), (1, 2)])
        assert local_complement(path, 1).edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_involution_everywhere(self):
        for rec in enumerate_progenitor_records(5):
            for q in range(rec.graph.n):
                once = local_complement(rec.graph, q)
                assert local_complement(once, q) == rec.graph

    def test_emitter_mark_unchanged(self):
        tri = G(3, [(0, 1), (0, 2), (1, 2)], emitter=2)
        assert local_complement(tri, 0).emitter == 2

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            local_complement(G(2, [(0, 1)]), 5)


class TestLcPauliTransform:
    def test_identity_maps_to_identity(self):
        g = G(3, [(0, 1), (1, 2)])
        assert lc_pauli_transform(PauliOperator(3, 0, 0), 1, g) == PauliOperator(3, 0, 0)

    def test_letters_on_the_complemented_vertex(self):
        g = G(2, [(0, 1)])
        z = pauli_from_string("ZI")
        y = pauli_from_string("YI")
        assert lc_pauli_transform(z, 0, g).to_string() == "-YI"
        assert lc_pauli_transform(y, 0, g).to_string() == "+ZI"

    def test_letters_on_a_neighbor(self):
        g = G(2, [(0, 1)])
        x = pauli_from_string("IX")
        assert lc_pauli_transform(x, 0, g).to_string() == "-IY"
        assert lc_pauli_transform(pauli_from_string("IZ"), 0, g).to_string() == "+IZ"

    def test_support_preserved(self):
        g = build_progenitor("LPLP")
        for q in range(g.n):
            for bits in range(1, 1 << g.n):
                p = PauliOperator(g.n, bits, bits >> 1, 0)
                img = lc_pauli_transform(p, q, g)
                assert img.x_bits | img.z_bits == p.x_bits | p.z_bits

    def test_maps_stabilizer_group_onto_post_lc_group(self):
        for n_photons in range(1, 5):
            for rec in enumerate_progenitor_records(n_photons):
                g = rec.graph
                for q in range(g.n):
                    post = local_complement(g, q)
                    post_elems = set(enumerate_group(StabilizerGroup(post.n, stabilizer_generators(post))))
                    for gen in stabilizer_generators(g):
                        image = lc_pauli_transform(gen, q, g)
                        assert image in post_elems, (rec.sequence, q, str(image))


class TestGenerationOps:
    def test_leaf_keeps_emitter(self):
        g = apply_generation_op(G(1, []), GenerationOp.LEAF)
        assert g.edges == frozenset({(0, 1)}) and g.emitter == 0

    def test_path_edge_moves_emitter(self):
        g = apply_generation_op(G(1, []), GenerationOp.PATH_EDGE)
        assert g.edges == frozenset({(0, 1)}) and g.emitter == 1

    def test_build_is_left_fold_of_single_ops(self):
        for n in range(9):
            for ops in map("".join, itertools.product("LP", repeat=n)):
                g = G(1, [])
                for op in ops:
                    g = apply_generation_op(g, GenerationOp(op))
                assert build_progenitor(ops) == g, ops
                assert build_progenitor([GenerationOp(op) for op in ops]) == g, ops

    def test_build_rejects_unknown_letter(self):
        with pytest.raises(ValueError):
            build_progenitor("LXP")

    def test_three_leaves_make_a_star(self):
        g = build_progenitor("LLL")
        assert g.emitter == 0
        assert g.edges == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_all_path_edges_make_a_chain(self):
        g = build_progenitor("PPP")
        assert g.emitter == 3
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})


class TestEnumeration:
    def test_one_photon_single_class(self):
        assert len(enumerate_progenitor_records(1)) == 1

    def test_two_photons_two_classes(self):
        graphs = enumerate_progenitor_records(2)
        assert len(graphs) == 2
        # oracle: dedupe the 4 raw sequences with networkx marked isomorphism
        raw = [build_progenitor("".join(ops)) for ops in itertools.product("LP", repeat=2)]
        classes = []
        for g in raw:
            if not any(nx_marked_isomorphic(g, h) for h in classes):
                classes.append(g)
        assert len(classes) == 2

    def test_enumeration_agrees_with_networkx_oracle_up_to_four(self):
        for n in range(1, 5):
            mine = [r.graph for r in enumerate_progenitor_records(n)]
            raw = [build_progenitor("".join(ops)) for ops in itertools.product("LP", repeat=n)]
            classes = []
            for g in raw:
                if not any(nx_marked_isomorphic(g, h) for h in classes):
                    classes.append(g)
            assert len(mine) == len(classes)
            # no two of my representatives are isomorphic
            for i, a in enumerate(mine):
                for b in mine[i + 1 :]:
                    assert not nx_marked_isomorphic(a, b)

    def test_every_output_is_a_caterpillar(self):
        for n in range(1, 7):
            for g in [r.graph for r in enumerate_progenitor_records(n)]:
                assert caterpillar_spine(g) is not None

    def test_deterministic_and_sequence_tagged(self):
        a = enumerate_progenitor_records(4)
        b = enumerate_progenitor_records(4)
        assert a == b
        assert all(isinstance(r, ProgenitorRecord) for r in a)
        assert all(build_progenitor(r.sequence) == r.graph for r in a)

    def test_closed_form_matches_isomorphism_scan(self, monkeypatch):
        # the L-prefixed strings are the scan's first string of each class,
        # in the same order; past the cap too
        monkeypatch.setattr("fusioncodes.graphs.PROGENITOR_CAP", 10)
        for n in range(1, 11):
            assert enumerate_progenitor_records(n) == progenitor_scan(n), n

    def test_cap(self):
        with pytest.raises(ResourceCapExceeded):
            enumerate_progenitor_records(9)
        with pytest.raises(ValueError):
            enumerate_progenitor_records(0)


class TestSerialization:
    def test_json_roundtrip(self):
        g = build_progenitor("LPL")
        assert graph_from_json(graph_to_json(g)) == g

    def test_dot_marks_emitter(self):
        dot = build_progenitor("P").to_dot()
        assert "1 [color=red" in dot

    def test_canonical_key_distinguishes_marks(self):
        chain_end = build_progenitor("PP")  # path, emitter at an end
        chain_mid = GraphState.from_edges(3, [(0, 1), (1, 2)], emitter=1)
        assert canonical_key(chain_end) != canonical_key(chain_mid)
