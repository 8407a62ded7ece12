import hashlib
import itertools
import random
import re
import time

import numpy as np
import pytest

from fusioncodes.codes import code_from_progenitor
from fusioncodes.compiler import (
    AUTO_MAX_PHOTONS,
    AUTO_MAX_WIRES,
    CompileError,
    GenerationSequence,
    Instruction,
    Mode,
    Op,
    VerificationError,
    build_concatenated_target,
    compile_generation,
    count_resources,
    derive_outer_sequence,
    verify_sequence,
    _replay,
    _run,
)
from fusioncodes.graphs import GraphState, build_progenitor, enumerate_progenitor_records
from fusioncodes.pauli import BranchImpossible
from fusioncodes.statevec import MAX_WIRES, FlatState
from fusioncodes.tableau import StabilizerTableau

from oracles import (
    PauliOperator,
    canonical_key,
    compile_graph,
    dense_amplitudes,
    drop_plus_qubit,
    expectation,
    marked_sequence_scan,
    multiply,
    outer_sequence_scan,
    pauli_from_string,
    photon_order,
    photon_statevector,
    progenitor_scan,
    signed_code,
    signed_first_non_member,
    states_equal_up_to_phase,
    target_statevector,
)


def op_count(seq, op):
    return sum(1 for i in seq.ops if i.op is op)


class TestCompile:
    def test_two_vertex_chain_with_bare_qubit(self):
        seq = compile_graph(build_progenitor("P"), "L", Mode.TWO_EMITTER)
        assert op_count(seq, Op.CZ) == 1
        # every virtual node is measured out, including the last one
        assert op_count(seq, Op.MEASURE_X) == 2
        assert seq.photon_count == 2

    def test_photon_budget(self):
        seq = compile_graph(build_progenitor("PLP"), "LL", Mode.TWO_EMITTER)
        assert seq.photon_count == 4 * 2 == seq.outer_size * len(seq.inner_ops)

    def test_spin_spin_gates_independent_of_inner_size(self):
        outer = build_progenitor("PLPPLPPLP")
        for mode in Mode:
            counts = set()
            for n in range(1, 9):
                rec = enumerate_progenitor_records(n)[0]
                seq = compile_graph(outer, rec.sequence, mode)
                counts.add(count_resources(seq).spin_spin_gates)
            assert len(counts) == 1, (mode, counts)

    def test_memory_mode_swap_count(self):
        # one SWAP hands the first block to the memory, one more per path edge
        outer = build_progenitor("PLPPLPPLP")
        seq = compile_graph(outer, "LL", Mode.EMITTER_MEMORY)
        assert op_count(seq, Op.SWAP) == 1 + seq.outer_ops.count("P")

    def test_two_emitter_mode_has_no_swaps(self):
        seq = compile_graph(build_progenitor("PLP"), "LL", Mode.TWO_EMITTER)
        assert op_count(seq, Op.SWAP) == 0

    def test_measure_always_follows_reinit_discipline(self):
        for mode in Mode:
            seq = compile_graph(build_progenitor("PLPP"), "LPL", mode)
            pending = {}
            for ins in seq.ops:
                if ins.op is Op.MEASURE_X:
                    pending[ins.targets[0]] = True
                elif ins.op is Op.REINIT:
                    pending[ins.targets[0]] = False
                elif ins.op in (Op.SPIN_ROTATION, Op.EMIT_PHOTON):
                    assert not pending.get(ins.targets[0], False)
                elif ins.op in (Op.CZ, Op.SWAP):
                    for e in ins.targets:
                        assert not pending.get(e, False)

    def test_rejects_non_caterpillar_outer(self):
        spider = GraphState.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        with pytest.raises(CompileError):
            compile_graph(spider, "L", Mode.TWO_EMITTER)
        cycle = GraphState.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(CompileError):
            derive_outer_sequence(cycle)

    def test_rejects_bad_letters(self):
        # library callers pass letters unchecked: no inner photon, or a letter other than L/P
        for outer_ops, inner_ops in [("L", ""), ("", "LLQ"), ("PX", "LP"), ("L", "lp")]:
            with pytest.raises(CompileError):
                compile_generation(outer_ops, inner_ops, Mode.TWO_EMITTER)

    def test_single_vertex_outer(self):
        seq = compile_graph(GraphState(1, frozenset(), 0), "LL", Mode.TWO_EMITTER)
        assert op_count(seq, Op.CZ) == 0
        assert verify_sequence(seq, method="statevector").ok


def relabel(g, perm, emitter=None):
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    return GraphState.from_edges(g.n, edges, perm[g.emitter if emitter is None else emitter])


def random_caterpillar(m, rng):
    spine = max(m // 2, 1)
    edges = [(i, i + 1) for i in range(spine - 1)] + [(rng.randrange(spine), v) for v in range(spine, m)]
    perm = list(range(m))
    rng.shuffle(perm)
    return relabel(GraphState.from_edges(m, edges), perm)


class TestSequenceWalk:
    def test_walk_matches_scan(self):
        rng = random.Random(5)
        for n in range(1, 11):
            for ops in map("".join, itertools.product("LP", repeat=n)):
                perm = list(range(n + 1))
                rng.shuffle(perm)
                g = relabel(build_progenitor(ops), perm)
                assert derive_outer_sequence(g) == outer_sequence_scan(g), ops
                # the marked representative compile_generation emits
                assert marked_sequence_scan(g) == "L" + ops[1:], ops

    def test_marked_walk_rejects(self):
        # an emitter in mid-chain is a marked tree no letters make, so no
        # inner id names it; the letter walk refuses anything but L/P
        chain_mid = GraphState.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], emitter=2)
        assert marked_sequence_scan(chain_mid) is None
        for inner_ops in ("LPX", "", "lp"):
            with pytest.raises(CompileError):
                compile_generation("P", inner_ops, Mode.TWO_EMITTER)
        # n - 1 edges, but a triangle plus an isolated vertex
        disconnected = GraphState.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        spider = GraphState.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        for g in (disconnected, spider):
            with pytest.raises(CompileError):
                derive_outer_sequence(g)

    def test_target_block_is_the_progenitor(self):
        # a one-vertex outer leaves one block: photons in emission order and
        # the virtual input node last, marked like the emitter of the progenitor
        for n in range(1, 9):
            for ops in map("".join, itertools.product("LP", repeat=n)):
                target = build_concatenated_target("", ops)
                block = GraphState(n + 1, target.edges, n)
                assert (target.n_photons, target.n_virtual) == (n, 1), ops
                assert canonical_key(block) == canonical_key(build_progenitor(ops)), ops

    def test_large_caterpillar_compiles_and_verifies(self):
        # ROADMAP item 4 gate: 64 outer vertices x 8 photons = 512 photons
        g = random_caterpillar(64, random.Random(64))
        start = time.perf_counter()
        for mode in Mode:
            seq = compile_graph(g, "LLPLPLPL", mode)
            res = verify_sequence(seq, method="stabilizer")
            assert res.ok and seq.photon_count == 512, (mode, res.message)
        assert time.perf_counter() - start < 2.0
        big = random_caterpillar(2000, random.Random(2000))
        start = time.perf_counter()
        outer_ops = derive_outer_sequence(big)
        assert time.perf_counter() - start < 1.0
        assert len(outer_ops) == 1999

    def test_2048_photon_caterpillar_verifies(self):
        # 256 outer vertices x 8 photons, both modes, by the membership check
        g = random_caterpillar(256, random.Random(256))
        start = time.perf_counter()
        for mode in Mode:
            seq = compile_graph(g, "LLPLPLPL", mode)
            res = verify_sequence(seq, method="stabilizer")
            assert res.ok and seq.photon_count == 2048, (mode, res.message)
        assert time.perf_counter() - start < 3.0


class TestResources:
    def test_empty_sequence(self):
        seq = GenerationSequence((), Mode.TWO_EMITTER, "", "L")
        rc = count_resources(seq)
        assert (rc.spin_spin_gates, rc.max_emitter_depth, rc.photons) == (0, 0, 0)

    def test_depth_grows_linearly_with_inner_size(self):
        outer = build_progenitor("PPPPP")
        depths = []
        for n in range(1, 9):
            rec = enumerate_progenitor_records(n)[0]
            seq = compile_graph(outer, rec.sequence, Mode.TWO_EMITTER)
            depths.append(count_resources(seq).max_emitter_depth)
        diffs = {b - a for a, b in zip(depths, depths[1:])}
        assert all(d >= 1 for d in diffs)
        assert max(depths) - min(depths) >= 7  # at least one op per extra photon

    def test_memory_is_exempt_from_depth(self):
        outer = build_progenitor("PPP")
        seq = compile_graph(outer, "LL", Mode.EMITTER_MEMORY)
        rc = count_resources(seq)
        two = count_resources(compile_graph(outer, "LL", Mode.TWO_EMITTER))
        assert rc.max_emitter_depth <= two.max_emitter_depth + 2


def statevector_sequences(mode):
    """Every compiled sequence that 'auto' sends to the state vector, with
    inner codes up to the 8-photon cap of the compile command."""
    for m in range(1, AUTO_MAX_PHOTONS + 1):
        sizes = [n for n in range(1, 9) if m * n <= AUTO_MAX_PHOTONS and m * (n + 1) <= AUTO_MAX_WIRES]
        records = progenitor_scan(m - 1) if m > 1 else []
        outers = sorted({derive_outer_sequence(rec.graph) for rec in records} or {""})
        for outer_ops, n in itertools.product(outers, sizes):
            for rec in enumerate_progenitor_records(n):
                yield compile_generation(outer_ops, rec.sequence, mode)


class TestVerification:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_small_targets_all_methods_agree(self, mode):
        cases = [
            ("P", "L"),
            ("PP", "LL"),
            ("LL", "LP"),
            ("PLP", "LL"),
        ]
        for outer_ops, inner_ops in cases:
            seq = compile_graph(build_progenitor(outer_ops), inner_ops, mode)
            for method in ("statevector", "stabilizer"):
                res = verify_sequence(seq, method=method)
                assert res.ok, (mode, outer_ops, inner_ops, method, res.message)

    def test_auto_picks_stabilizer_for_large_targets(self):
        seq = compile_graph(build_progenitor("PLPPLPPLP"), "LPL", Mode.TWO_EMITTER)
        res = verify_sequence(seq)
        assert res.ok and res.method == "stabilizer"

    def test_auto_bounds_target_wires(self):
        # 12 photons, but the target vector of a 12-vertex chain of bare
        # qubits spans 24 wires (256 MB): the tableau takes it
        seq = compile_graph(build_progenitor("P" * 11), "L", Mode.TWO_EMITTER)
        start = time.perf_counter()
        res = verify_sequence(seq)
        assert res.ok and res.method == "stabilizer"
        assert time.perf_counter() - start < 1.0
        # 12 photons on 16 wires still fit the state vector
        small = compile_graph(build_progenitor("PPP"), "LPL", Mode.TWO_EMITTER)
        assert verify_sequence(small).method == "statevector"

    @pytest.mark.parametrize("mode", list(Mode))
    def test_stabilizer_agrees_with_statevector_everywhere(self, mode):
        # every compiled sequence that 'auto' sends to the state vector, as
        # compiled and with each CZ, SWAP and rotation deleted in turn
        checked = failed = 0
        for seq in statevector_sequences(mode):
            cuts = [k for k, i in enumerate(seq.ops) if i.op in (Op.CZ, Op.SWAP, Op.SPIN_ROTATION)]
            for k in [None] + cuts:
                ops = seq.ops if k is None else seq.ops[:k] + seq.ops[k + 1 :]
                variant = seq._replace(ops=ops)
                by_vector = verify_sequence(variant, "statevector").ok
                res = verify_sequence(variant, "stabilizer")
                assert res.ok == by_vector, (seq.outer_ops, seq.inner_ops, k, res.message)
                assert res.ok or k is not None, (seq.outer_ops, seq.inner_ops, res.message)
                checked += 1
                failed += not res.ok
        assert (checked, failed) == {Mode.TWO_EMITTER: (1926, 1534), Mode.EMITTER_MEMORY: (2158, 1751)}[mode]
        # one spin-spin CZ inserted at each index: this reaches the sign-only
        # failure, a target generator the compiled group holds with sign -1
        checked = failed = sign_only = 0
        first = None
        for seq in statevector_sequences(mode):
            if seq.outer_size > 3 or len(seq.inner_ops) > 5:
                continue
            for k in range(len(seq.ops) + 1):
                variant = seq._replace(ops=seq.ops[:k] + (Instruction(Op.CZ, (0, 1)),) + seq.ops[k:])
                by_vector = verify_sequence(variant, "statevector")
                res = verify_sequence(variant, "stabilizer")
                assert res.ok == by_vector.ok, (seq.outer_ops, seq.inner_ops, k, res.message)
                checked += 1
                failed += not res.ok
                if "has sign -1 in" in res.message:
                    sign_only += 1
                    first = first or (seq.outer_ops, seq.inner_ops, k, res.message, by_vector.message)
        assert (checked, failed, sign_only) == (1269, 1220, {Mode.TWO_EMITTER: 97, Mode.EMITTER_MEMORY: 104}[mode])
        generator = {Mode.TWO_EMITTER: "+IIZIZXXI", Mode.EMITTER_MEMORY: "+IIZIXZXI"}[mode]
        assert first == (
            "L",
            "LP",
            4,
            f"target generator 6 ({generator}) has sign -1 in the compiled group",
            "compiled state deviates from target (overlap 0.000000)",
        )

    @pytest.mark.parametrize("mode", list(Mode))
    def test_bitpacked_amplitudes_match_dense_oracle(self, mode):
        # the replay with every outcome +1, and the target, against numpy
        # complex amplitudes
        replays = 0
        for seq in statevector_sequences(mode):
            flat = FlatState(seq.photon_count + 2)
            order = _run(seq, flat)
            dense, _ = photon_statevector(seq)
            assert states_equal_up_to_phase(photon_order(dense_amplitudes(flat), order), dense), seq
            replays += 1
            target = build_concatenated_target(seq.outer_ops, seq.inner_ops)
            want = FlatState.graph_state(target.n_total, target.edges)
            for v in target.virtual_wires():
                want.measure_x(v)
            got = dense_amplitudes(want)
            for v in reversed(target.virtual_wires()):
                got = drop_plus_qubit(got, v)
            dense_target = target_statevector(target)
            assert states_equal_up_to_phase(got, dense_target), seq
            # the --inject-fault variant, which drops the last CZ
            cz_at = [k for k, i in enumerate(seq.ops) if i.op is Op.CZ]
            if cz_at:
                bad = seq._replace(ops=seq.ops[: cz_at[-1]] + seq.ops[cz_at[-1] + 1 :])
                overlap = abs(np.vdot(photon_statevector(bad)[0], dense_target))
                got, want = _replay(bad, target, FlatState)
                assert got.overlap(want) == pytest.approx(overlap, abs=1e-12), seq
        assert replays == 392

    def test_projection_that_breaks_flatness_raises(self):
        state = FlatState(2)
        state.support = 0b0111  # |00>, |01> and |10> at equal height
        # the pair {00, 01} keeps its amplitudes, 10 spreads over {10, 11}
        with pytest.raises(VerificationError, match="not flat"):
            state.measure_x(0)

    def test_equality_and_overlap_read_signs(self):
        plus = FlatState(2)
        graph = FlatState.graph_state(2, [(0, 1)])  # (1, 1, 1, -1) / 2
        minus = FlatState(2)
        minus.negative = minus.high(0)  # |+> on wire 1, |-> on wire 0
        flipped = FlatState(2)
        flipped.negative = flipped.support  # -|++>
        assert plus.equals_up_to_phase(flipped) and plus.overlap(flipped) == 1.0
        for other, overlap in [(graph, 0.5), (minus, 0.0)]:
            assert not plus.equals_up_to_phase(other)
            assert plus.overlap(other) == overlap
            assert abs(np.vdot(dense_amplitudes(plus), dense_amplitudes(other))) == pytest.approx(overlap)

    def test_zero_probability_projection_raises(self):
        state = FlatState(1)
        state.negative = state.high(0)  # |->
        with pytest.raises(VerificationError, match="zero probability"):
            state.measure_x(0)

    def test_explicit_statevector_counts_every_simulated_wire(self):
        # 8 outer vertices x 2 photons: 16 photons, 2 slots and 8 virtual wires
        seq = compile_graph(build_progenitor("P" * 7), "LL", Mode.TWO_EMITTER)
        assert seq.photon_count + 2 + seq.outer_size > MAX_WIRES >= seq.photon_count + 2
        with pytest.raises(VerificationError, match=f"limited to {MAX_WIRES} wires"):
            verify_sequence(seq, method="statevector")
        assert verify_sequence(seq).ok

    def test_failed_stabilizer_check_names_the_generator(self):
        seq = compile_graph(build_progenitor("PLP"), "LL", Mode.TWO_EMITTER)
        ops = list(seq.ops)
        del ops[[k for k, i in enumerate(ops) if i.op is Op.CZ][1]]
        res = verify_sequence(seq._replace(ops=tuple(ops)), method="stabilizer")
        named = re.fullmatch(r"target generator (\d+) \(([-+][IXYZ]+)\) is missing from the compiled group", res.message)
        assert not res.ok and named, res.message
        assert pauli_from_string(named[2]).n == seq.photon_count + 2 + seq.outer_size

    def test_deletion_messages_are_pinned(self):
        # the tableau's message for every single-instruction deletion of these
        # compiles, as one digest: 646 of the 728 variants fail
        digest = hashlib.sha256()
        failed = 0
        for outer, inner, mode in itertools.product(("PLP", "LPPL", "PPPPPP"), ("LLPL", "LLPLPLPL"), list(Mode)):
            seq = compile_graph(build_progenitor(outer), inner, mode)
            for k in range(len(seq.ops)):
                res = verify_sequence(seq._replace(ops=seq.ops[:k] + seq.ops[k + 1 :]), method="stabilizer")
                digest.update((res.message + "\n").encode())
                failed += not res.ok
        assert failed == 646
        assert digest.hexdigest() == "1778e16b239ded4c94a1a716d434e204e865d60f40b295f808e8dbafd0cb6e84"

    def test_fault_injection_reports_failure(self):
        seq = compile_graph(build_progenitor("PLP"), "LL", Mode.TWO_EMITTER)
        ops = list(seq.ops)
        cz_at = [k for k, i in enumerate(ops) if i.op is Op.CZ]
        del ops[cz_at[1]]
        bad = seq._replace(ops=tuple(ops))
        for method in ("statevector", "stabilizer"):
            res = verify_sequence(bad, method=method)
            assert not res.ok
            assert res.message

    def test_unknown_method_rejected(self):
        seq = compile_graph(build_progenitor("P"), "L", Mode.TWO_EMITTER)
        with pytest.raises(ValueError):
            verify_sequence(seq, method="graph")

    def test_photon_count_mismatch_detected(self):
        seq = compile_graph(build_progenitor("P"), "L", Mode.TWO_EMITTER)
        emit = next(k for k, i in enumerate(seq.ops) if i.op is Op.EMIT_PHOTON)
        res = verify_sequence(seq._replace(ops=seq.ops[:emit] + seq.ops[emit + 1 :]))
        assert res == (False, "none", "photon count differs from target")

    def test_minus_one_outcome_flips_one_logical_sign(self):
        # a -1 spin measurement shows up as a sign flip of exactly one
        # block's logical X stabilizer, trackable classically
        inner = code_from_progenitor(build_progenitor("LL"))
        seq = compile_graph(build_progenitor("PPP"), "LL", Mode.TWO_EMITTER)
        n, m = inner.n_code, seq.outer_size
        P = m * n
        # LL emits progenitor vertices 1 and 2 on photons 0 and 1
        wire_of_vertex = {1: 0, 2: 1}

        def lift(op, block):
            x = z = 0
            for i in range(n):
                w = block * n + wire_of_vertex[inner.code_qubits[i]]
                if (op.x_bits >> i) & 1:
                    x |= 1 << w
                if (op.z_bits >> i) & 1:
                    z |= 1 << w
            return PauliOperator(P, x, z, op.phase)

        outer = build_progenitor(seq.outer_ops)

        def logical_stabilizer(v):
            op = lift(signed_code(inner).logical_x, v)
            for u in outer.neighbors(v):
                op = multiply(op, lift(signed_code(inner).logical_z, u))
            return op

        base, _ = photon_statevector(seq)
        assert all(
            expectation(base, logical_stabilizer(v)).real == pytest.approx(1.0)
            for v in range(m)
        )
        n_meas = sum(1 for i in seq.ops if i.op is Op.MEASURE_X)
        flipped = []
        for j in range(n_meas):
            st, _ = photon_statevector(seq, {j: -1})
            vals = [expectation(st, logical_stabilizer(v)).real for v in range(m)]
            neg = [v for v, val in enumerate(vals) if val == pytest.approx(-1.0)]
            assert len(neg) == 1, vals
            flipped += neg
        assert sorted(flipped) == list(range(m))

    def test_both_modes_verify_against_the_same_target(self):
        for outer_ops, inner_ops in [("PP", "LL"), ("PLP", "L")]:
            targets = set()
            for mode in Mode:
                seq = compile_graph(build_progenitor(outer_ops), inner_ops, mode)
                targets.add(build_concatenated_target(seq.outer_ops, seq.inner_ops))
                assert verify_sequence(seq, method="statevector").ok
            assert len(targets) == 1, (outer_ops, inner_ops)

    @pytest.mark.parametrize("backend, method", [(FlatState, "statevector"), (StabilizerTableau, "stabilizer")])
    def test_zero_probability_branch_has_one_verdict(self, backend, method, monkeypatch):
        # both backends raise the same error for a forced +1 outcome on |->,
        # and verify_sequence turns it into one failed result
        def minus(n, wire):
            state = backend(n)
            if backend is FlatState:
                state.negative = state.high(wire)
            else:
                state.signs = 1 << wire
            return state

        with pytest.raises(BranchImpossible, match=r"^forced \+1 outcome on wire 0 has zero probability$"):
            minus(2, 0).measure_x(0)
        # no compiled sequence reaches that branch: every spin measurement
        # is made to meet a |-> wire instead
        real = backend.measure_x
        monkeypatch.setattr(backend, "measure_x", lambda self, wire: real(minus(self.n, wire), wire))
        seq = compile_graph(build_progenitor("P"), "L", Mode.TWO_EMITTER)
        # the one outer edge reads as a leaf: the first measurement is of
        # spin slot 1, on wire 3 after the two photons and slot 0
        diverged = "simulation diverged: forced +1 outcome on wire 3 has zero probability"
        assert verify_sequence(seq, method=method) == (False, method, diverged)


class TestStabilizerTableau:
    def test_determined_x_outcome_is_checked_with_sign(self):
        tab = StabilizerTableau(2)  # |++>: X on either wire is already +1
        tab.measure_x(0)
        fresh = StabilizerTableau(2)
        assert (tab.xs, tab.zs, tab.signs) == (fresh.xs, fresh.zs, fresh.signs)
        tab.signs = 0b01  # |-+>
        with pytest.raises(BranchImpossible, match="forced \\+1 outcome on wire 0 has zero probability"):
            tab.measure_x(0)

    def test_membership_check_sees_signs(self):
        plus = StabilizerTableau(2)  # |++>
        rows = plus.xs, plus.zs, plus.signs
        minus = StabilizerTableau(2)
        minus.signs = 0b01  # |-+>
        assert StabilizerTableau(2).first_non_member(*rows) is None
        assert minus.first_non_member(*rows) == (0, 0)  # held as -X: residue -I
        zero = StabilizerTableau(2)
        zero.xs, zero.zs = [0, 0b10], [0b01, 0]  # |0+>
        k, rest = zero.first_non_member(*rows)
        assert k == 0 and rest

    def test_measurement_multiplies_in_the_pivot_sign(self):
        # |11> as <-Z0, Z0 Z1>: both rows anticommute with X0, so the pivot
        # -Z0 is multiplied into Z0 Z1, leaving <X0, -Z1>, that is |+1>
        tab = StabilizerTableau(2)
        tab.xs, tab.zs, tab.signs = [0, 0], [0b01, 0b11], 0b01
        tab.measure_x(0)
        assert (tab.xs, tab.zs, tab.signs) == ([0b01, 0], [0, 0b10], 0b10)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_membership_matches_signed_echelon_oracle(self, mode):
        # every membership question a replay asks (the determined branch of
        # measure_x), the final target check, and that check again with one
        # compiled generator's sign flipped: every cut variant of the
        # state-vector sequences, and a sample of 15 deleted CZs and
        # rotations of a 512-photon caterpillar
        seen = []

        def residue_class(k, x, z):
            return k, (x, z) if x | z else "-I"

        def signed(n, xs, zs, signs):
            return [PauliOperator(n, x, z, 2 * (signs >> r & 1)) for r, (x, z) in enumerate(zip(xs, zs))]

        class Checked(StabilizerTableau):
            def first_non_member(self, xs, zs, signs):
                stray = super().first_non_member(xs, zs, signs)
                got = stray and residue_class(stray[0], stray[1] & ((1 << self.n) - 1), stray[1] >> self.n)
                oracle = signed_first_non_member(signed(self.n, self.xs, self.zs, self.signs), signed(self.n, xs, zs, signs))
                assert got == (oracle and residue_class(oracle[0], oracle[1].x_bits, oracle[1].z_bits))
                seen.append(got if got is None else got[1] == "-I")
                return stray

        def replay(seq, cuts):
            target = build_concatenated_target(seq.outer_ops, seq.inner_ops)
            for k in cuts:
                variant = seq if k is None else seq._replace(ops=seq.ops[:k] + seq.ops[k + 1 :])
                try:
                    got, want = _replay(variant, target, Checked)
                except BranchImpossible:
                    continue
                got.first_non_member(want.xs, want.zs, want.signs)
                # the same state after a Pauli error that flips one generator's sign
                got.signs ^= 1 << rng.randrange(got.n)
                got.first_non_member(want.xs, want.zs, want.signs)

        rng = random.Random(13)
        for seq in statevector_sequences(mode):
            replay(seq, [None] + [k for k, i in enumerate(seq.ops) if i.op in (Op.CZ, Op.SWAP, Op.SPIN_ROTATION)])
        big = compile_graph(random_caterpillar(64, random.Random(64)), "LLPLPLPL", mode)
        cuts = [k for k, i in enumerate(big.ops) if i.op in (Op.CZ, Op.SPIN_ROTATION)]
        replay(big, rng.sample(cuts, 15))
        assert {None, True, False} <= set(seen), set(seen)


class TestSerialization:
    def test_json_and_text_round(self):
        seq = compile_graph(build_progenitor("PP"), "LL", Mode.EMITTER_MEMORY)
        data = seq.to_json_dict()
        assert data["mode"] == "emitter-memory"
        assert len(data["instructions"]) == len(seq.ops)
