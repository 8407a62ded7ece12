"""Two-emitter generation sequences for concatenated graph codes.

An outer branched chain of logical qubits, each encoded in a
single-emitter inner graph code, is produced by one loop over the outer
letters: the spin not holding the current outer vertex grows the next
inner block photon by photon, a single CZ fuses it to the outer
structure, and one spin is measured in X and reinitialized.  A logical
leaf measures the new block's spin; a logical path edge hands the outer
vertex to that spin and measures the other.  The emitter-plus-memory
variant is the same loop with a SWAP in place of the hand-over, so only
the emitter spin is measured until the memory's final measurement.

The compiler takes both codes as LEAF/PATH_EDGE letters.  The inner
code's letters are its id; the outer graph's come from one O(n) walk
along its caterpillar spine, so any caterpillar compiles as the outer
graph.

Verification replays a sequence wire by wire through one interpreter
that drives either an exact bit-packed state vector (by default up to
12 photons and 16 target wires) or a sign-exact stabilizer tableau (any
size).  The target is the concatenated graph: the outer graph with an
inner block embedded at every node and the virtual node of each block
measured in X with outcome +1.  A backend is a class with five methods:
``graph_state(n, edges)`` builds the target on the replay's own wires,
``cz``, ``measure_x`` and ``reinit`` replay the instructions, and
``got.mismatch(want)`` gives the verdict, a failure message or None.
The state vector compares amplitudes and signs; on the tableau, each
target generator must be a +1 element of the compiled stabilizer
group, and a failure names the first one that is not.  A forced +1
outcome of zero probability raises ``BranchImpossible`` on either
backend.  Compiling and both verifiers run on Python ints alone,
without numpy, and a verifier imports its backend module only when it
runs.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .graphs import GraphState, build_progenitor, caterpillar_spine
from .pauli import BranchImpossible, CompileError, VerificationError  # noqa: F401  (errors re-exported)

# 'auto' verification limits of the state vector: photons of the replay,
# and photons plus one virtual wire per outer vertex for the target
AUTO_MAX_PHOTONS = 12
AUTO_MAX_WIRES = 16


class Mode(Enum):
    TWO_EMITTER = "two-emitter"
    EMITTER_MEMORY = "emitter-memory"


class Op(Enum):
    INIT_EMITTER = "init"
    SPIN_ROTATION = "rot"
    EMIT_PHOTON = "emit"
    CZ = "cz"
    SWAP = "swap"
    MEASURE_X = "measure_x"
    REINIT = "reinit"


class Instruction(NamedTuple):
    op: Op
    targets: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"op": self.op.value, "targets": list(self.targets)}


class GenerationSequence(NamedTuple):
    """Instruction list plus the metadata needed to verify it."""

    ops: tuple[Instruction, ...]
    mode: Mode
    outer_ops: str  # LEAF/PATH_EDGE letters for outer vertices 1..m-1
    inner_ops: str  # letters for the inner block photons

    @property
    def outer_size(self) -> int:
        return len(self.outer_ops) + 1

    @property
    def photon_count(self) -> int:
        return sum(1 for ins in self.ops if ins.op is Op.EMIT_PHOTON)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "outer_ops": self.outer_ops,
            "inner_ops": self.inner_ops,
            "photons": self.photon_count,
            "instructions": [ins.to_json_dict() for ins in self.ops],
        }


class ResourceCount(NamedTuple):
    spin_spin_gates: int
    max_emitter_depth: int
    photons: int


# -- decomposition of targets into generation sequences ----------------


# A sequence L^a0 P L^a1 P ... P L^ak grows the path v0..vk with a_i
# leaves on v_i and the emitter on vk, so the sequences of a caterpillar
# read its spine in either direction, extended by at most one leaf at each
# end.  The outer one extends neither end and reads the spine in the
# direction of smaller binary-counter value (a 'P' at index i weighs 2^i),
# in one O(n) walk.


def derive_outer_sequence(g: GraphState) -> str:
    """Generation sequence for an outer target, emitter mark ignored."""
    if g.n == 1:
        return ""
    spine = caterpillar_spine(g)
    if spine is None:
        raise CompileError("outer graph must be a star, chain, or caterpillar")
    ops = "P".join("L" * c for _, c in spine) or "L"
    # the reverse reads the spine backwards; the smaller counter value is
    # the string whose reverse is lexicographically smaller
    return max(ops, ops[::-1])


# -- compilation --------------------------------------------------------


def compile_generation(outer_ops: str, inner_ops: str, mode: Mode) -> GenerationSequence:
    """Instruction sequence generating the outer graph of ``outer_ops``
    concatenated with the inner code of ``inner_ops``.

    ``derive_outer_sequence`` reads the outer letters off a graph, and a
    code id is its inner letters.  Outer vertices are produced in
    generation order, each as one inner block plus one spin-spin CZ and
    one X measurement.  The ``active`` spin holds the vertex the next
    block attaches to.  Memory mode differs in three places: the first
    block starts on the emitter, slot 1, and is SWAPped into the memory,
    slot 0; a path edge SWAPs where two-emitter mode hands ``active`` to
    the other spin, so only the emitter is measured in the loop; and the
    memory's final measurement gets no REINIT.  Each block is emitted
    from the marked representative of the inner code, ``inner_ops`` with
    its first letter set to L: a leading P builds the same marked graph
    with vertices 0 and 1 swapped.
    """
    if not inner_ops or (outer_ops + inner_ops).strip("LP"):
        raise CompileError(f"need L/P letters and an inner photon, got outer {outer_ops!r}, inner {inner_ops!r}")
    inner_ops = "L" + inner_ops[1:]
    swap = mode is Mode.EMITTER_MEMORY
    active = int(swap)
    ins = [Instruction(Op.INIT_EMITTER, (active,))]

    def emit_block(e: int) -> None:
        for op in inner_ops:
            if op == "P":
                ins.append(Instruction(Op.SPIN_ROTATION, (e,)))
            ins.append(Instruction(Op.EMIT_PHOTON, (e,)))

    emit_block(active)
    if outer_ops:
        ins.append(Instruction(Op.INIT_EMITTER, (1 - active,)))
        if swap:
            ins.append(Instruction(Op.SWAP, (0, 1)))
            active = 0
    for op in outer_ops:
        other = 1 - active
        emit_block(other)
        ins.append(Instruction(Op.CZ, (active, other)))
        if op == "P":
            if swap:
                ins.append(Instruction(Op.SWAP, (0, 1)))
            else:
                active, other = other, active
        ins += [Instruction(Op.MEASURE_X, (other,)), Instruction(Op.REINIT, (other,))]
    ins.append(Instruction(Op.MEASURE_X, (active,)))
    if not (swap and outer_ops):
        ins.append(Instruction(Op.REINIT, (active,)))
    return GenerationSequence(tuple(ins), mode, outer_ops, inner_ops)


def count_resources(seq: GenerationSequence) -> ResourceCount:
    """Spin-spin gate count, worst emitter depth, and photon count.

    Emitter depth counts the instructions touching a spin between its
    (re)initialization and the closing measurement.  In memory mode the
    long-lived memory is exempt; holding state is what it is for.
    """
    spin_spin = sum(1 for i in seq.ops if i.op in (Op.CZ, Op.SWAP))
    photons = seq.photon_count
    exempt = {0} if seq.mode is Mode.EMITTER_MEMORY else set()
    depth = {0: 0, 1: 0}
    best = 0
    for ins in seq.ops:
        if ins.op in (Op.INIT_EMITTER, Op.REINIT):
            for e in ins.targets:
                depth[e] = 0
            continue
        for e in ins.targets:
            if e in exempt:
                continue
            depth[e] += 1
            best = max(best, depth[e])
    return ResourceCount(spin_spin_gates=spin_spin, max_emitter_depth=best, photons=photons)


# -- concatenated target -------------------------------------------------


class ConcatenatedTarget(NamedTuple):
    """Wire-level concatenated graph: photons first, then virtual nodes."""

    n_photons: int
    n_virtual: int
    edges: frozenset[tuple[int, int]]

    @property
    def n_total(self) -> int:
        return self.n_photons + self.n_virtual

    def virtual_wires(self) -> list[int]:
        return list(range(self.n_photons, self.n_total))


def build_concatenated_target(outer_ops: str, inner_ops: str) -> ConcatenatedTarget:
    """Embed an inner block at every outer node (virtual input nodes last).

    Photon wires are numbered in emission order, block by block, which
    matches the wire order produced by ``compile_generation``.  One walk
    over the inner letters gives a block's edges.  Photon t's vertex
    hangs off the spin's: a leaf photon carries it away, while a path
    edge hands the spin the new vertex and the photon flies off with the
    old one, whose neighbors are then known.  The spin's last vertex is
    the block's input, its virtual node.
    """
    m, n = len(outer_ops) + 1, len(inner_ops)
    inside: list[tuple[int, int]] = []
    spin_nbrs: list[int] = []  # photons adjacent to the spin's present vertex
    for t, op in enumerate(inner_ops):
        if op == "P":
            inside += [(u, t) for u in spin_nbrs]
            spin_nbrs = []
        spin_nbrs.append(t)
    edges = set()
    for b in range(m):
        base, virt = b * n, m * n + b
        edges.update((base + u, base + v) for u, v in inside)
        edges.update((base + u, virt) for u in spin_nbrs)
    edges.update((m * n + u, m * n + v) for u, v in build_progenitor(outer_ops).edges)
    return ConcatenatedTarget(n_photons=m * n, n_virtual=m, edges=frozenset(edges))


# -- replaying a sequence -------------------------------------------------


def _run(seq: GenerationSequence, backend) -> list[int]:
    """Replay ``seq`` on a backend; returns the wire of each photon in
    emission order, followed by the final wires of spin slots 0 and 1.

    Photon k is emitted onto wire k and the two slots start on wires P and
    P+1 (P photons), all in |+>.  A pending rotation turns an emission
    into a path edge: the photon flies off with the spin's old wire and
    the spin keeps the fresh one.  The backend supplies ``cz(a, b)``,
    ``measure_x(w)`` and ``reinit(w)``.
    """
    n_photons = seq.photon_count
    slot_wire = {0: n_photons, 1: n_photons + 1}
    pending_rot = {0: False, 1: False}
    photon_wire: list[int] = []
    for ins in seq.ops:
        e = ins.targets[0]
        if ins.op is Op.SPIN_ROTATION:
            pending_rot[e] = not pending_rot[e]
        elif ins.op is Op.EMIT_PHOTON:
            new_wire = len(photon_wire)
            backend.cz(slot_wire[e], new_wire)
            if pending_rot[e]:
                photon_wire.append(slot_wire[e])
                slot_wire[e] = new_wire
                pending_rot[e] = False
            else:
                photon_wire.append(new_wire)
        elif ins.op is Op.CZ:
            backend.cz(slot_wire[ins.targets[0]], slot_wire[ins.targets[1]])
        elif ins.op is Op.SWAP:
            a, b = ins.targets
            slot_wire[a], slot_wire[b] = slot_wire[b], slot_wire[a]
        elif ins.op is Op.MEASURE_X:
            backend.measure_x(slot_wire[e])
        elif ins.op is Op.REINIT:
            backend.reinit(slot_wire[e])
        # INIT_EMITTER: slots start in |+>
    return photon_wire + [slot_wire[0], slot_wire[1]]


def _replay(seq: GenerationSequence, target: ConcatenatedTarget, backend):
    """(compiled, target) states of ``seq`` on one backend and one set of wires.

    The replay runs on P + 2 + m wires: P photons, two spin slots and m
    outer vertices that no instruction touches, so they stay in |+>.  The
    target is built on the same wires, photon k on the wire ``_run``
    returns for it and virtual vertex b on wire P + 2 + b; after its X
    measurements both states are pure on the same wires, and the final
    slot wires are isolated |+> vertices of the target.  ``backend`` is
    a class with ``graph_state(n, edges)`` besides the methods ``_run``
    calls; ``verify_sequence`` reads the verdict off ``got.mismatch(want)``.
    """
    got = backend(seq.photon_count + 2 + target.n_virtual)
    wire = _run(seq, got)[: seq.photon_count]
    wire += range(seq.photon_count + 2, got.n)
    want = backend.graph_state(got.n, [(wire[u], wire[v]) for u, v in target.edges])
    for v in target.virtual_wires():
        want.measure_x(wire[v])
    return got, want


# -- verification ---------------------------------------------------------


class VerificationResult(NamedTuple):
    """Verdict of ``verify_sequence``: the failure message when not ``ok``."""

    ok: bool
    method: str
    message: str = ""


def verify_sequence(seq: GenerationSequence, method: str = "auto") -> VerificationResult:
    """Check a sequence against the concatenated target construction.

    ``method``: 'statevector' (exact bit-packed amplitudes, small targets
    only) or 'stabilizer' (sign-exact stabilizer tableau, any size);
    'auto' takes the state vector when there are at most 12 photons and
    photons plus one wire per outer vertex come to at most 16, and the
    tableau otherwise.  An explicit 'statevector' raises
    ``VerificationError`` when the simulated wires, P photons, two spin
    slots and m outer vertices, exceed ``statevec.MAX_WIRES`` (24).
    Both replay the sequence with every spin measurement forced to +1,
    and the compiled state gives the verdict against the target as
    ``mismatch``, exactly, signs included: the state vector compares
    support and signs and reports the overlap of the two states; the
    tableau tests each target generator for membership in the compiled
    group and names the first one that the group lacks or holds with
    sign -1 (on the replay's wires).  A forced outcome of zero
    probability fails as a diverged simulation.
    """
    target = build_concatenated_target(seq.outer_ops, seq.inner_ops)
    if target.n_photons != seq.photon_count:
        return VerificationResult(False, "none", "photon count differs from target")
    if method == "auto":
        small = seq.photon_count <= AUTO_MAX_PHOTONS and target.n_total <= AUTO_MAX_WIRES
        method = "statevector" if small else "stabilizer"
    if method == "statevector":
        from .statevec import FlatState as backend
    elif method == "stabilizer":
        from .tableau import StabilizerTableau as backend
    else:
        raise ValueError(f"unknown method {method!r}")
    try:
        got, want = _replay(seq, target, backend)
    except BranchImpossible as exc:
        return VerificationResult(False, method, f"simulation diverged: {exc}")
    message = got.mismatch(want)
    return VerificationResult(message is None, method, message or "")
