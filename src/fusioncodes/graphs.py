"""Graph states, local complementation, and the single-emitter graph class.

A :class:`GraphState` is a simple undirected graph with one marked vertex,
the emitter spin; all other vertices are photons.  The two primitive
growth operations a single emitter supports are leaf creation (attach a
new degree-1 photon to the emitter) and path-edge creation (attach and
hand the emitter role to the new vertex).  Every sequence of these
operations yields a branched chain (caterpillar) with the emitter at the
end of the spine, and the sequences that start with a leaf list every
such graph exactly once.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .pauli import ResourceCapExceeded

PROGENITOR_CAP = 8  # photons; the largest code the commands enumerate or analyze (2^(cap-1) codes)


class GenerationOp(Enum):
    LEAF = "L"
    PATH_EDGE = "P"


# Records are NamedTuples: equality and hashing by value, no per-class
# generated code.  One that validates subclasses its fields and checks
# them in ``__new__``, which builds the tuple directly.
class _GraphFields(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]
    emitter: int = 0


class GraphState(_GraphFields):
    """Simple undirected graph over ``n`` vertices with a marked emitter."""

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset[tuple[int, int]], emitter: int = 0):
        if not 0 <= emitter < n:
            raise ValueError(f"emitter {emitter} out of range for n={n}")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}); store as sorted pairs")
        return tuple.__new__(cls, (n, edges, emitter))

    @staticmethod
    def from_edges(n: int, edges, emitter: int = 0) -> "GraphState":
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return GraphState(n, norm, emitter)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u if w == v else w for u, w in self.edges if v in (u, w))

    def neighbor_mask(self, v: int) -> int:
        mask = 0
        for u, w in self.edges:
            if u == v:
                mask |= 1 << w
            elif w == v:
                mask |= 1 << u
        return mask

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": sorted([u, v] for u, v in self.edges),
            "emitter": self.emitter,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "GraphState":
        """Parse ``{"n": .., "edges": [[u, v], ...], "emitter": ..}``; raises
        ValueError on anything else, so untrusted files fail cleanly."""
        if not isinstance(data, dict) or "n" not in data or "edges" not in data:
            raise ValueError("graph JSON must be an object with keys 'n' and 'edges'")
        n, edges, emitter = data["n"], data["edges"], data.get("emitter", 0)

        def is_int(x) -> bool:
            return isinstance(x, int) and not isinstance(x, bool)

        pairs_ok = isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2 and all(map(is_int, e)) for e in edges
        )
        if not (is_int(n) and is_int(emitter) and pairs_ok):
            raise ValueError("graph JSON needs integer 'n' and 'emitter' and 'edges' as [u, v] integer pairs")
        graph = GraphState.from_edges(n, edges, emitter)
        if len(graph.edges) != len(edges):
            raise ValueError("graph JSON lists an edge twice")
        return graph

    def to_dot(self, name: str = "g") -> str:
        lines = [f"graph {name} {{"]
        for v in range(self.n):
            style = ' [color=red, style=filled, fillcolor="#ffcccc"]' if v == self.emitter else ""
            lines.append(f"  {v}{style};")
        for u, v in sorted(self.edges):
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- local complementation -------------------------------------------


def local_complement(g: GraphState, q: int) -> GraphState:
    """Toggle every edge between two neighbors of ``q``; involutive."""
    if not 0 <= q < g.n:
        raise ValueError(f"vertex {q} out of range")
    nbrs = sorted(g.neighbors(q))
    edges = set(g.edges)
    for i, u in enumerate(nbrs):
        for v in nbrs[i + 1 :]:
            e = (u, v)
            if e in edges:
                edges.remove(e)
            else:
                edges.add(e)
    return GraphState(g.n, frozenset(edges), g.emitter)


# -- generation operations -------------------------------------------


def build_progenitor(ops: str | list[GenerationOp]) -> GraphState:
    """Apply a LEAF/PATH_EDGE sequence to a lone emitter vertex.

    Each photon becomes the next vertex, attached to the current emitter;
    LEAF keeps the emitter mark in place and PATH_EDGE moves it to the new
    vertex, so the old emitter vertex becomes a photon.  One pass, one
    ``GraphState``.
    """
    emitter = 0
    edges = []
    for new, op in enumerate(map(GenerationOp, ops), start=1):
        edges.append((emitter, new))
        if op is GenerationOp.PATH_EDGE:
            emitter = new
    return GraphState(len(edges) + 1, frozenset(edges), emitter)


# -- caterpillars and enumeration ------------------------------------


def caterpillar_spine(g: GraphState) -> list[tuple[int, int]] | None:
    """Spine of a caterpillar tree as (vertex, leaf count) pairs in path
    order, or None when ``g`` is not a caterpillar tree.

    The spine is the path of internal (degree >= 2) vertices, empty for
    n <= 2.  One adjacency build, so O(n).
    """
    if len(g.edges) != g.n - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != g.n:
        return None
    # the internal vertices of a tree span a subtree: a path iff no
    # internal vertex has three internal neighbors
    links = {v: [u for u in adj[v] if len(adj[u]) > 1] for v in range(g.n) if len(adj[v]) > 1}
    if any(len(nbrs) > 2 for nbrs in links.values()):
        return None
    spine: list[tuple[int, int]] = []
    prev, cur = None, next((v for v, nbrs in links.items() if len(nbrs) < 2), None)
    while cur is not None:
        spine.append((cur, len(adj[cur]) - len(links[cur])))
        prev, cur = cur, next((u for u in links[cur] if u != prev), None)
    return spine


class ProgenitorRecord(NamedTuple):
    """Enumerated progenitor: the graph plus the op sequence that built it.

    ``sequence`` doubles as a stable code identifier ('L' = leaf,
    'P' = path edge, one letter per photon in emission order).
    """

    sequence: str
    graph: GraphState


def enumerate_progenitor_records(n_photons: int) -> list[ProgenitorRecord]:
    """One record per marked graph reachable with ``n_photons`` emissions,
    up to isomorphism of (graph, emitter).

    The sequences are 'L' followed by every (n-1)-letter string in
    binary-counter order (letter i+1 is 'P' when bit i is set).  A leading
    P gives the graph of a leading L up to swapping vertices 0 and 1, and
    two different L-strings are never isomorphic, because the spine walk
    read from the emitter's end gives the string back.
    """
    if n_photons < 1:
        raise ValueError("need at least one photon")
    if n_photons > PROGENITOR_CAP:
        raise ResourceCapExceeded(f"{n_photons} photons exceeds cap {PROGENITOR_CAP}")
    records = []
    for s in range(1 << (n_photons - 1)):
        ops = "L" + "".join("P" if (s >> i) & 1 else "L" for i in range(n_photons - 1))
        records.append(ProgenitorRecord(ops, build_progenitor(ops)))
    return records
