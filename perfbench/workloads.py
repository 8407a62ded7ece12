"""Seeded inputs and the CLI invocations of each benchmark workload.

A workload is a fixed list of ``fusioncodes`` invocations.  The paper's
fixed inputs are spelled out here; ``--seed`` draws the seeded members
(the n=6 code of ``region`` and the caterpillar of ``compile``).  Every
input file is written into the run's scratch directory, so the program
only ever sees these files and flags.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

WORKLOADS = ("search", "region", "compile", "exact")

# The paper's n=8 randomized-bias winner and its optimal failure basis.
ANCHOR_CODE = "LLPLPLPL"
ANCHOR_W = "10010100"

# Default outer-code erasure threshold: inverts the boosted-fusion
# baseline 1 - (1 - p_fail/2) eta^4 at p_fail = 1/4 and 0.52% loss.
P_TILDE = 1.0 - (1.0 - 0.25 / 2.0) * (1.0 - 0.0052) ** 4
# Example tolerable-fusion-error map: linear from 1.4554% at zero logical
# erasure down to zero at the erasure threshold.
EPSILON_M = [[0.0, 0.014554153114464], [P_TILDE, 0.0]]

# Sizes: every full-size invocation takes at most about 1.3 s at full
# host speed, so a run repeats each one many times (the paper's sizes
# take up to 5.5 s per invocation, too few repeats to see past a shared
# host's speed swings).  ``region`` is the n=6 randomized-bias winner.  Smoke
# runs use n <= 4 and 4-vertex outer graphs.
SIZES = {
    False: {"n_max": 5, "inner": ANCHOR_CODE, "w": ANCHOR_W, "region": "LLPLPL", "seeded_n": 6,
            "outer_m": 11, "spine": 6, "duals_n": 5},
    True: {"n_max": 4, "inner": "LLPL", "w": "1001", "region": "LLPL", "seeded_n": 4, "outer_m": 4,
           "spine": 3, "duals_n": 4},
}
SMALL_INNER = "LPL"  # 12 photons on a 4-vertex chain: state-vector verification
ETA_GRID = "1.0,0.98,0.96,0.9"


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``key`` names its reference output, ``out`` its output path."""

    key: str
    args: tuple[str, ...]
    out: str


def seeded_code(seed: int, n: int) -> str:
    """One of the 2^(n-1) code ids that start with a leaf (for n=6 these are
    exactly the 32 codes the package enumerates)."""
    rng = random.Random(f"region-code:{seed}")
    return "L" + "".join(rng.choice("LP") for _ in range(n - 1))


def caterpillar_shapes(spine: int, leaves: int) -> list[tuple[int, ...]]:
    """Leaf counts per interior spine vertex, one tuple per distinct shape."""
    interior = max(spine - 2, 1)
    shapes = set()
    for combo in combinations_with_replacement(range(interior), leaves):
        counts = tuple(combo.count(i) for i in range(interior))
        shapes.add(min(counts, counts[::-1]))
    return sorted(shapes)


def shape_key(counts: tuple[int, ...]) -> str:
    return "-".join(map(str, counts))


def caterpillar(counts: tuple[int, ...], spine: int, labels: list[int] | None = None) -> dict:
    """Outer-graph JSON: a spine path with counts[i] leaves on interior vertex i."""
    interior = list(range(1, spine - 1)) or [0]
    edges = [(i, i + 1) for i in range(spine - 1)]
    leaf = spine
    for v, c in zip(interior, counts):
        for _ in range(c):
            edges.append((v, leaf))
            leaf += 1
    labels = labels or list(range(leaf))
    relabelled = sorted(tuple(sorted((labels[u], labels[v]))) for u, v in edges)
    return {"n": leaf, "edges": [list(e) for e in relabelled]}


def seeded_caterpillar(seed: int, m: int, spine: int) -> tuple[str, dict]:
    """(shape key, outer-graph JSON) of an m-vertex caterpillar.

    Each leaf hangs from a random interior spine vertex, and the vertex
    labels are shuffled; the compiled sequence depends on the shape only.
    """
    rng = random.Random(f"caterpillar:{seed}")
    interior = max(spine - 2, 1)
    attach = [rng.randrange(interior) for _ in range(m - spine)]
    counts = tuple(attach.count(i) for i in range(interior))
    labels = list(range(m))
    rng.shuffle(labels)
    return shape_key(min(counts, counts[::-1])), caterpillar(counts, spine, labels)


def chain(m: int) -> dict:
    return {"n": m, "edges": [[i, i + 1] for i in range(m - 1)]}


def star(m: int) -> dict:
    return {"n": m, "edges": [[0, i] for i in range(1, m)]}


def write_inputs(directory: Path, seed: int, smoke: bool) -> dict:
    """Write the config and outer-graph files; return what the seed drew."""
    size = SIZES[smoke]
    m = size["outer_m"]
    directory.mkdir(parents=True, exist_ok=True)
    config = {"p_tilde_randomized": P_TILDE, "epsilon_M": EPSILON_M}
    shape, cat = seeded_caterpillar(seed, m, size["spine"])
    files = {
        "config.json": config,
        f"chain{m}.json": chain(m),
        f"star{m}.json": star(m),
        f"caterpillar{m}.json": cat,
        "chain4.json": chain(4),
    }
    for name, payload in files.items():
        (directory / name).write_text(json.dumps(payload, sort_keys=True) + "\n")
    return {
        "seed": seed,
        "region_code": seeded_code(seed, size["seeded_n"]),
        "caterpillar_shape": shape,
        "caterpillar_edges": cat["edges"],
    }


def invocations(name: str, inputs: Path, out: Path, drawn: dict, smoke: bool) -> list[Invocation]:
    """The workload's CLI calls, given its input directory and an output directory."""
    size = SIZES[smoke]
    m = size["outer_m"]
    inner = size["inner"]
    config = str(inputs / "config.json")

    def o(stem: str) -> str:
        return str(out / stem)

    if name == "search":
        calls = []
        for bias in ("randomized", "passive"):
            key = f"threshold:{bias}:2-{size['n_max']}"
            calls.append(Invocation(key, ("threshold", "--n-min", "2", "--n-max", str(size["n_max"]),
                                          "--bias", bias, "--out", o(f"threshold-{bias}.csv")),
                                    o(f"threshold-{bias}.csv")))
        calls.append(Invocation(f"optimize-w:{inner}", ("optimize-w", "--code", inner, "--out", o("optimize.json")),
                                o("optimize.json")))
        return calls
    if name == "region":
        code = drawn["region_code"]
        return [
            Invocation(f"region:{c}", ("region", "--code", c, "--config", config, "--out", o(f"region-{c}.csv")),
                       o(f"region-{c}.csv"))
            for c in (size["region"], code)
        ]
    if name == "compile":
        shape = drawn["caterpillar_shape"]
        plan = [
            (f"compile:chain{m}:{inner}:two-emitter", f"chain{m}.json", inner, "two-emitter"),
            (f"compile:caterpillar{m}-{shape}:{inner}:emitter-memory", f"caterpillar{m}.json", inner,
             "emitter-memory"),
            (f"compile:star{m}:{inner}:two-emitter", f"star{m}.json", inner, "two-emitter"),
            (f"compile:chain4:{SMALL_INNER}:two-emitter", "chain4.json", SMALL_INNER, "two-emitter"),
            (f"compile:chain4:{SMALL_INNER}:emitter-memory", "chain4.json", SMALL_INNER, "emitter-memory"),
        ]
        return [
            Invocation(key, ("compile", "--outer", str(inputs / outer), "--inner", code, "--mode", mode,
                             "--out", o(f"compile{k}")), o(f"compile{k}"))
            for k, (key, outer, code, mode) in enumerate(plan)
        ]
    if name == "exact":
        n = size["duals_n"]
        return [
            Invocation(f"duals:{n}", ("duals", "--n", str(n), "--out", o("duals.json")), o("duals.json")),
            Invocation(f"analyze:{inner}:{size['w']}",
                       ("analyze", "--code", inner, "--w", size["w"], "--eta-grid", ETA_GRID,
                        "--out", o("analyze.json")), o("analyze.json")),
        ]
    raise ValueError(f"unknown workload {name!r}")


def pools(smoke: bool) -> tuple[list[str], list[tuple[int, ...]]]:
    """Everything the seed can draw: region code ids and caterpillar shapes."""
    size = SIZES[smoke]
    n = size["seeded_n"]
    codes = ["L" + "".join("P" if (k >> i) & 1 else "L" for i in range(n - 1)) for k in range(1 << (n - 1))]
    return codes, caterpillar_shapes(size["spine"], size["outer_m"] - size["spine"])
