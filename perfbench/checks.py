"""Output checks: reduce each invocation's files to a signature and compare.

A signature has an ``exact`` part (code ids, failure bases, resource
counts, instruction-list digests, verification verdicts, integer
counts) compared with ``==``, and an ``approx`` part of float lists
compared within ``TOLERANCE``.  Manifests are left out: they record the
machine-dependent ``--threads`` default.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# Loss thresholds and every other float agree to 1e-12; region boundaries
# to the 1e-9 bisection tolerance.
TOLERANCE = {"epsilon_boundary": 1e-9}
DEFAULT_TOLERANCE = 1e-12

# Paper anchors the recorded references must reproduce.
ANCHORS = (
    ("optimize-w:LLPLPLPL", "gamma_star", 0.04374, 5e-6),
    ("region:LLPLPLPL", "epsilon_boundary", 0.00470, 5e-6),
)

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _threshold(out: str) -> dict:
    rows = _csv_rows(out)
    winners = _load(out + ".codes.json")["winners"]
    return {
        "exact": {
            "rows": [[int(r["n"]), r["code_id"], r["bias_mode"], r["w_star"]] for r in rows],
            "winner_codes": [w["result"]["code_id"] for w in winners],
        },
        "approx": {
            "gamma_star": [float(r["gamma_star"]) for r in rows],
            "p_erase": [float(r[k]) for r in rows for k in ("p_erase_xx", "p_erase_zz")],
        },
    }


def _optimize_w(out: str) -> dict:
    d = _load(out)
    return {
        "exact": {"code_id": d["code_id"], "bias_mode": d["bias_mode"], "w_star": d["w_star"]},
        "approx": {"gamma_star": [d["gamma_star"]]},
    }


def _region(out: str) -> dict:
    rows = _csv_rows(out)
    return {
        "exact": {"points": len(rows)},
        "approx": {
            "gamma": [float(r["gamma"]) for r in rows],
            "epsilon_boundary": [float(r["epsilon_boundary"]) for r in rows],
        },
    }


def _compile(out: str) -> dict:
    d = _load(out + ".sequence.json")
    seq = d["sequence"]
    resources = _csv_rows(out + ".resources.csv")
    return {
        "exact": {
            "mode": seq["mode"],
            "outer_ops": seq["outer_ops"],
            "inner_ops": seq["inner_ops"],
            "photons": seq["photons"],
            "instructions": len(seq["instructions"]),
            "instructions_sha": _digest(seq["instructions"]),
            "verified": d["verified"],
            "verification_method": d["verification_method"],
            "resources": [[int(v) for v in r.values()] for r in resources],
        },
        "approx": {},
    }


def _duals(out: str) -> dict:
    entries = _load(out)["duals"]
    return {
        "exact": {
            "codes": [e["code_id"] for e in entries],
            "swapped_qubit": [e["swapped_qubit"] for e in entries],
            "swap_verified": [e["swap_verified"] for e in entries],
            "dual_progenitors_sha": _digest([e["dual_progenitor"] for e in entries]),
        },
        "approx": {},
    }


def _analyze(out: str) -> dict:
    r = _load(out)["report"]
    return {
        "exact": {
            "code_id": r["code_id"],
            "w": r["w"],
            "p_success_xx_counts": r["p_success_xx_counts"],
            "p_success_zz_counts": r["p_success_zz_counts"],
        },
        "approx": {"rates": [row[k] for row in r["rates"] for k in ("eta", "p_erase_xx", "p_erase_zz")]},
    }


EXTRACTORS = {
    "threshold": _threshold,
    "optimize-w": _optimize_w,
    "region": _region,
    "compile": _compile,
    "duals": _duals,
    "analyze": _analyze,
}


def signature(command: str, out: str) -> dict:
    return EXTRACTORS[command](out)


def compare(ref: dict, got: dict) -> list[str]:
    """Mismatches between a reference signature and an observed one."""
    problems = []
    for field, want in ref["exact"].items():
        have = got["exact"].get(field)
        if have != want:
            problems.append(f"{field}: expected {want!r}, got {have!r}")
    for field, want in ref["approx"].items():
        have = got["approx"].get(field)
        tol = TOLERANCE.get(field, DEFAULT_TOLERANCE)
        if have is None or len(have) != len(want):
            problems.append(f"{field}: expected {len(want)} values, got {None if have is None else len(have)}")
            continue
        off = [abs(a - b) for a, b in zip(want, have) if not abs(a - b) <= tol]  # NaN is off too
        if off:
            problems.append(f"{field}: {len(off)} values deviate, by up to {max(off):.3g} (tolerance {tol:g})")
    return problems


def check_anchors(reference: dict) -> list[str]:
    """Paper anchors the reference must reproduce (full-size entries only)."""
    problems = []
    for key, field, value, tol in ANCHORS:
        entry = reference.get(key)
        got = entry["approx"][field][0] if entry else None
        if got is None or abs(got - value) > tol:
            problems.append(f"anchor {key} {field}: expected {value} +/- {tol}, reference has {got}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
