"""Record ``reference.json``: the expected output signature of every invocation.

    python3 perfbench/record.py

Runs the CLI in-process (its caches make the seeded pools cheap) for
every fixed input and every member of the seeded pools, at full and
smoke size, plus the paper's n=8 region (larger than the region
workload's codes, recorded for its anchor only), and checks the result
against the paper anchors before writing it.  Re-record only when an
output is meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def record() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from fusioncodes import cli

    reference = {}
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        base = Path(tmp)
        for smoke in (False, True):
            size = workloads.SIZES[smoke]
            inputs = base / "inputs"
            drawn = workloads.write_inputs(inputs, 1, smoke)
            codes, shapes = workloads.pools(smoke)
            draws = [dict(drawn, region_code=c) for c in codes]
            draws += [dict(drawn, caterpillar_shape=workloads.shape_key(c), counts=c) for c in shapes]
            for draw in draws:
                if "counts" in draw:
                    outer = workloads.caterpillar(draw["counts"], size["spine"])
                    (inputs / f"caterpillar{size['outer_m']}.json").write_text(json.dumps(outer))
                for name in workloads.WORKLOADS:
                    for inv in workloads.invocations(name, inputs, base / "out", draw, smoke):
                        if inv.key in reference:
                            continue
                        code = cli.main(list(inv.args))
                        if code != 0:
                            raise SystemExit(f"{inv.key}: exit code {code}")
                        reference[inv.key] = checks.signature(inv.args[0], inv.out)
                        print(f"recorded {inv.key}", file=sys.stderr, flush=True)
        code = workloads.ANCHOR_CODE
        out = str(base / "anchor-region.csv")
        if cli.main(["region", "--code", code, "--config", str(inputs / "config.json"), "--out", out]) != 0:
            raise SystemExit(f"region:{code}: non-zero exit code")
        reference[f"region:{code}"] = checks.signature("region", out)
    problems = checks.check_anchors(reference)
    if problems:
        raise SystemExit("; ".join(problems))
    return reference


if __name__ == "__main__":
    ref = record()
    checks.REFERENCE_FILE.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(ref)} references to {checks.REFERENCE_FILE}", file=sys.stderr)
