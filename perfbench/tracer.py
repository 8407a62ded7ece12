"""Per-layer spans for one ``fusioncodes`` CLI invocation.

Run as ``python3 perfbench/tracer.py SPANS_JSON <cli args...>`` with the
package on ``PYTHONPATH``.  It wraps the public entry points of every
layer, runs ``fusioncodes.cli.main`` and, when main returns, writes the
spans kept in memory to SPANS_JSON.  Nothing under ``src/`` changes.

A span is (id, name, start, end, thread CPU seconds, parent id, thread
id, counts).  Each
thread keeps its own span stack; a span opened on a worker thread with
an empty stack takes the innermost open span of the main thread as its
parent, which is how ``search_best_code``'s thread pool is attributed.
``aggregate`` turns the spans of a pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _nbytes(obj) -> int:
    """Bytes held by an object's array attributes, dict-valued ones included."""
    arrays = []
    for value in vars(obj).values():
        arrays += value.values() if isinstance(value, dict) else [value]
    return sum(getattr(a, "nbytes", 0) for a in arrays)


def _table(args, result, state):
    return None, {"fusion.table_builds": 1, "fusion.table_mb": _nbytes(args[0]) / 2**20}


def _decoder_setup(args, result, state):
    sides = getattr(args[0], "_sides", {})
    return None, {"fusion.recovering_patterns": sum(len(s["idxs"]) for s in sides.values())}


def _walsh(args, result, state):
    groups = args[0]._sides[args[1]]["groups"]
    rows = sum(len(r) for r, _ in groups.values())
    ops = sum(len(r) * (rank + 1) * 2 ** (rank + 1) for rank, (r, _) in groups.items())
    return None, {"fusion.walsh_rows": rows, "fusion.walsh_ops": ops}


def _bases(args, result, state):
    return None, {"thresholds.bases_scanned": 2 ** args[0].n_code}


def _region(args, result, state):
    return None, {"thresholds.region_points": len(result)}


def _scan_misses(args=None):
    scan = getattr(sys.modules["fusioncodes.compiler"], "_unmarked_sequence_index", None)
    return scan.cache_info().misses if hasattr(scan, "cache_info") else 0


def _derive(args, result, state):
    # the seed's outer-sequence derivation scans 2^(m-1) op strings per
    # outer size it has not seen in this process
    scanned = 2 ** (args[0].n - 1) if _scan_misses() > state else 0
    return None, {"compiler.derive_candidates": scanned}


def _emit(args, result, state):
    return None, {"compiler.instructions": len(result.ops)}


def _verify(args, result, state):
    counts = {"compiler.verified_photons": args[0].photon_count if result.ok else 0}
    return f"compiler.verify_{result.method}", counts


# (span name, module, attribute, pre hook, post hook); a post hook may
# rename the span and returns the counts it adds.
ENTRY_POINTS = (
    ("cli.self", "fusioncodes.cli", "main", None, None),
    ("graphs.enumerate", "fusioncodes.graphs", "enumerate_progenitor_records", None, None),
    ("codes.build", "fusioncodes.codes", "code_from_progenitor", None, None),
    ("codes.dual", "fusioncodes.codes", "dual_code_with_map", None, None),
    ("pauli.enumerate_group", "fusioncodes.pauli", "enumerate_group", None, None),
    ("pauli.gf2_reduce", "fusioncodes.pauli", "gf2_reduce", None, None),
    ("fusion.table", "fusioncodes.fusion", "CodeFusionTable.__init__", None, _table),
    ("fusion.count", "fusioncodes.fusion", "CodeFusionTable.success_polynomial", None, None),
    ("fusion.coeffs", "fusioncodes.lpoly", "LossPolynomial.eta2_coeffs", None, None),
    ("fusion.decoder_setup", "fusioncodes.fusion", "ErrorAnalyzer.__init__", None, _decoder_setup),
    ("fusion.decoder_eval", "fusioncodes.fusion", "ErrorAnalyzer.rates", None, None),
    ("fusion.walsh", "fusioncodes.fusion", "ErrorAnalyzer.pattern_error_rates", None, _walsh),
    ("fusion.dual_check", "fusioncodes.fusion", "validate_dual_swap", None, None),
    ("fusion.analyze", "fusioncodes.fusion", "erasure_analysis", None, None),
    ("thresholds.loss_threshold", "fusioncodes.thresholds", "loss_threshold", None, _bases),
    ("thresholds.search", "fusioncodes.thresholds", "search_best_code", None, None),
    ("thresholds.region", "fusioncodes.thresholds", "correctable_region", None, _region),
    ("compiler.derive", "fusioncodes.compiler", "derive_outer_sequence", _scan_misses, _derive),
    ("compiler.derive", "fusioncodes.compiler", "derive_marked_sequence", None, None),
    ("compiler.emit", "fusioncodes.compiler", "compile_generation", None, _emit),
    ("compiler.target", "fusioncodes.compiler", "build_concatenated_target", None, None),
    ("compiler.verify", "fusioncodes.compiler", "verify_sequence", None, _verify),
)

# (metric, unit, better, kind, source): kind "self" sums busy self times
# (see ``aggregate``), "calls" counts spans, "count" sums a counter, and
# "run" is a figure of the whole pass.
PER_LAYER = (
    ("graphs.enumerate_s", "s", "lower", "self", "graphs.enumerate"),
    ("graphs.enumerate_calls", "count", "lower", "calls", "graphs.enumerate"),
    ("codes.build_s", "s", "lower", "self", "codes.build"),
    ("codes.built", "count", "lower", "calls", "codes.build"),
    ("codes.dual_s", "s", "lower", "self", "codes.dual"),
    ("pauli.enumerate_group_s", "s", "lower", "self", "pauli.enumerate_group"),
    ("pauli.gf2_reduce_s", "s", "lower", "self", "pauli.gf2_reduce"),
    ("fusion.table_s", "s", "lower", "self", "fusion.table"),
    ("fusion.table_builds", "count", "lower", "count", "fusion.table_builds"),
    ("fusion.table_mb", "MB", "lower", "count", "fusion.table_mb"),
    ("fusion.count_s", "s", "lower", "self", "fusion.count"),
    ("fusion.count_calls", "count", "lower", "calls", "fusion.count"),
    ("fusion.coeffs_s", "s", "lower", "self", "fusion.coeffs"),
    ("fusion.coeffs_calls", "count", "lower", "calls", "fusion.coeffs"),
    ("fusion.decoder_setup_s", "s", "lower", "self", "fusion.decoder_setup"),
    ("fusion.recovering_patterns", "count", "lower", "count", "fusion.recovering_patterns"),
    ("fusion.decoder_eval_s", "s", "lower", "self", "fusion.decoder_eval"),
    ("fusion.decoder_evals", "count", "lower", "calls", "fusion.decoder_eval"),
    ("fusion.walsh_s", "s", "lower", "self", "fusion.walsh"),
    ("fusion.walsh_rows", "count", "lower", "count", "fusion.walsh_rows"),
    ("fusion.walsh_ops", "count", "lower", "count", "fusion.walsh_ops"),
    ("fusion.dual_check_s", "s", "lower", "self", "fusion.dual_check"),
    ("fusion.analyze_s", "s", "lower", "self", "fusion.analyze"),
    ("thresholds.loss_threshold_s", "s", "lower", "self", "thresholds.loss_threshold"),
    ("thresholds.bases_scanned", "count", "lower", "count", "thresholds.bases_scanned"),
    ("thresholds.search_s", "s", "lower", "self", "thresholds.search"),
    ("thresholds.region_s", "s", "lower", "self", "thresholds.region"),
    ("thresholds.region_points", "count", "higher", "count", "thresholds.region_points"),
    ("compiler.derive_s", "s", "lower", "self", "compiler.derive"),
    ("compiler.derive_candidates", "count", "lower", "count", "compiler.derive_candidates"),
    ("compiler.emit_s", "s", "lower", "self", "compiler.emit"),
    ("compiler.instructions", "count", "lower", "count", "compiler.instructions"),
    ("compiler.target_s", "s", "lower", "self", "compiler.target"),
    ("compiler.verify_stabilizer_s", "s", "lower", "self", "compiler.verify_stabilizer"),
    ("compiler.verify_statevector_s", "s", "lower", "self", "compiler.verify_statevector"),
    ("compiler.verified_photons", "count", "higher", "count", "compiler.verified_photons"),
    ("cli.self_s", "s", "lower", "self", "cli.self"),
    ("cli.bytes_written", "bytes", "lower", "run", "bytes_written"),
    ("trace.wait_s", "s", "lower", "run", "wait_s"),
    ("trace.overhead_s", "s", "lower", "run", "overhead_s"),
)

# Counters derived from the sizes a wrapped call exposes (array bytes,
# pattern groups, 2^n bases, 2^(m-1) op strings), not counted event by event.
COMPUTED = (
    "fusion.table_mb",
    "fusion.recovering_patterns",
    "fusion.walsh_rows",
    "fusion.walsh_ops",
    "thresholds.bases_scanned",
    "compiler.derive_candidates",
)


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.broken_counters: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, pre, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            state = pre(args) if pre else None
            stack.append(sid)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, time.thread_time() - cpu, parent,
                                   threading.get_ident(), None))
                raise
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
            span_name, counts = name, None
            if post:
                try:
                    rename, counts = post(args, result, state)
                    span_name = rename or name
                except (AttributeError, KeyError, TypeError, ValueError):
                    # a refactor moved what the counter reads: keep the span
                    self.broken_counters.add(name)
            self.spans.append((sid, span_name, start, end, cpu, parent, threading.get_ident(), counts))
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point found; return the ones that are absent."""
    importlib.import_module("fusioncodes.cli")
    package = [m for name, m in sys.modules.items() if name == "fusioncodes" or name.startswith("fusioncodes.")]
    absent = []
    for name, module_name, attr, pre, post in ENTRY_POINTS:
        owner = sys.modules.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            absent.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(name, original, pre, post)
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return absent


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def aggregate(span_files: list[dict]) -> dict:
    """Self times per span name, call counts and summed counters over invocations.

    A span's wall self time is its duration minus the part its child
    spans (on any thread) cover.  Its busy self time is the CPU time of
    its thread inside the span minus that of its children on the same
    thread.  Under ``search_best_code``'s thread pool the two differ:
    threads wait for the interpreter lock inside spans that release it,
    and the wall self times of concurrent threads overlap.  The busy
    times attribute work without double counting; the difference,
    summed over all spans, is the waiting time.
    """
    wall: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for data in span_files:
        spans = data["spans"]
        children = defaultdict(list)
        child_cpu = defaultdict(float)
        for sid, name, start, end, cpu, parent, thread, _counts in spans:
            if parent is not None:
                children[parent].append((start, end))
                child_cpu[(parent, thread)] += cpu
        for sid, name, start, end, cpu, parent, thread, span_counts in spans:
            clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
            wall[name] += (end - start) - _covered(clipped)
            busy[name] += cpu - child_cpu[(sid, thread)]
            calls[name] += 1
            for key, value in (span_counts or {}).items():
                counts[key] += value
    return {
        "busy": dict(busy),
        "wall": dict(wall),
        "calls": dict(calls),
        "count": dict(counts),
        "wait_s": sum(wall.values()) - sum(busy.values()),
    }


def per_layer_metrics(agg: dict, run: dict) -> dict[str, float]:
    """Every PER_LAYER metric of one traced pass; ``run`` holds the pass-level ones."""
    out = {}
    for metric, _unit, _better, kind, source in PER_LAYER:
        if kind == "self":
            out[metric] = agg["busy"].get(source, 0.0)
        elif kind == "run":
            out[metric] = run[source] if source in run else agg[source]
        else:
            out[metric] = agg[kind].get(source, 0)
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    absent = install(tracer)
    cli = sys.modules["fusioncodes.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            absent += sorted(f"counter of {n}" for n in tracer.broken_counters)
            json.dump({"spans": tracer.spans, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
