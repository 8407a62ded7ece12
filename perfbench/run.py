"""End-to-end and per-layer benchmark of the ``fusioncodes`` CLI.

    python3 perfbench/run.py --workload search --seed 1 --seconds 27 --trace 0

Run from the root of a source checkout; the package is taken from
``src/``.  One client drives the CLI as a closed loop: each invocation
runs in a fresh interpreter, as users run one command per process (so
the package's caches start cold), and the next starts when it has
ended.  No ``--threads`` flag is passed: the CLI default is measured.
A pass runs every invocation of the workload once; passes repeat while
the next one still ends within ``--seconds``.  Every output is checked
against ``reference.json``; an invocation that exits non-zero or whose
output differs counts as failed.

Times are scaled to a fixed host speed.  A shared host slows every
process down by up to about 1.8x for seconds to minutes at a time, so
the benchmark runs ``calibrate.py`` (fixed work that uses nothing of
``fusioncodes``) before and after every timed process and scales the
process's time by ``calibrate.REFERENCE_S`` over the mean of the two
calibration times.  A change to the program moves the scaled time as
much as the raw one; the run record keeps the raw times too.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` and ``cpu_s`` (scaled wall and user+sys time of one pass:
each invocation's median over the run's passes, summed),
``peak_rss_mb`` (largest peak RSS of any invocation, median over passes)
and ``setup_s`` (scaled median of fresh interpreters running ``import
fusioncodes.cli``, probed before the first pass).  With ``--trace 1``
passes alternate untraced and traced (``tracer.py`` wraps each layer's
entry points in the child) and the line reports the per-layer metrics
of ``tracer.PER_LAYER`` (medians over traced passes; self times are not
scaled), with ``trace.overhead_s`` = traced minus untraced ``wall_s``.
Run details (seed, drawn inputs, environment, per-pass figures and
layer times) go to stderr as one ``record:`` line per workload.

``--workload all`` prints a table of every workload's metrics, the
failure ratio included; ``--smoke`` shrinks every workload to n <= 4
and 4-vertex outer graphs; ``--self-test`` checks the harness itself.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads
from calibrate import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE = [sys.executable, str(Path(__file__).with_name("calibrate.py"))]
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_PROBES = 5
INVOCATION_TIMEOUT_S = 150.0

ENV_PROBE = """
import json, os, sys
import numpy
import fusioncodes, fusioncodes.cli as cli
try:
    threads = getattr(cli.build_parser().parse_args(["analyze", "--code", "L", "--out", "-"]), "threads", None)
except SystemExit:
    threads = None
print(json.dumps({"package": os.path.dirname(fusioncodes.__file__), "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "cli_threads_default": threads}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], cwd: Path, log: Path, env: dict | None = None) -> dict:
    """Run one process to completion; wall time, CPU time and peak RSS from wait4."""
    lock = threading.Lock()
    reaped = False
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env or child_env(), stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=fh)

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        with lock:
            reaped = True
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "rc": proc.returncode,
    }


def environment(work: Path) -> dict:
    probe = run_child([sys.executable, "-c", ENV_PROBE], work, work / "env.log")
    text = (work / "env.log").read_text()
    if probe["rc"] != 0:
        raise RuntimeError(f"cannot import fusioncodes from {ROOT / 'src'}:\n{text}")
    env = json.loads(text.strip().splitlines()[-1])
    if Path(env["package"]).resolve() != (ROOT / "src" / "fusioncodes").resolve():
        raise RuntimeError(f"fusioncodes imported from {env['package']}, not from this checkout")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    env.update(nproc=os.cpu_count(), cpu_model=cpu, machine=platform.machine())
    return env


def calibration(cwd: Path) -> dict:
    """Time one run of ``calibrate.py``, single-threaded so its CPU time is its own work."""
    log = cwd / "calibrate.log"
    env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cal = run_child(CALIBRATE, cwd, log, env)
    if cal["rc"] != 0:
        raise RuntimeError(f"calibration failed:\n{log.read_text(errors='replace')}")
    return cal


def run_calibrated(argv: list[str], cwd: Path, log: Path, before: dict) -> tuple[dict, dict]:
    """``run_child`` followed by a calibration; the record carries the mean
    times of ``before`` and that calibration, which is returned too."""
    rec = run_child(argv, cwd, log)
    after = calibration(cwd)
    for field in ("wall_s", "cpu_s"):
        rec["cal_" + field] = (before[field] + after[field]) / 2
    return rec, after


def scaled(records: list[dict], field: str) -> float:
    """Median of a time ``field`` over records, each scaled to the reference speed."""
    return statistics.median(r[field] / r["cal_" + field] for r in records) * REFERENCE_S


def setup_times(work: Path, probes: int, cal: dict) -> tuple[list[dict], dict]:
    """Fresh interpreter plus ``import fusioncodes.cli``, timed ``probes`` times."""
    argv = [sys.executable, "-c", "import fusioncodes.cli"]
    records = []
    for _ in range(probes):
        rec, cal = run_calibrated(argv, work, work / "setup.log", cal)
        records.append(rec)
    return records, cal


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_pass(name: str, work: Path, drawn: dict, smoke: bool, reference: dict, traced: bool, index: int,
             cal: dict) -> tuple[dict, dict]:
    """Run every invocation of the workload once and check its outputs; ``cal``
    is the latest calibration, and the pass's last one is returned."""
    out = work / f"pass{index}"
    out.mkdir()
    calls = workloads.invocations(name, work / "inputs", out, drawn, smoke)
    records, spans, problems = [], [], []
    for k, inv in enumerate(calls):
        if traced:
            spans_path = work / f"spans{index}-{k}.json"
            argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path), *inv.args]
        else:
            argv = [sys.executable, "-m", "fusioncodes.cli", *inv.args]
        rec, cal = run_calibrated(argv, work, work / f"pass{index}-{k}.log", cal)
        faults = []
        if rec["rc"] != 0:
            log = (work / f"pass{index}-{k}.log").read_text(errors="replace").strip().splitlines()
            faults.append(f"exit code {rec['rc']}: {log[-1] if log else ''}")
        elif inv.key not in reference:
            faults.append("no reference output recorded")
        else:
            try:
                faults += checks.compare(reference[inv.key], checks.signature(inv.args[0], inv.out))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                faults.append(f"unreadable output: {exc!r}")
        if traced and spans_path.exists():
            spans.append(json.loads(spans_path.read_text()))
            spans_path.unlink()
        problems += [f"{inv.key}: {msg}" for msg in faults]
        records.append(dict(rec, key=inv.key, ok=not faults))
    result = {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "bytes_written": dir_bytes(out),
        "invocations": records,
        "problems": problems,
    }
    if traced:
        result["layers"] = tracer.aggregate(spans)
        result["absent"] = sorted({a for s in spans for a in s["absent"]})
    shutil.rmtree(out)
    return result, cal


def pass_time(passes: list[dict], field: str) -> float:
    """Scaled time ``field`` of one pass: each invocation's median over the passes, summed."""
    per_call = zip(*(p["invocations"] for p in passes))
    return sum(scaled(list(records), field) for records in per_call)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, reference: dict,
                 log=sys.stderr) -> tuple[dict, dict]:
    """Run one workload; return (result line, run record)."""
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        drawn = workloads.write_inputs(work / "inputs", seed, smoke)
        env = environment(work)
        cal = calibration(work)
        setup, cal = setup_times(work, 0 if trace else SETUP_PROBES, cal)
        passes = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            for traced in (False, True) if trace else (False,):
                result, cal = run_pass(name, work, drawn, smoke, reference, traced, len(passes), cal)
                passes.append(result)
            print(f"[{name}] pass {len(passes)}: wall {passes[-1]['wall_s']:.3f} s", file=log, flush=True)
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(len(p["invocations"]) for p in passes)
    failed = sum(1 for p in passes for r in p["invocations"] if not r["ok"])
    problems = [msg for p in passes for msg in p["problems"]]
    plain = [p for p in passes if not p["traced"]]
    median = statistics.median
    if trace:
        traced = [p for p in passes if p["traced"]]
        counts = [(p["layers"]["calls"], p["layers"]["count"]) for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced passes")
        overhead = pass_time(traced, "wall_s") - pass_time(plain, "wall_s")
        per_pass = [tracer.per_layer_metrics(p["layers"], {"bytes_written": p["bytes_written"], "overhead_s": overhead})
                    for p in traced]
        values = {metric: {"value": median(v[metric] for v in per_pass), "unit": unit}
                  for metric, unit, *_ in tracer.PER_LAYER}
    else:
        values = {
            "wall_s": {"value": pass_time(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": pass_time(plain, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": median(p["peak_rss_mb"] for p in plain), "unit": "MB"},
            "setup_s": {"value": scaled(setup, "wall_s"), "unit": "s"},
        }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    record = {
        "workload": name,
        "smoke": smoke,
        "drawn": drawn,
        "environment": env,
        "fail_ratio": failed / attempted,
        "setup_samples": setup,
        "passes": [{k: v for k, v in p.items() if k != "problems"} for p in passes],
        "problems": problems[:20],
        "absent_entry_points": sorted({a for p in passes for a in p.get("absent", ())}),
        "computed_counters": list(tracer.COMPUTED) if trace else [],
    }
    return result, record


def print_table(results: dict[str, tuple[dict, dict]], out=sys.stdout) -> None:
    for name, (result, record) in results.items():
        print(f"{name}: fail_ratio {record['fail_ratio']:.4g} 1 "
              f"({result['failed']} of {result['attempted']} invocations failed)", file=out)
        for metric, v in result["metrics"].items():
            print(f"{name}: {metric} {v['value']:.6g} {v['unit']}", file=out)


# -- self-test -------------------------------------------------------------


def self_test() -> int:
    """Smoke-size checks of the harness: clean run, corrupted reference, repeatable counts."""
    reference = checks.load_reference()
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(f"[self-test] {'PASS' if cond else 'FAIL'} {what}", file=sys.stderr, flush=True)
        if not cond:
            failures.append(what)

    expect(not checks.check_anchors(reference), "reference reproduces the paper anchors")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["per_layer"]] == [m[0] for m in tracer.PER_LAYER],
           "BENCHMARK.json per_layer matches the tracer's metrics")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the benchmark's")

    with open(os.devnull, "w") as quiet:
        for name in workloads.WORKLOADS:
            result, record = run_workload(name, 1, 0, False, True, reference, log=quiet)
            expect(result["correct"] and result["failed"] == 0, f"{name}: smoke run passes its checks "
                   f"({result['attempted']} invocations) {record['problems'][:2]}")
            counts = []
            for _ in range(2):
                result, record = run_workload(name, 1, 0, True, True, reference, log=quiet)
                counts.append({m: v["value"] for m, v in result["metrics"].items() if not m.endswith("_s")})
                expect(set(result["metrics"]) == {m[0] for m in tracer.PER_LAYER} and result["correct"],
                       f"{name}: traced smoke run reports every per-layer metric")
            expect(counts[0] == counts[1], f"{name}: per-layer counts repeat exactly between two traced runs")

        corrupted = copy.deepcopy(reference)
        corrupted["threshold:randomized:2-4"]["approx"]["gamma_star"][-1] += 1e-9
        corrupted["compile:chain4:LPL:two-emitter"]["exact"]["instructions_sha"] = "0" * 16
        for name in ("search", "compile"):
            result, record = run_workload(name, 1, 0, False, True, corrupted, log=quiet)
            expect(record["fail_ratio"] > 0, f"{name}: a corrupted reference drives fail_ratio to "
                   f"{record['fail_ratio']:.3f} ({record['problems'][:1]})")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (n <= 4, 4-vertex outer graphs)")
    parser.add_argument("--self-test", action="store_true", help="check the harness at smoke size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fusioncodes" / "cli.py").is_file():
        print(f"error: no fusioncodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    reference = checks.load_reference()
    anchor_problems = checks.check_anchors(reference)
    if anchor_problems:
        print("error: reference.json fails the paper anchors: " + "; ".join(anchor_problems), file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, reference)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("record: " + json.dumps(results[name][1], sort_keys=True), file=sys.stderr)
    if args.workload == "all":
        print_table(results)
        print(json.dumps({n: res for n, (res, _) in results.items()}))
    else:
        print(json.dumps(results[args.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
