"""Batch command-line interface.

Every command validates its inputs, computes, and writes outputs
atomically (temp file + rename, with the mode a plain ``open()`` would
give) together with a run manifest carrying the command, parameters,
config digest and tool version, so repeated runs with identical inputs
produce byte-identical files.

Exit codes: 0 ok, 2 usage (including a --p-fail or --eta-grid value
outside [0, 1] or not a number, and --inject-fault on a one-vertex
outer graph, which has no spin-spin CZ to delete), 3 config (unreadable
or malformed config, outer-graph or code input), 4 resource cap (a code
id longer than 8 photons, a size above 8, more than ``GRID_POINTS_CAP``
region grid points), 5 verification failure.

The analysis modules (``lpoly``, ``thresholds``, ``fusion``) and the
``compiler`` are imported inside the commands that use them, and no
command loads numpy: ``analyze`` and the threshold search count on
``lpoly``'s Python-int transfer counts, and ``region``'s ML decoder
evaluates integer polynomials folded once per code.

Start-up dominates these commands, and shutdown adds to it.  Measured
on a 2-core x86-64 host (Python 3.11.7, fresh processes, no bytecode
cache (``PYTHONDONTWRITEBYTECODE=1``), so each process also compiles
the package source it imports): the interpreter plus ``site`` take
40-70 ms, and importing this module takes 13-16 ms more (``-X
importtime``).  Records are NamedTuples or ``__slots__`` classes, so no
command loads ``inspect``, which generated classes would.  At exit the
interpreter runs a full garbage collection over every object still
tracked, about 5 ms here; ``run``, the process entry, freezes the
collector first so that collection has nothing to traverse.  See
README "Startup".
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile

from . import __version__
from .codes import code_from_progenitor, dual_code_with_map, dual_swap_holds
from .graphs import (
    PROGENITOR_CAP,
    GraphState,
    build_progenitor,
    enumerate_progenitor_records,
)
from .pauli import CompileError, ConfigError, ResourceCapExceeded, VerificationError

# values of ``compiler.Mode``, spelled out so the parser needs no compiler
MODES = ("two-emitter", "emitter-memory")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5

GRID_POINTS_CAP = 10_001  # region grid: a gamma step of gamma*/10^4, far below the epsilon bisection's resolution


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    umask = os.umask(0)  # reading the umask means setting it
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600 becomes the mode open() would create
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _manifest(args, command: str, config_dict=None) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and v is not None
    }
    digest = None
    if config_dict is not None:
        # CPython's built-in SHA-256 (_sha256, _sha2 from 3.12) gives hashlib's digest
        # without hashlib's OpenSSL load, 3.5-6 ms of a fresh process (README "Startup")
        try:
            from _sha256 import sha256
        except ImportError:
            try:
                from _sha2 import sha256
            except ImportError:
                from hashlib import sha256

        digest = sha256(_canonical_json(config_dict).encode()).hexdigest()
    return {
        "command": command,
        "parameters": params,
        "config_digest": digest,
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }


def _say(line: str | None = None) -> None:
    """Print a progress or summary line, then flush stdout (``None``: only flush).

    These lines are informational.  Once stdout's reader has gone, stdout
    is pointed at ``os.devnull``, as in the Python docs' note on SIGPIPE:
    the command still writes its files and keeps its exit code, and no
    later write or exit-time flush raises.
    """
    try:
        if line is not None:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list], manifest: dict) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")
    _write_json(path + ".manifest.json", manifest)


def _load_bias(args) -> tuple:
    """(bias config of --bias, error-config, raw-config-dict) from --config or defaults."""
    from .thresholds import BiasMode, config_to_json_dict, default_bias_config, read_config

    if getattr(args, "config", None):
        rand, passive, err, raw = read_config(args.config)
    else:
        rand, passive = default_bias_config(BiasMode.RANDOMIZED), default_bias_config(BiasMode.PASSIVE)
        err, raw = None, config_to_json_dict(rand)
    if getattr(args, "bias", "randomized") == "randomized":
        return rand, err, raw
    if passive is None:
        raise ConfigError(
            "passive mode needs a p_tilde_biased table: the placeholder reaches 1 "
            f"at p_tilde_randomized {rand.p_tilde_randomized}"
        )
    return passive, err, raw


def _resolve_code(sequence: str):
    _check_code_size(len(sequence))
    try:
        return code_from_progenitor(build_progenitor(sequence), code_id=sequence)
    except ValueError as exc:
        raise ConfigError(f"bad code id {sequence!r}: {exc}") from exc


def _load_outer(path: str) -> GraphState:
    try:
        with open(path) as fh:
            return GraphState.from_json_dict(json.load(fh))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep for the JSON parser
        raise ConfigError(f"bad outer graph {path}: {exc}") from exc


def _check_code_size(n: int) -> None:
    if n > PROGENITOR_CAP:
        raise ResourceCapExceeded(f"code size {n} exceeds cap {PROGENITOR_CAP}")


def _checked(parse, ok, message: str, text: str):
    """``parse(text)`` if it parses and passes ``ok``, else the usage error
    ``message``: unparseable and out-of-range text read the same."""
    try:
        value = parse(text)
    except ValueError:
        pass
    else:
        if ok(value):
            return value
    raise argparse.ArgumentTypeError(f"{message}, got {text!r}")


def _positive_int(text: str) -> int:
    return _checked(int, lambda v: v >= 1, "expected a positive integer", text)


def _grid_size(text: str) -> int:
    return _checked(int, lambda v: v >= 2, "a grid needs at least 2 points", text)


def _probability(text: str) -> float:
    # the range test is false for nan too
    return _checked(float, lambda v: 0.0 <= v <= 1.0, "expected a number in [0, 1]", text)


def _eta_grid(text: str) -> str:
    """Comma-separated transmissions in [0, 1]; kept as text for the manifest."""
    for item in text.split(","):
        _probability(item)
    return text


def _parse_w(text: str, n: int) -> tuple[int, ...]:
    if len(text) != n or any(ch not in "01" for ch in text):
        raise ConfigError(f"failure basis {text!r} must be {n} bits of 0/1")
    return tuple(int(ch) for ch in text)


# -- commands ------------------------------------------------------------


def cmd_enumerate(args) -> int:
    records = enumerate_progenitor_records(args.n)
    manifest = _manifest(args, "enumerate")
    payload = {
        "manifest": manifest,
        "n_photons": args.n,
        "count": len(records),
        "graphs": [{"id": r.sequence, "graph": r.graph.to_json_dict()} for r in records],
    }
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "graphs.json"), payload)
    for r in records:
        _atomic_write(os.path.join(args.out, f"{r.sequence}.dot"), r.graph.to_dot(r.sequence))
    _say(f"enumerated {len(records)} progenitors with {args.n} photons -> {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .lpoly import erasure_analysis

    code = _resolve_code(args.code)
    w = _parse_w(args.w, code.n_code) if args.w is not None else (0,) * code.n_code
    grid = [float(x) for x in args.eta_grid.split(",")] if args.eta_grid else [1.0, 0.95, 0.9]
    report = erasure_analysis(code, w, args.p_fail)
    payload = {"manifest": _manifest(args, "analyze"), "report": report.to_json_dict(grid)}
    _write_json(args.out, payload)
    _say(f"analyzed {args.code} w={''.join(map(str, w))} -> {args.out}")
    return EXIT_OK


def cmd_optimize_w(args) -> int:
    from .thresholds import loss_threshold

    bias, _, raw = _load_bias(args)
    code = _resolve_code(args.code)
    result = loss_threshold(code, bias, p_fail=args.p_fail)
    payload = {
        "manifest": _manifest(args, "optimize-w", raw),
        "code_id": code.code_id,
        "bias_mode": bias.mode.value,
        "w_star": "".join(str(b) for b in result.w_star),
        "gamma_star": result.gamma_star,
        "diagnostics": result.diagnostics,
    }
    _write_json(args.out, payload)
    _say(f"best failure basis for {args.code}: {payload['w_star']} (gamma*={result.gamma_star:.6f})")
    return EXIT_OK


def cmd_threshold(args) -> int:
    from .thresholds import search_best_code

    if args.n_min > args.n_max:
        print(f"usage error: --n-min {args.n_min} exceeds --n-max {args.n_max}", file=sys.stderr)
        return EXIT_USAGE
    _check_code_size(args.n_max)
    bias, _, raw = _load_bias(args)
    manifest = _manifest(args, "threshold", raw)
    rows = []
    winners = []
    for n in range(args.n_min, args.n_max + 1):
        results = search_best_code(n, bias, p_fail=args.p_fail)
        best = results[0]
        rows.append(
            [
                n,
                best.code_id,
                bias.mode.value,
                best.gamma_star,
                "".join(str(b) for b in best.w_star),
                best.diagnostics["p_erase_xx"],
                best.diagnostics["p_erase_zz"],
            ]
        )
        winners.append(
            {
                "n": n,
                "result": {
                    "code_id": best.code_id,
                    "gamma_star": best.gamma_star,
                    "w_star": list(best.w_star),
                    "diagnostics": best.diagnostics,
                },
                "code": best.code.to_json_dict(),
            }
        )
        _say(f"n={n}: best {best.code_id} gamma*={best.gamma_star:.6f}")
    header = ["n", "code_id", "bias_mode", "gamma_star", "w_star", "p_erase_xx", "p_erase_zz"]
    _write_csv(args.out, header, rows, manifest)
    _write_json(args.out + ".codes.json", {"manifest": manifest, "winners": winners})
    return EXIT_OK


def cmd_region(args) -> int:
    from .fusion import correctable_region
    from .thresholds import loss_threshold, search_best_code

    if args.grid_points > GRID_POINTS_CAP:
        raise ResourceCapExceeded(f"{args.grid_points} grid points exceeds cap {GRID_POINTS_CAP}")
    if args.n is not None:
        _check_code_size(args.n)
    rand, err, raw = _load_bias(args)
    if err is None:
        raise ConfigError("missing key: epsilon_M (required for region computation)")
    if args.code is not None:
        result = loss_threshold(_resolve_code(args.code), rand, p_fail=args.p_fail)
    else:
        result = search_best_code(args.n, rand, p_fail=args.p_fail)[0]
        _say(f"using n={args.n} winner {result.code_id}")
    points = correctable_region(result, err, args.grid_points)
    manifest = _manifest(args, "region", raw)
    if not points or all(p.epsilon_boundary == 0.0 for p in points):
        print("warning: correctable region is empty for this configuration", file=sys.stderr)
    rows = [[p.gamma, p.epsilon_boundary] for p in points]
    _write_csv(args.out, ["gamma", "epsilon_boundary"], rows, manifest)
    if points:
        _say(f"region boundary written ({len(points)} points, intercept {points[0].epsilon_boundary:.6f})")
    return EXIT_OK


def cmd_compile(args) -> int:
    from .compiler import Mode, compile_generation, count_resources, derive_outer_sequence, verify_sequence

    outer = _load_outer(args.outer)
    inner = _resolve_code(args.inner)
    mode = Mode(args.mode)
    seq = compile_generation(derive_outer_sequence(outer), args.inner, mode)
    if args.inject_fault:
        cz_positions = [k for k, i in enumerate(seq.ops) if i.op.value == "cz"]
        if not cz_positions:
            print("usage error: --inject-fault finds no spin-spin CZ to delete (one outer vertex)", file=sys.stderr)
            return EXIT_USAGE
        ops = list(seq.ops)
        del ops[cz_positions[-1]]
        seq = seq._replace(ops=tuple(ops))
    verdict = verify_sequence(seq)
    resources = count_resources(seq)
    manifest = _manifest(args, "compile")
    payload = {
        "manifest": manifest,
        "sequence": seq.to_json_dict(),
        "verified": verdict.ok,
        "verification_method": verdict.method,
    }
    _write_json(args.out + ".sequence.json", payload)
    _write_csv(
        args.out + ".resources.csv",
        ["inner_n", "spin_spin_gates", "max_emitter_depth", "photons"],
        [[inner.n_code, resources.spin_spin_gates, resources.max_emitter_depth, resources.photons]],
        manifest,
    )
    if not verdict.ok:
        print(f"verification failed: {verdict.message}", file=sys.stderr)
        return EXIT_VERIFY
    _say(
        f"compiled {seq.outer_size}-vertex outer x {inner.n_code}-qubit inner "
        f"({mode.value}): {resources.spin_spin_gates} spin-spin gates, "
        f"depth {resources.max_emitter_depth}, {resources.photons} photons [verified: {verdict.method}]"
    )
    return EXIT_OK


def cmd_duals(args) -> int:
    entries = []
    for rec in enumerate_progenitor_records(args.n):
        code = code_from_progenitor(rec.graph, code_id=rec.sequence)
        dual, swapped = dual_code_with_map(code)
        ok = dual_swap_holds(code, dual, swapped)
        entries.append(
            {
                "code_id": rec.sequence,
                "dual_progenitor": dual.progenitor.to_json_dict(),
                "swapped_qubit": swapped,
                "swap_verified": ok,
            }
        )
        if not ok:
            print(f"warning: dual swap failed for {rec.sequence}", file=sys.stderr)
    payload = {"manifest": _manifest(args, "duals"), "duals": entries}
    _write_json(args.out, payload)
    _say(f"wrote {len(entries)} dual codes -> {args.out}")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusioncodes",
        description="Graph codes from quantum emitters: fusion loss/error analysis and compilation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config with outer-code thresholds")
        p.add_argument("--seed", type=int, help="recorded in the manifest; no randomness is used")
        p.add_argument("--p-fail", type=_probability, default=0.5, help="physical fusion failure probability")

    p = sub.add_parser("enumerate", help="enumerate single-emitter progenitor graphs")
    p.add_argument("--n", type=_positive_int, required=True, help="photon count (1..8)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("analyze", help="erasure analysis of one code and failure basis")
    p.add_argument("--code", required=True, help="code id (generation sequence, e.g. LLP)")
    p.add_argument("--w", help="failure-basis bits, one per code qubit")
    p.add_argument("--eta-grid", type=_eta_grid, help="comma-separated transmissions to evaluate")
    p.add_argument("--out", required=True)
    common(p, config=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize-w", help="scan failure bases for the best loss tolerance")
    p.add_argument("--code", required=True)
    p.add_argument("--bias", choices=["randomized", "passive"], default="randomized")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_optimize_w)

    p = sub.add_parser("threshold", help="best inner code per size")
    p.add_argument("--n-min", type=_positive_int, default=1)
    p.add_argument("--n-max", type=_positive_int, default=8)
    p.add_argument("--bias", choices=["randomized", "passive"], default="randomized")
    p.add_argument("--out", required=True, help="output CSV path")
    common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("region", help="correctable loss/error region boundary")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_int, help="use the loss winner of this size")
    group.add_argument("--code", help="explicit code id")
    p.add_argument("--grid-points", type=_grid_size, default=21)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("compile", help="emit a two-emitter generation sequence")
    p.add_argument("--outer", required=True, help="outer graph JSON file")
    p.add_argument("--inner", required=True, help="inner code id (generation sequence)")
    p.add_argument("--mode", choices=MODES, default=MODES[0])
    p.add_argument("--inject-fault", action="store_true", help="testing aid: corrupt the sequence")
    p.add_argument("--out", required=True, help="output base path")
    common(p, config=False)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("duals", help="dual codes with swap validation")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_duals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (CompileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    """Process entry of the ``fusioncodes`` command and ``python -m fusioncodes.cli``.

    Runs ``main`` on ``sys.argv``, flushes stdout and stderr, then freezes
    the garbage collector: every object moves to the permanent
    generation, so the full collection the interpreter runs at exit has
    nothing to traverse (about 5 ms per process).  ``atexit`` handlers and
    the exit-time flush still run.  ``main`` itself has no process-wide
    side effects, so in-process callers can call it any number of times.
    """
    try:
        rc = main()
    except SystemExit as exc:  # argparse: usage errors, --help, --version
        rc = exc.code
    _say()
    sys.stderr.flush()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run()
