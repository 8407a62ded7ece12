"""Every function in the package is reached by some command.

A fixed battery of CLI invocations runs in one fresh interpreter under
``sys.setprofile``, which records every Python function it enters; the
last invocation goes through the process entry ``cli.run``.  Each
``def`` of ``src/fusioncodes`` (nested ones included) is matched by file,
first line (the first decorator's line for a decorated function) and
name.  Only the library functions the README documents and no command
exposes may stay unentered, with the functions nested in them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fusioncodes

PACKAGE = Path(fusioncodes.__file__).parent

# documented library capabilities that no command exposes
LIBRARY_ONLY = {"thresholds.py": ("boosted_baseline", "boost_level_parameters", "example_error_threshold_table")}

RUNNER = r"""
import json, os, sys

package, battery, out = sys.argv[1:]
entered = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))


sys.setprofile(profile)
from fusioncodes import cli

*in_process, last = json.loads(battery)
exits = [cli.main(args) for args in in_process]
sys.argv = ["fusioncodes", *last]
try:
    cli.run()  # the process entry, which ends in SystemExit
except SystemExit as exc:
    exits.append(exc.code)
sys.setprofile(None)
with open(out, "w") as fh:
    json.dump({"exits": exits, "entered": sorted(entered)}, fh)
"""

P_TILDE = 1.0 - (1.0 - 0.25 / 2.0) * (1.0 - 0.0052) ** 4
CONFIG = {"p_tilde_randomized": P_TILDE, "epsilon_M": [[0.0, 0.014554153114464], [P_TILDE, 0.0]]}

# (argv, exit code)
BATTERY = [
    (["enumerate", "--n", "3", "--out", "lib"], 0),
    (["analyze", "--code", "LPL", "--w", "101", "--eta-grid", "1.0,0.9", "--p-fail", "0.3", "--out", "a.json"], 0),
    (["optimize-w", "--code", "LLPL", "--out", "w1.json"], 0),
    (["optimize-w", "--code", "LLPL", "--bias", "passive", "--config", "config.json", "--out", "w2.json"], 0),
    (["threshold", "--n-min", "2", "--n-max", "4", "--out", "t1.csv"], 0),
    (["threshold", "--n-min", "2", "--n-max", "4", "--bias", "passive", "--out", "t2.csv"], 0),
    (["region", "--n", "4", "--config", "config.json", "--out", "r1.csv"], 0),
    (["region", "--code", "LLPL", "--grid-points", "5", "--config", "config.json", "--out", "r2.csv"], 0),
    (["duals", "--n", "3", "--out", "d.json"], 0),
    (["enumerate", "--n", "9", "--out", "lib"], 4),
    (["optimize-w", "--code", "LL", "--config", "bad.json", "--out", "w3.json"], 3),
]
# a 3-vertex chain x LL runs on the state vector, a 4-vertex chain x LLPL on the tableau
for outer, inner in (("chain3.json", "LL"), ("chain4.json", "LLPL")):
    for mode in ("two-emitter", "emitter-memory"):
        for fault in ([], ["--inject-fault"]):
            argv = ["compile", "--outer", outer, "--inner", inner, "--mode", mode, *fault, "--out", f"c-{inner}-{mode}"]
            BATTERY.append((argv, 5 if fault else 0))


def defined_functions() -> tuple[set, set]:
    """(every def, the library-only defs) as (file, first line, name)."""
    every, library = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            found = {
                (path.name, min([d.lineno for d in sub.decorator_list] + [sub.lineno]), sub.name)
                for sub in ast.walk(node)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            every |= found
            if node.name in LIBRARY_ONLY.get(path.name, ()):
                library |= found
    return every, library


def test_every_function_is_reached_by_a_command(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    (tmp_path / "bad.json").write_text("[1]")
    for m in (3, 4):
        (tmp_path / f"chain{m}.json").write_text(json.dumps({"n": m, "edges": [[i, i + 1] for i in range(m - 1)]}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    battery = json.dumps([argv for argv, _ in BATTERY])
    runner = [sys.executable, "-c", RUNNER, str(PACKAGE) + os.sep, battery, "trace.json"]
    proc = subprocess.run(runner, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["exits"] == [code for _, code in BATTERY]
    every, library = defined_functions()
    entered = {tuple(hit) for hit in trace["entered"]}
    assert {name for _, _, name in library} >= set(LIBRARY_ONLY["thresholds.py"])
    unreached = every - entered
    assert sorted(unreached - library) == [], "no command enters these"
    assert sorted(library - unreached) == [], "a command enters these: drop them from LIBRARY_ONLY"
