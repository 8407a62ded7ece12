"""The README's library examples run as written.

Every ```python block of README.md runs, in order, as one script in a
fresh interpreter with ``src`` on the path, so a later block may use a
name an earlier one defined.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_python_blocks_run_in_order(tmp_path):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert blocks
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    script = "\n".join(blocks)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the last block prints the boosted level-2 baseline, which its comment rounds
    claimed = re.search(r"invert_baseline_threshold\(\)\)\)  # ~([\d.]+)% loss", blocks[-1])
    assert claimed
    gamma = float(proc.stdout.split()[-1])
    assert f"{100 * gamma:.1f}" == claimed.group(1), gamma
