"""Fixed calibration work that gauges the host's current speed.

    python3 perfbench/calibrate.py

A shared host slows every process down by up to about 1.8x for periods
of seconds to minutes, while other tenants load it.  The benchmark runs
this script in a fresh interpreter before and after every timed
invocation, and scales the invocation's time by the ratio of
``REFERENCE_S`` to this script's time (see ``run.py``).  The work mixes
what the CLI spends its time on: interpreter start-up and imports, pure
Python integer and dict loops, ``Fraction`` sums, integer butterflies
and float powers with float butterflies (as in the decoder's Walsh
transform).  It uses nothing of ``fusioncodes``, so no change to the
package moves it.
"""

from fractions import Fraction

import numpy as np

# About this script's wall time on a 2-vCPU x86-64 host (Python 3.11,
# numpy 2.4) running at full speed; scaled times read in seconds at that
# speed.
REFERENCE_S = 0.2


def butterflies(rows: np.ndarray) -> None:
    """In-place unnormalised Walsh-Hadamard transform of each row."""
    h = 1
    while h < rows.shape[1]:
        pairs = rows.reshape(rows.shape[0], -1, 2 * h)
        x, y = pairs[:, :, :h].copy(), pairs[:, :, h:].copy()
        pairs[:, :, :h], pairs[:, :, h:] = x + y, x - y
        h *= 2


def main() -> int:
    total, seen = 0, {}
    for i in range(100_000):
        total += i * i
        seen[i & 1023] = total
    harmonic = Fraction(0)
    for i in range(1, 1000):
        harmonic += Fraction(1, i)
    ints = np.arange(1 << 14, dtype=np.int64).reshape(1, -1)
    weights = (np.arange(1 << 15) % 7).reshape(-1, 1 << 7)
    for _ in range(25):
        butterflies(ints)
        butterflies(0.93**weights)
    return 0 if harmonic > 0 and len(seen) == 1024 else 1


if __name__ == "__main__":
    raise SystemExit(main())
