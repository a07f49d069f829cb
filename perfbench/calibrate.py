"""Host-speed calibration, so that runs on a shared host compare.

On a shared host the speed of a CPU drifts by a third or more for seconds
to minutes at a time, and a run of the same code then reads slower or
faster with the time of day.  The benchmark therefore runs a fixed piece of
work next to the work it measures and reports every time at the reference
speed: measured time x reference time of the fixed work / its measured
time.  The fixed work is part of the benchmark, not of the engine, so a
change to the engine moves the measured time and leaves the calibration
alone.

* In-process work is calibrated by ``quantum()``, a small exact elimination
  over Q and over F_p in pure Python (the kind of work the engine does),
  run once before every task.  A pass's speed is the mean quantum time over
  the pass.
* Process start-ups are calibrated by ``bare_start()``, the start-up of a
  bare interpreter (``python -c pass``), timed right before and after.

The reference times are the typical quantum and bare start-up times on a
2-vCPU Intel Xeon with Python 3.11; they only set the scale of the
reported seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

QUANTUM_REF_S = 0.8e-3
BARE_REF_S = 0.06
_PRIME = 10007
# A fixed 6 x 7 integer matrix; its elimination is the same on every call.
_ROWS = [[(7 * i * i + 3 * j * j + 5 * i * j + i + 2 * j) % 11 - 5 for j in range(7)] for i in range(6)]


def _rref_q(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _rref_p(rows, p=_PRIME):
    m = [[v % p for v in row] for row in rows]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def quantum() -> tuple[float, float]:
    """Run the fixed work once; returns its (wall, CPU) time in seconds."""
    c = time.process_time()
    t = time.perf_counter()
    _rref_q(_ROWS)
    _rref_p(_ROWS)
    return time.perf_counter() - t, time.process_time() - c


def bare_start(cwd, env) -> float:
    """Wall time of one bare interpreter start-up."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, capture_output=True,
                   timeout=120, check=True)
    return time.perf_counter() - t


def timed_start(argv, cwd, env):
    """Run ``argv`` between two bare start-ups; returns (wall time at the
    reference speed, completed process)."""
    before = bare_start(cwd, env)
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t
    after = bare_start(cwd, env)
    return elapsed * BARE_REF_S / ((before + after) / 2), proc
