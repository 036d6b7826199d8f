"""A fixed calibration loop that rescales measured times to a reference speed.

The benchmark runs on a shared VM whose CPUs change speed by up to 1.7x,
each on its own, both from moment to moment and for seconds to minutes at a
time, for every kind of work alike (a fixed numpy loop shows it in CPU time
as well as wall time).  Raw wall times of two runs therefore differ by more
than the regressions the benchmark must catch.  The worker times this loop
after every CLI call, for a fixed share of the call's duration, and
multiplies each pass's time by ``REFERENCE_S`` over the pass's mean loop
time: the result is the time the pass would take at the speed at which the
loop takes ``REFERENCE_S``.  The mean over many loop timings follows the
slow changes of speed while the fast ones average out, as they do within a
call of several seconds.  The loop mixes the kinds of work the
program does (small RK4 steps, a dense matrix-vector product, a small
symmetric eigensolve, plain interpreter work) so that it slows down as the
program does.  It never changes, so a faster program reads faster.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

# Loop time on a 2-vCPU Intel Xeon VM at 2.1 GHz (Python 3.11, numpy 2.4,
# one BLAS thread), in its fast state.  A fixed constant: it only sets the
# scale of the rescaled times.
REFERENCE_S = 0.036
# share of the program's time spent timing the loop
SHARE = 0.15

_rng = np.random.default_rng(12345)
_H = 0.01 * (_rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32)))
_H = _H + _H.conj().T
_M = 0.01 * (_rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256)))
_E = _rng.standard_normal((34, 34))
_E = _E + _E.T


def _loop() -> float:
    x = np.full(32, 1.0 / np.sqrt(32), dtype=complex)
    dt = 0.01
    for _ in range(600):
        k1 = -1j * (_H @ x)
        k2 = -1j * (_H @ (x + dt / 2 * k1))
        k3 = -1j * (_H @ (x + dt / 2 * k2))
        k4 = -1j * (_H @ (x + dt * k3))
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    y = np.ones(256, dtype=complex)
    for _ in range(600):
        y = _M @ y
        y = y / np.abs(y).max()
    for _ in range(60):
        w = np.linalg.eigh(_E).eigenvalues
    s = 0
    for i in range(60000):
        s += i * i
    return float(abs(x[0]) + abs(y[0]) + w[0]) + s


def measure() -> float:
    """Seconds one pass of the calibration loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def sample(busy_s: float) -> List[float]:
    """Loop times measured now, at least one and together at least
    ``SHARE`` of ``busy_s``, the duration of the call just made."""
    loops = [measure()]
    while sum(loops) < SHARE * busy_s:
        loops.append(measure())
    return loops


def rescale(wall_s: float, loops: Sequence[float]) -> float:
    """``wall_s`` rescaled to the reference speed, from loop times sampled
    over the same stretch of time."""
    return wall_s * REFERENCE_S / (sum(loops) / len(loops))
