"""Machine-speed yardsticks: fixed computations timed next to the program's work.

The benchmark's reference machine is a 2-core VM on a shared host whose
speed drifts by up to 2x within minutes, wall and CPU time alike, and
not evenly: interpreted and cache-heavy code slows more than compiled
loops over small data. Raw timings of identical work therefore spread by
10-35% from run to run. Each timed interval is scaled to reference
seconds by yardstick runs taken in and around it:

    reference seconds = measured seconds * nominal * reps / yardstick seconds

A yardstick is a mix of kernels that load the machine the way a
workload's own work does (dense sampling over large arrays, text
formatting and parsing, binomial draws, interpreted calls on small
arrays and frozen dataclasses), so it slows when the workload slows.
The kernels are independent of qdssim and fixed, so every commit of the
program is scaled alike. ``NOMINAL_S`` holds each kernel's time per
repetition on its own on the reference machine; reference seconds are
comparable with each other, not with wall seconds.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

SHARE = 0.1  # each tick runs for this share of the time since the previous one
NOMINAL_S = {"dense": 4.4e-2, "text": 8e-3, "binomial": 4e-3, "interp": 3.5e-4}

# Four chunks of 10^5 elements rather than one of 4*10^5: the same work, but
# the yardstick's own peak memory (about 14 MB above numpy's) stays below the
# program's, so peak_rss_mb keeps measuring the program.
_DENSE_N = 100_000
_DENSE_CHUNKS = 4
_PHASE_PROBS = np.array([[3e-4, 5e-3, 1e-2, 5e-3], [5e-3, 3e-4, 5e-3, 1e-2],
                         [1e-2, 5e-3, 3e-4, 5e-3], [5e-3, 1e-2, 5e-3, 3e-4]])
_TEXT_ROWS = np.arange(7 * 2000, dtype=np.int64).reshape(2000, 7) % 2


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _dense(rng) -> float:
    s = 0.0
    for _ in range(_DENSE_CHUNKS):
        phases = rng.integers(0, 4, _DENSE_N).astype(np.int8)
        elims = rng.random((_DENSE_N, 4)) < _PHASE_PROBS[phases]
        nulls = rng.random(_DENSE_N) < 1e-6
        s += float(elims[np.arange(_DENSE_N), phases].sum()) + float(nulls.sum())
        for i in range(4):
            s += float(elims[phases == i].sum())
    return s


def _text(rng) -> float:
    buf = io.StringIO()
    np.savetxt(buf, _TEXT_ROWS, fmt="%d")
    buf.seek(0)
    return float(np.loadtxt(buf, dtype=np.int64).sum())


def _binomial(rng) -> float:
    s = float(rng.binomial(1_000_000, 3e-4, size=10_000).sum())
    sent = rng.multinomial(1_000_000, (0.25, 0.25, 0.25, 0.25), size=1000)
    for i in range(4):
        declared = rng.multinomial(sent[:, i], _PHASE_PROBS[i] / _PHASE_PROBS[i].sum())
        s += float(rng.binomial(declared, _PHASE_PROBS[i]).sum())
    return s


def _interp(rng) -> float:
    s = 0.0
    for i in range(300):
        s += math.sqrt(i * 7 % 13)
    points = {i: _Point(float(i), i * 0.5) for i in range(200)}
    s += sum(p.x * p.y for p in points.values())
    m = np.exp(-np.arange(16.0)).reshape(4, 4)
    for _ in range(20):
        s += float(np.diag(m).mean())
    return s


KERNELS = {"dense": _dense, "text": _text, "binomial": _binomial, "interp": _interp}


class Yardstick:
    def __init__(self, kernels: tuple[str, ...]):
        self._kernels = [KERNELS[k] for k in kernels]
        self._nominal = sum(NOMINAL_S[k] for k in kernels)
        self._rng = np.random.default_rng(0)
        self.seconds = 0.0
        self.reps = 0
        self._last: float | None = None

    def _once(self):
        for kernel in self._kernels:
            kernel(self._rng)

    def tick(self):
        """Run for SHARE of the time since the previous tick, at least once."""
        t0 = perf_counter()
        budget = SHARE * (t0 - self._last) if self._last is not None else 0.0
        while True:
            self._once()
            self.reps += 1
            t = perf_counter()
            if t - t0 >= budget:
                break
        self.seconds += t - t0
        self._last = t

    def scale(self, seconds_before: float = 0.0, reps_before: int = 0) -> float:
        """Reference seconds per measured second, over the ticks since a snapshot."""
        return self._nominal * (self.reps - reps_before) / (self.seconds - seconds_before)
