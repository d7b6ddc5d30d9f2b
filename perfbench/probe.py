"""A speed probe: measures how fast the host runs while an op runs.

The benchmark's machine is shared.  Each of its vCPUs flips between a fast
and a slow state every 0.1 to a few seconds, and over minutes the share of
time spent slow drifts, which moves every clock time of a run by up to 2x.
``Sampler`` runs a tiny fixed workload from a CPU-time timer signal every
``PERIOD_S`` while an op runs, so its samples spread evenly over the op and
their mean tells how fast the host ran during it, flips included.  The
workload mixes the kinds of work resloc does, on exact numbers that resloc
never sees: Fraction elimination, a product of sparse polynomials held in
dicts of exponent tuples, and an integer loop.  It is the benchmark's own
code, so a change to resloc cannot move it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# The workload's time, rounded, on this benchmark's reference host, a 2-vCPU
# VM with Python 3.11.7, in one of its fast spells.  Scaled times are seconds
# on a host that runs the workload in this time; the constant fixes their unit
# and never changes.
NOMINAL_S = 250e-6

# CPU time between samples.  Sampling costs about 3% of an op's time, which
# ``Sampler`` takes back out of it.
PERIOD_S = 0.01


def _eliminate(n: int) -> Fraction:
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, j + i + 1) for j in range(n)]
            for i in range(n)]
    det = Fraction(1)
    for r in range(n):
        pivot = next((k for k in range(r, n) if rows[k][r]), None)
        if pivot is None:
            return Fraction(0)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        det *= rows[r][r]
        for k in range(r + 1, n):
            f = rows[k][r] / rows[r][r]
            if f:
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
    return det


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


_BASE = {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-1, 3),
         (0, 0, 1): Fraction(2, 5), (0, 0, 0): Fraction(1)}


def _ints(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def sample() -> float:
    """Seconds taken by the fixed workload once.  The cyclic garbage collector
    is off meanwhile, so the size of the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _eliminate(3)
        _poly_mul(_BASE, _BASE)
        _ints(500)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times a block of code and samples the host's speed while it runs.

    ``seconds`` is the block's clock time less the time spent sampling, and
    ``probe_s`` the mean sample.  One sample is taken after the block, so a
    block shorter than ``PERIOD_S`` of CPU time has one too."""

    def __init__(self):
        self.samples: list[float] = []
        self.seconds = 0.0

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.seconds = time.perf_counter() - self._start - sum(self.samples)
        signal.signal(signal.SIGPROF, self._previous)
        self.samples.append(sample())

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def probe_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe's mean sample took ``probe_s``,
    stated at the probe's nominal speed."""
    return seconds * NOMINAL_S / probe_s
