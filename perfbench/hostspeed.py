"""Host speed index: how fast the benchmark's core runs Python right now.

On a shared host the speed of one core drifts by up to 1.7x within a
minute, because other tenants contend for the same physical core, its
caches and memory.  The drift reaches CPU time as well as wall time, so it
cannot be told apart from a change in the program by timing the program
alone.  A probe therefore shares the core with the pass being timed: every
``INTERVAL_S`` it runs a fixed set of small kernels, shaped like the hot
paths of ``affrep`` (arithmetic objects, tuple enumeration, big-integer
polynomial products, ``Fraction`` sums), and records their thread CPU time.
The probe is the benchmark's own code and calls nothing of ``affrep``, so
no change to the package moves it.

``speed(t0, t1)`` is the mean of ``REFERENCE_S / sample`` over the probe
samples taken between two ``time.monotonic()`` stamps: 1.0 at the speed of
the reference host (the 2-core Xeon, CPython 3.11.7 that the baseline was
taken on), below 1.0 when the core is slower.  ``run.py`` multiplies a
CPU time measured over the same interval by it, which gives seconds at
reference speed.

Run as a script (``python -I hostspeed.py``) this file is the probe
process: it samples until its stdin closes, then prints its samples as
JSON, one ``[monotonic start, CPU seconds]`` pair each.
"""

from __future__ import annotations

import itertools
import json
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

INTERVAL_S = 0.02  # pause between samples; one sample costs about 3 ms of CPU
REFERENCE_S = 0.0034  # CPU seconds of one sample on the reference host


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Elem(self.v * other.v % 1009)

    def __add__(self, other):
        return _Elem((self.v + other.v) % 1009)


_ELEMS = [_Elem(i) for i in range(1, 60)]
_POLY = [3**i + 7 for i in range(60)]
_FRACS = [Fraction(i, i + 1) for i in range(1, 25)]


def _objects():
    acc = _Elem(0)
    for a in _ELEMS:
        for b in _ELEMS[:12]:
            acc = acc + a * b
    return acc.v


def _tuples():
    return sum(map(any, itertools.product(range(5), repeat=6)))


def _bigints():
    out = [0] * (2 * len(_POLY))
    for i, x in enumerate(_POLY):
        for j, y in enumerate(_POLY):
            out[i + j] += x * y
    return out[len(_POLY)]


def _fractions():
    acc = Fraction(0)
    for x in _FRACS:
        for y in _FRACS[:3]:
            acc += x * y
    return acc


KERNELS = (_objects, _tuples, _bigints, _fractions)


def sample() -> float:
    """CPU seconds of one run of every kernel, on the calling thread."""
    c0 = time.thread_time()
    for kernel in KERNELS:
        kernel()
    return time.thread_time() - c0


def probe_main() -> None:
    samples = []
    while True:
        t0 = time.monotonic()
        samples.append((t0, sample()))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break  # stdin closed: the run is over
    sys.stdout.write(json.dumps(samples) + "\n")


class Probe:
    """The probe process, as a context manager; ``speed`` works after exit."""

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.samples: list[tuple[float, float]] = []
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> Probe:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=self.cwd,
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        proc = self.proc
        try:
            out, _ = proc.communicate(timeout=30)  # closes stdin, which stops the probe
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode == 0 and out.strip():
            self.samples = [tuple(s) for s in json.loads(out.splitlines()[-1])]

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over the samples that overlap [t0, t1], or over the nearest one."""
        within = [cpu for start, cpu in self.samples if t0 - INTERVAL_S <= start <= t1]
        if not within:
            middle = (t0 + t1) / 2
            within = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return sum(REFERENCE_S / cpu for cpu in within) / len(within)


if __name__ == "__main__":
    probe_main()
