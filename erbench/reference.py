"""A fixed reference kernel that reads the host's current speed.

The benchmark host is a shared VM whose CPU speed changes by up to
1.8x within minutes and by 20% within a second: with the process alone
on its core, the same ``link`` unit on the same corpus took 2.3 s of
CPU time and, less than a minute later, 1.45 s, most likely because
neighbours on the physical machine share its caches, memory bandwidth
and clock. CPU time
does not remove that, and neither does a median within a run; a
measurement of the host's speed taken next to the work does.

:func:`reference_seconds` runs a fixed piece of benchmark-owned work
that touches what the library's hot paths touch: q-gram sets and dicts
built in the interpreter, lookups in a large heap of Python objects,
and sorting, hashing and random gathers over ``int64`` arrays in numpy.
It returns the work's CPU time. One reading is ``PASSES`` passes, about
0.2 s on that VM: a single 70 ms pass catches one moment of the host's
sub-second swings and made ``dedup`` unit times noisier than raw CPU
time; three passes average over them. :class:`HostClock` takes a reading
before and after each timed piece of work and converts the piece's CPU
time into *reference seconds*: the time it would take on a host that
takes ``REFERENCE_S`` for a reading. The kernel never calls the library,
so a change to the library moves reference seconds exactly as much as
it moves CPU time.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel passes per reading.
PASSES = 3
#: CPU seconds of one reading on the reference host. Any fixed value
#: will do, so long as every run of every commit uses the same one.
REFERENCE_S = 0.150

_rng = np.random.default_rng(20160516)
_WORDS = [f"{(i * 7919) % 10007:05d}:{'abcdefghij'[i % 10] * (1 + i % 7)}" for i in range(4000)]
_PROBES = frozenset(["00", "11", "ab", "cc", ":a"])
_HEAP = {f"k{i}": (i, str(i)) for i in range(100_000)}
_HEAP_KEYS = [f"k{(i * 104729) % 100_000}" for i in range(50_000)]
_KEYS = _rng.integers(0, 2**62, size=120_000, dtype=np.int64)
_TABLE = _rng.integers(0, 2**62, size=2_000_000, dtype=np.int64)
_GATHER = _rng.integers(0, _TABLE.size, size=300_000)
_MIX = np.int64(0x2545F4914F6CDD1D)


def reference_seconds() -> float:
    """CPU seconds of ``PASSES`` passes of the fixed reference kernel."""
    start = time.process_time()
    for _ in range(PASSES):
        _kernel()
    return time.process_time() - start


def _kernel() -> None:
    scores = {}
    for word in _WORDS:
        grams = {word[i : i + 2] for i in range(len(word) - 1)}
        scores[word] = len(grams & _PROBES) + len(grams)
    sorted(scores, key=scores.__getitem__)
    total = 0
    for key in _HEAP_KEYS:
        total += _HEAP[key][0]
    hashed = (_KEYS * _MIX) ^ (_KEYS >> 29)
    order = np.argsort(hashed & 0xFFFFF, kind="stable")
    np.unique(hashed[order] & 0xFFF, return_counts=True)
    int(_TABLE[_GATHER].sum())


class HostClock:
    """Converts CPU seconds of timed work into reference seconds.

    Call :meth:`read` right before a piece of work and :meth:`measure`
    right after it; ``measure`` takes a fresh reading, which also serves
    as the *before* reading of work that follows at once.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        _kernel()  # untimed: the first pass pays numpy's one-time costs

    def read(self) -> float:
        reading = reference_seconds()
        self.readings.append(reading)
        return reading

    def measure(self, cpu_s: float) -> float:
        """Reference seconds of work that took ``cpu_s`` since the last reading."""
        before = self.readings[-1]
        after = self.read()
        return cpu_s * REFERENCE_S / ((before + after) / 2)
