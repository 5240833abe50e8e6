"""Span tracing for the benchmark's traced mode.

The tracer wraps public callables of the library's layers from the
outside: :func:`wrapped` swaps each named class or module attribute for
a timing wrapper and puts the originals back on exit. Wrappers exist
only inside that block, so untraced units and ops run the library
exactly as shipped.

A span records (name, start, end, parent, unit). Its *self time* is its
duration minus the time covered by its child spans; per-layer metrics
are sums of self time per span name within one unit or op.
"""

from __future__ import annotations

import functools
import gzip
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span store; one open unit (or op) at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[str] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self._unit = ""
        #: Counts read at wrapped boundaries during the open unit.
        self.counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.units.append(self._unit)
        self._child.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.ends[index] = end
        self._stack.pop()
        parent = self.parents[index]
        if parent >= 0:
            self._child[parent] += end - self.starts[index]

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def call(self, unit: str, fn, *args):
        """Run ``fn(*args)`` as one unit or op under a root span.

        Returns ``(value, wall, covered, self_times)``: the root's
        duration, the part of it covered by layer spans, and self time
        summed per layer span name.
        """
        self._unit = unit
        self.counts = {}
        root = self.open(unit.split(":", 1)[0])
        try:
            value = fn(*args)
        finally:
            self.close(root)
        self_times: dict[str, float] = {}
        for i in range(root + 1, len(self.names)):
            name = self.names[i]
            own = self.ends[i] - self.starts[i] - self._child[i]
            self_times[name] = self_times.get(name, 0.0) + own
        wall = self.ends[root] - self.starts[root]
        return value, wall, self._child[root], self_times

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\tunit\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}"
                    f"\t{self.parents[i]}\t{self.units[i]}\n"
                )


def _timed(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            counter(tracer, result, args, kwargs)
        return result

    return wrapper


@contextmanager
def wrapped(tracer: Tracer, boundaries):
    """Wrap every ``(owner, attribute, span name, counter)`` boundary.

    ``owner`` is a class or module; a ``functools.cached_property`` is
    re-wrapped as a cached property. ``counter(tracer, result, args,
    kwargs)`` reads counts from a boundary's arguments or return value.
    """
    saved = []
    try:
        for owner, attribute, name, counter in boundaries:
            original = owner.__dict__[attribute]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(
                    _timed(tracer, original.func, name, counter)
                )
                replacement.__set_name__(owner, attribute)
            else:
                replacement = _timed(tracer, original, name, counter)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
