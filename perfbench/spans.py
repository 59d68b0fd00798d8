"""A span recorder that wraps functions from outside the code it measures.

A span is (name, start, end, parent).  Spans are kept in memory in compact
arrays while the traced code runs and are written out once at the end.  A
span's self time is its duration minus the part of its interval that its
direct children cover; self times of all spans partition the traced time.

:func:`install` wraps a function or method in every namespace that holds
it: the defining module, every module that imported the name (for example
``cli.count_semi`` next to ``affcount.count_semi``), and aliases inside a
class such as ``__rmul__ = __mul__``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

_ARRAYS = (("name", "H"), ("parent", "l"), ("start", "d"), ("end", "d"))
_FORMAT = "perfbench-spans-1"


class SpanRecorder:
    """Collects spans, counters and per-call marks for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.marks: dict[str, float] = {}
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        self.start[idx] = self.clock()
        try:
            yield idx
        finally:
            self.end[idx] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``note(recorder, args, kwargs, result, idx)``
        runs after a call returns, outside the span."""
        nid = self._intern(name)
        open_, start, end, stack, clock = self._open, self.start, self.end, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if note is not None:
                try:
                    note(self, args, kwargs, result, idx)
                except (LookupError, AttributeError, TypeError) as exc:
                    # a changed signature must not fail the traced command
                    self.missing.append(f"{name}: note failed ({exc!r})")
            return result

        return wrapper

    def count(self, key: str, n: int) -> None:
        self.counters[key] += n

    def peak(self, key: str, value: int) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def mark(self, key: str, idx: int) -> None:
        """Remember the duration of span ``idx`` under ``key``."""
        self.marks[key] = self.end[idx] - self.start[idx]

    def aggregate(self) -> dict:
        """Per name: calls, summed self and total time; per (parent, name): total time."""
        selfs = self_times(self.parent, self.start, self.end)
        by_name: dict[str, list] = {n: [0, 0.0, 0.0] for n in self.names}
        under: dict[tuple[int, int], float] = defaultdict(float)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(start)):
            row = by_name[self.names[name[i]]]
            row[0] += 1
            row[1] += selfs[i]
            row[2] += end[i] - start[i]
            p = parent[i]
            under[(name[p] if p >= 0 else -1, name[i])] += end[i] - start[i]
        return {
            "by_name": by_name,
            "under": [
                [self.names[p] if p >= 0 else None, self.names[c], t] for (p, c), t in under.items()
            ],
        }

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"format": _FORMAT, "names": self.names, "count": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for attr, _ in _ARRAYS:
                getattr(self, attr).tofile(fh)


def load_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by :meth:`SpanRecorder.dump`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != _FORMAT:
            raise ValueError(f"{path} is not a span file")
        arrays = {}
        for attr, code in _ARRAYS:
            arrays[attr] = array(code)
            arrays[attr].fromfile(fh, header["count"])
    return header["names"], arrays


def self_times(parent, start, end) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals.

    Child intervals are clipped to the parent's and may overlap each other;
    grandchildren count only towards their own parent.
    """
    n = len(start)
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(order, key=start.__getitem__)
    covered = [0.0] * n
    reach = list(start)  # how far each span's covered prefix extends
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], reach[p]), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``path`` is ``name`` or ``Class.method`` in ``module``."""

    module: str
    path: str
    note: Callable | None = None

    @property
    def span(self) -> str:
        return f"{self.module}.{self.path}"


def install(recorder: SpanRecorder, targets, package: str = "affrep") -> Callable[[], None]:
    """Wrap every target wherever it is bound; returns a function that undoes it.

    A target that no longer exists is skipped and listed in
    ``recorder.missing``, so the benchmark survives refactors of the package.
    """
    namespaces = [
        m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")
    ]
    undo: list[tuple[object, str, object]] = []
    for t in targets:
        try:
            owner = importlib.import_module(f"{package}.{t.module}")
        except ModuleNotFoundError:
            owner = None
        *outer, attr = t.path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            recorder.missing.append(t.span)
            continue
        wrapper = recorder.wrap(t.span, original, t.note)
        holders = [owner] if inspect.isclass(owner) else namespaces
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, value))
                    setattr(holder, key, wrapper)

    def restore() -> None:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)

    return restore
