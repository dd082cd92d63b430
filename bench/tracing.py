"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` replaces named module attributes with timing wrappers and
puts the originals back when it is closed. Every call through a wrapper is
one span: name, start, end, parent span and the operation it belongs to.
The tracer keeps a stack of open spans, so a span's self time is its
duration minus the time of the spans it directly encloses. Spans stay in
memory in flat arrays and are written out once, by :meth:`Tracer.save`.
"""

import functools
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Wraps ``(module, attribute, span name)`` targets while open.

    ``observers`` maps a span name to ``f(result, counters)``, called with
    each return value, for counts that are read off what a call returned.
    """

    def __init__(self, targets, observers=None):
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.names = sorted({name for _, _, name in self.targets})
        self.calls = Counter()
        self.busy = defaultdict(float)  # inclusive time per span name
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self.op = 0  # identifier shared by the spans of one operation
        self._index = {name: i for i, name in enumerate(self.names)}
        self._name = array("H")
        self._op = array("I")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []  # [span index, time covered by direct children]
        self._originals = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, attr, name in self.targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        index = self._index[name]
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self._start)
            self._name.append(index)
            self._op.append(self.op)
            self._parent.append(self._stack[-1][0] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append([span, 0.0])
            start = time.perf_counter()
            self._start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, children = self._stack.pop()
                duration = end - start
                self._end[span] = end
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.busy[name] += duration
                self.self_time[name] += duration - children
            if observe is not None:
                observe(result, self.counters)
            return result

        return wrapper

    @property
    def span_count(self) -> int:
        return len(self._start)

    def root_time(self) -> float:
        """Summed duration of spans that no other span encloses."""
        parent = np.frombuffer(self._parent, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        roots = parent == -1
        return float((end[roots] - start[roots]).sum())

    def save(self, path) -> None:
        """Write every span to a ``.npz`` file: names, then one array per column."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            op=np.frombuffer(self._op, dtype=np.uint32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )
