"""In-memory span tracer that wraps functions from outside a package.

A Tracer replaces a function or method by a wrapper that records one
span per call: name, start, end and the span open when it was called
(its parent).  A module function is replaced under every name that
refers to it in the given modules, so a function imported by name into
other modules (``from ._kernels import mat_mul_mod``) is traced there
too.  ``restore`` puts every original object back.

Spans live in flat arrays until the run ends.  A span's self time is
its duration minus the durations of its direct children, so the self
times of a span tree add up to the duration of its root.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _timed(self, fn, nid: int, pre=None, post=None):
        nids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args) if pre is not None else None
            idx = len(starts)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, out, state)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block, such as one benchmark operation."""
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # ---- patching ----------------------------------------------------------

    def wrap_method(self, cls, attr: str, name: str, pre=None, post=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._timed(original, self._nid(name), pre, post))
        self._patches.append((cls, attr, original))

    def wrap_function(self, module, attr: str, name: str, aliases=(), pre=None, post=None) -> None:
        """Wrap module.attr and every alias of it in the given modules."""
        original = getattr(module, attr)
        wrapper = self._timed(original, self._nid(name), pre, post)
        for mod in {module, *aliases}:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- results -----------------------------------------------------------

    def arrays(self):
        """Copies of (name_id, start, end, parent); copies, because a
        numpy view would stop the arrays from growing."""
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
        )

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        _, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, total self seconds)}."""
        nid = self.arrays()[0]
        own = self.self_times()
        calls = np.bincount(nid, minlength=len(self.names))
        secs = np.bincount(nid, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(secs[i])) for i, name in enumerate(self.names)}

    def dump(self, path) -> None:
        nid, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=nid, start=start, end=end, parent=parent
        )
