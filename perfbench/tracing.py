"""In-memory span recorder that wraps trainload's module-level names.

Tracing is done from outside the package: :meth:`Tracer.patch` replaces a
module attribute (or a classmethod) with a wrapper that records a span
around each call, and :meth:`Tracer.restore` puts the originals back.  The
library looks these names up at call time, so the solver's own calls to
``check_feasibility``, ``Solution.from_maps`` and friends are seen without
changing anything under ``src/``.

A span is (name, start, end, parent, flag).  ``flag`` is set when an
optional predicate on the call's result holds, e.g. "the candidate was
feasible".  Spans live in flat arrays while the run goes on and are written
to disk once, at the end.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    flagged: int = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flag = array("b")
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._active = False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.flag.append(0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Span around a block of harness code (an operation or a stage)."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn: Callable, name: str, flag: Callable | None) -> Callable:
        nid = self._name_id(name)
        open_, close, flags = self._open, self._close, self.flag

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if flag is not None and flag(result, args):
                flags[i] = 1
            return result

        return traced

    def patch(
        self, owner: Any, attr: str, name: str, flag: Callable | None = None
    ) -> None:
        """Record a span ``name`` around every call of ``owner.attr``."""
        original = vars(owner)[attr]
        wrapper = self._wrap(getattr(owner, attr), name, flag)
        if isinstance(original, classmethod):
            wrapper = staticmethod(wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._active = True

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._active = False

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Run a block (output checks) without recording spans."""
        was_active = self._active
        if was_active:
            self.restore()
        try:
            yield
        finally:
            if was_active:
                self.install()

    @property
    def active(self) -> bool:
        return self._active

    def stats(self) -> dict[tuple[str, str], SpanStats]:
        """Per (span name, parent span name) totals; self time is the span's
        duration less the durations of its direct children."""
        n = len(self.start)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        out: dict[tuple[str, str], SpanStats] = {}
        for i in range(n):
            p = self.parent[i]
            key = (self.names[self.name[i]], self.names[self.name[p]] if p >= 0 else "")
            s = out.get(key)
            if s is None:
                s = out[key] = SpanStats()
            duration = self.end[i] - self.start[i]
            s.calls += 1
            s.total_s += duration
            s.self_s += duration - child_s[i]
            s.flagged += self.flag[i]
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed CSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,flag\n")
            names, name, start, end, parent, flag = (
                self.names, self.name, self.start, self.end, self.parent, self.flag
            )
            fh.writelines(
                f"{i},{names[name[i]]},{start[i] - t0:.7f},{end[i] - t0:.7f},{parent[i]},{flag[i]}\n"
                for i in range(len(start))
            )


def merge(stats: dict[tuple[str, str], SpanStats], name: str, parent: str | None = None) -> SpanStats:
    """Totals for span ``name`` over every parent, or under one parent."""
    out = SpanStats()
    for (n, p), s in stats.items():
        if n == name and (parent is None or p == parent):
            out.calls += s.calls
            out.total_s += s.total_s
            out.self_s += s.self_s
            out.flagged += s.flagged
    return out
