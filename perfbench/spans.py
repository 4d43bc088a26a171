"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions: :meth:`Tracer.wrap` replaces a bound method
on one *instance* with a timing wrapper (the class, and every other
instance, stay untouched) and :meth:`Tracer.unwrap_all` restores it.
A span is ``[name, start, end, parent, rid]``: ``parent`` is the index
of the enclosing span (on the same thread, or given explicitly when
work hops threads) and ``rid`` is the request/unit id it belongs to.
A layer's self time is its spans' duration minus the part covered by
their direct children.
"""

from __future__ import annotations

import json
import threading
from array import array
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

Name = Union[str, Callable[..., str]]


class Tracer:
    """Records spans in memory; written out once, when the run ends.

    Span fields live in flat arrays rather than one list per span, so
    recording adds no objects for the program's garbage collector to
    scan.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._rids = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []
        self._next_rid = 0

    # -- recording ------------------------------------------------------------

    def new_rid(self) -> int:
        with self._lock:
            self._next_rid += 1
            return self._next_rid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: Optional[int] = None,
              rid: Optional[int] = None, push: bool = True) -> int:
        """Open a span; returns its index.  The parent defaults to the
        innermost open span of this thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if rid is None:
            rid = self._rids[parent] if parent is not None else -1
        with self._lock:
            index = len(self._names)
            self._names.append(name)
            self._parents.append(-1 if parent is None else parent)
            self._rids.append(rid)
            self._ends.append(0.0)
            self._starts.append(time.perf_counter())
        if push:
            stack.append(index)
        return index

    def end(self, index: int, pop: bool = True) -> None:
        self._ends[index] = time.perf_counter()
        if pop:
            self._stack().pop()

    @property
    def spans(self) -> List[list]:
        """Every span as ``[name, start, end, parent, rid]``."""
        return [[name, start, end, None if parent < 0 else parent,
                 None if rid < 0 else rid]
                for name, start, end, parent, rid in zip(
                    self._names, self._starts, self._ends, self._parents,
                    self._rids)]

    # -- instance wrappers ----------------------------------------------------

    def wrap(self, obj: object, attr: str, name: Name,
             after: Optional[Callable] = None, consume: bool = False,
             restore: bool = True, context: Optional[Callable] = None
             ) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``.

        ``name`` may be a function of the call's arguments.  ``after``
        runs outside the span with ``(args, result)``.  ``consume``
        drains a returned iterator inside the span (a generator's work
        happens while it is iterated) and returns it as a list.  With
        ``restore=False`` the wrapper stays until ``obj`` dies and the
        tracer keeps no reference to ``obj``.  ``context(args)`` may
        return the ``(parent, rid)`` of a span opened on another thread.
        """
        original = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            parent, rid = (context(args) if context is not None
                           else (None, None))
            span = tracer.begin(label, parent=parent, rid=rid)
            try:
                result = original(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, result)
            return result

        if restore:
            self.install(obj, attr, traced)
        else:
            setattr(obj, attr, traced)

    def wrap_async(self, obj: object, attr: str, name: str,
                   started: Optional[Callable] = None) -> None:
        """:meth:`wrap` for a coroutine method.  Each call is a new
        request: it gets a fresh rid, and ``started(args, span, rid)``
        runs once the span is open."""
        original = getattr(obj, attr)
        tracer = self

        async def traced(*args, **kwargs):
            rid = tracer.new_rid()
            span = tracer.begin(name, rid=rid, push=False)
            if started is not None:
                started(args, span, rid)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.end(span, pop=False)

        self.install(obj, attr, traced)

    def install(self, obj: object, attr: str, replacement) -> None:
        """Set ``obj.attr`` to ``replacement`` until :meth:`unwrap_all`."""
        had_own = attr in getattr(obj, "__dict__", {})
        previous = obj.__dict__[attr] if had_own else None
        setattr(obj, attr, replacement)
        self._installed.append((obj, attr, previous if had_own else _CLASS))

    def unwrap_all(self) -> None:
        """Restore every wrapped method, newest first."""
        while self._installed:
            obj, attr, previous = self._installed.pop()
            if previous is _CLASS:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    # -- output ---------------------------------------------------------------

    def write(self, path: str, meta: dict) -> None:
        """Write the spans as JSON: ``{"fields", "spans", "meta"}``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "rid"],
                       "spans": self.spans, "meta": meta}, handle)


_CLASS = object()


def window(spans: List[list], start: float, end: float) -> List[list]:
    """Closed spans that started inside ``[start, end]``, re-indexed so
    parents point into the returned list (or are ``None``)."""
    keep: Dict[int, int] = {}
    out: List[list] = []
    for index, span in enumerate(spans):
        if start <= span[1] <= end and span[2] >= span[1] > 0:
            keep[index] = len(out)
            out.append(list(span))
    for span in out:
        span[3] = keep.get(span[3]) if span[3] is not None else None
    return out


class LayerStats:
    """Per-span-name totals: calls, summed duration, summed self time."""

    def __init__(self, spans: Iterable[list]) -> None:
        spans = list(spans)
        covered = [0.0] * len(spans)
        for span in spans:
            if span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        for index, span in enumerate(spans):
            name, duration = span[0], span[2] - span[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + duration - covered[index])

    def names(self, prefix: str = "") -> List[str]:
        return sorted(name for name in self.calls if name.startswith(prefix))

    def sum_calls(self, prefix: str) -> int:
        return sum(self.calls[name] for name in self.names(prefix))

    def mean_us(self, prefix: str, self_only: bool = False) -> float:
        """Mean duration (or self time) per call, in microseconds, over
        every span name starting with ``prefix``; 0 when never called."""
        calls = self.sum_calls(prefix)
        if not calls:
            return 0.0
        table = self.self_time if self_only else self.total
        return sum(table[name] for name in self.names(prefix)) / calls * 1e6

    def all_self(self) -> float:
        return sum(self.self_time.values())

    def table(self, wall: float) -> List[str]:
        """Rows of the self-time table, largest first."""
        rows = [f"  {'layer span':<40} {'calls':>8} {'self ms':>10} "
                f"{'self/call us':>13} {'share':>7}"]
        for name in sorted(self.self_time, key=lambda n: -self.self_time[n]):
            self_s = self.self_time[name]
            rows.append(f"  {name:<40} {self.calls[name]:>8} "
                        f"{self_s * 1e3:>10.1f} "
                        f"{self_s / self.calls[name] * 1e6:>13.1f} "
                        f"{(self_s / wall * 100 if wall else 0):>6.1f}%")
        return rows

