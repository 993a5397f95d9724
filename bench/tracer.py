"""In-memory span tracer that wraps functions from outside the program.

A span records its name, start, end, parent span and schedule (the
``t_final`` of the pipeline run it belongs to), plus counts read from the
call's arguments and return value.  Spans stay in memory until the caller
writes them out.

``install`` replaces a function in every given module namespace that binds
it with one shared wrapper, so a call is traced once whichever module it
goes through, and a function that recurses through two namespaces nests
its spans instead of being wrapped twice.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    schedule: float | None = None
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """What to trace: ``owner.attr`` under span ``name``.

    ``count(bound_arguments, result)`` returns the counts to record;
    ``schedule`` names the argument that sets the span's schedule for it
    and every span below it.
    """

    owner: object
    attr: str
    name: str
    count: Callable | None = None
    schedule: str | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _enclosing(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to whatever the main
        # thread is inside, e.g. the sweep fan-out waiting on its pool
        main = self._stacks.get(threading.main_thread().ident)
        return main[-1] if main else None

    def open(self, name: str, schedule: float | None = None) -> Span:
        parent = self._enclosing()
        if schedule is None and parent is not None:
            schedule = parent.schedule
        with self._lock:
            span = Span(len(self.spans), name, 0.0, schedule=schedule,
                        parent=None if parent is None else parent.id)
            self.spans.append(span)
        self._stack().append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def wrap(self, func: Callable, probe: Probe) -> Callable:
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            bound = None
            if probe.count or probe.schedule:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            schedule = None
            if probe.schedule:
                schedule = float(bound.arguments[probe.schedule])
            span = self.open(probe.name, schedule)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if probe.count:
                span.counts.update(probe.count(bound.arguments, result))
            return result

        return traced

    def install(self, probes, modules) -> None:
        """Wrap each probe's target and rebind it wherever ``modules`` bind it."""
        modules = list(modules)
        for probe in probes:
            original = getattr(probe.owner, probe.attr)
            wrapper = self.wrap(original, probe)
            if isinstance(probe.owner, type):
                self._rebind(probe.owner, probe.attr, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {s.id: [] for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.duration - union_length(children[s.id]) for s in spans}


def to_records(spans: list[Span]) -> list[dict]:
    return [vars(s) for s in spans]


def from_records(records: list[dict]) -> list[Span]:
    return [Span(**r) for r in records]
