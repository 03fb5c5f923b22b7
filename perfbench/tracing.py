"""Spans recorded around calls into the library, installed from outside it.

A :class:`Probe` names one function or method of the program and the layer
it belongs to. :func:`installed` swaps each probed callable for a wrapper
that records a :class:`Span` (name, start, end, parent span, run id) in
memory, and puts every original back when the block exits, also on error.
Module-level functions are rebound wherever a module of ``careerseq`` holds a
reference to them (``from .x import f`` copies the reference), so callers
that imported a function by name are traced too.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover; overlapping children (threads) are merged
before subtracting, so no interval is subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str


@dataclass(frozen=True)
class Call:
    """What a probe's counting hook sees of one call."""

    args: tuple
    kwargs: dict
    result: Any
    before: Any
    start: float
    end: float


@dataclass(frozen=True)
class Probe:
    owner: Any  # a module (for functions) or a class (for methods)
    attr: str
    layer: str
    count: Optional[Callable[["Tracer", Call], None]] = None
    before: Optional[Callable[[tuple, dict], Any]] = None
    span: bool = True  # False: count only, so the caller keeps the time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = ""
        self.captured: dict[str, Any] = {}  # results a counting hook keeps for later use
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def inside(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open on the calling thread."""
        return any(name == layer for _, name in self._stack())

    def wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = probe.before(args, kwargs) if probe.before else None
            stack = tracer._stack()
            span_id = next(tracer._ids) if probe.span else None
            parent = stack[-1][0] if stack else None
            if probe.span:
                stack.append((span_id, probe.layer))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if probe.span:
                    stack.pop()
                    tracer.spans.append(Span(span_id, probe.layer, start, end, parent, tracer.run))
            if probe.count:
                probe.count(tracer, Call(args, kwargs, result, before, start, end))
            return result

        return wrapper


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "careerseq" or name.startswith("careerseq."))
    ]


@contextmanager
def installed(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[Tracer]:
    """Wrap every probed callable for the duration of the block."""
    patches: list[tuple[Any, str, Any]] = []
    try:
        for probe in probes:
            original = vars(probe.owner)[probe.attr]
            if not callable(original) or isinstance(original, (classmethod, staticmethod)):
                raise TypeError(f"{probe.owner.__name__}.{probe.attr} is not a plain function")
            wrapper = tracer.wrap(probe, original)
            if isinstance(probe.owner, type):
                sites = [(probe.owner, probe.attr)]
            else:
                sites = [
                    (mod, alias)
                    for mod in _package_modules()
                    for alias, value in list(vars(mod).items())
                    if value is original
                ]
            for target, attr in sites:
                patches.append((target, attr, original))
                setattr(target, attr, wrapper)
        yield tracer
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)


# --------------------------------------------------------------------------
# Self time
# --------------------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end) for s in spans}


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Layer name -> summed self time of its spans."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.id]
    return dict(out)
