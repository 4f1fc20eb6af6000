"""In-memory span tracer and the per-layer time accounting.

A :class:`Tracer` wraps callables of the program under test.  Each
call becomes one span ``(id, parent, layer, name, start, end,
thread)``; the parent is the innermost open span of the same thread.
Spans stay in memory until :meth:`Tracer.dump` writes them when the
run ends.

:func:`layer_self_times` turns spans into per-layer self time.  A
span's self time is its duration minus the part its children cover.
When several threads have an open span at the same instant (the HTTP
service), that instant is shared equally among them, so the layer
self times never sum to more than the wall time they were taken in.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Tracer", "layer_self_times", "patch_function",
           "patch_method"]


class Tracer:
    """Collects spans and timestamped counts from wrapped calls."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.events: list[tuple] = []  # (time, name, value)
        self._ids = itertools.count(1)
        self._local = threading.local()

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        """A tracer holding the spans and counts :meth:`dump` wrote."""
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        tracer = cls()
        tracer.spans = [tuple(span) for span in document["spans"]]
        tracer.events = [tuple(event) for event in document["events"]]
        return tracer

    def count(self, name: str, value: float, at: float) -> None:
        self.events.append((at, name, value))

    def total(self, name: str, window: tuple[float, float]) -> float:
        """Summed values counted under ``name`` inside ``window``."""
        lo, hi = window
        return sum(value for at, event, value in self.events
                   if event == name and lo <= at <= hi)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, on_exit=None):
        """``fn`` recording one span per call.

        ``on_exit(args, result, start, end)`` runs after a call that
        returned (not one that raised), outside the span.
        """
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, layer, name, start, end,
                              threading.get_ident()))
            if on_exit is not None:
                on_exit(args, result, start, end)
            return result

        traced.__traced__ = fn
        return traced

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans and counts as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta,
                       "span_fields": ("id", "parent", "layer", "name",
                                       "start", "end", "thread"),
                       "spans": self.spans,
                       "event_fields": ("time", "name", "value"),
                       "events": self.events}, handle)


def patch_function(tracer: Tracer, module, attr: str, layer: str,
                   name: str, on_exit=None) -> None:
    """Wrap ``module.attr`` and every loaded alias of it.

    Modules that did ``from module import attr`` before the patch hold
    their own reference; those references are replaced too, so the
    wrapper sees every call however the caller imported the function.
    """
    original = getattr(module, attr)
    traced = tracer.wrap(layer, name, original, on_exit)
    for loaded in list(sys.modules.values()):
        if loaded is None or not getattr(loaded, "__name__", "") \
                .startswith("repro"):
            continue
        if getattr(loaded, attr, None) is original:
            setattr(loaded, attr, traced)


def patch_method(tracer: Tracer, cls, attr: str, layer: str, name: str,
                 on_exit=None, *, aliases=()) -> None:
    """Wrap ``cls.attr`` and every override of it in a subclass.

    ``aliases`` names further class attributes bound to the same
    function (``do_GET = do_POST = _handle``) that must be wrapped too.
    """
    pending = [cls]
    seen = set()
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        pending.extend(klass.__subclasses__())
        for attribute in (attr, *aliases):
            original = klass.__dict__.get(attribute)
            if original is None or hasattr(original, "__traced__"):
                continue
            setattr(klass, attribute,
                    tracer.wrap(layer, name, original, on_exit))


def _self_segments(spans):
    """``(start, end, layer)`` intervals where a span is innermost.

    ``spans`` are one thread's spans; they nest properly because a
    thread's calls do.
    """
    ordered = sorted(spans, key=lambda span: (span[4], -span[5]))
    segments = []
    stack: list[tuple] = []  # (end, layer) of the open spans
    cursor = None
    for span in ordered:
        start, end, layer = span[4], span[5], span[2]
        while stack and stack[-1][0] <= start:
            closing_end, closing_layer = stack.pop()
            segments.append((cursor, closing_end, closing_layer))
            cursor = closing_end
        if stack:
            segments.append((cursor, start, stack[-1][1]))
        stack.append((end, layer))
        cursor = start
    while stack:
        closing_end, closing_layer = stack.pop()
        segments.append((cursor, closing_end, closing_layer))
        cursor = closing_end
    return [seg for seg in segments if seg[1] > seg[0]]


def layer_self_times(spans, window: tuple[float, float]) -> dict:
    """Per-layer self seconds of ``spans`` inside ``window``.

    Spans are clipped to the window first.  Where ``k`` threads are
    inside a span at once, each of their innermost layers is credited
    ``1/k`` of that instant.
    """
    lo, hi = window
    by_thread = defaultdict(list)
    for span in spans:
        start, end = max(span[4], lo), min(span[5], hi)
        if end > start:
            by_thread[span[6]].append(
                (*span[:4], start, end, span[6]))
    events = []
    for thread_spans in by_thread.values():
        for start, end, layer in _self_segments(thread_spans):
            events.append((start, 1, layer))
            events.append((end, -1, layer))
    events.sort(key=lambda event: (event[0], event[1]))
    totals: dict = defaultdict(float)
    active: Counter = Counter()
    depth = 0
    previous = None
    for at, delta, layer in events:
        if depth and previous is not None and at > previous:
            share = (at - previous) / depth
            for active_layer, count in active.items():
                if count:
                    totals[active_layer] += share * count
        active[layer] += delta
        depth += delta
        previous = at
    return dict(totals)
