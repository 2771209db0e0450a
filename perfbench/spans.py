"""Span tracing for the traced run, from outside the program.

The traced run wraps bound methods on the instances the benchmark
builds: no source edits, and the program's own tracer stays off.  Each
wrapped call records one span ``(id, parent, feed, name, start, end)``;
spans under one ``feed`` (or ``finish``) call share its feed id.  Spans
stay in memory until the run ends.  A layer's self time is the sum over
its spans of the span's duration minus the durations of its child spans,
so the self times of all layers add up to the time spent in the root
spans.
"""

from __future__ import annotations

import gc
import gzip
import itertools
import time
from pathlib import Path
from typing import Dict, List, Tuple

perf_counter = time.perf_counter

#: Span name -> the per-layer metric its self time is reported under
#: (outermost layer first).
LAYER_METRICS = {
    "pipeline.feed": "pipeline.self_s",
    "pipeline.finish": "pipeline.self_s",
    "poet.collect_batch": "poet.self_s",
    "events.add_batch": "events.store_s",
    "engine.dispatch": "engine.dispatch_self_s",
    "core.monitor.on_batch": "core.monitor.self_s",
    "core.matcher.on_event": "core.matcher.classify_s",
    "core.gpls.observe": "core.gpls.observe_s",
    "core.history.append": "core.history.append_s",
    "core.matcher.search": "core.matcher.search_s",
    "core.subset.update": "core.subset.update_s",
}


class SpanTracer:
    """Records spans of wrapped instance methods."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        #: Call counts of count-only wrappers, by name.
        self.calls: Dict[str, List[int]] = {}
        #: Inclusive time of phase wrappers (no span), by name.
        self.phase_s: Dict[str, List[float]] = {}
        self._stack = [0]
        self._next_id = itertools.count(1).__next__
        self._feed = [0]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @staticmethod
    def _install(obj, attr: str, wrapper) -> None:
        # object.__setattr__ also reaches frozen dataclass instances
        # (the pattern's event classes).
        object.__setattr__(obj, attr, wrapper)

    def span(self, obj, attr: str, name: str, root: bool = False) -> None:
        """Record a span around every call of ``obj.attr``.  A root
        span opens a new feed id."""
        original = getattr(obj, attr)
        name_id = self._name_id(name)
        stack, next_id, feed = self._stack, self._next_id, self._feed
        record = self.spans.append

        def wrapper(*args, **kwargs):
            span_id = next_id()
            if root:
                feed[0] += 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record((span_id, parent, feed[0], name_id, start, end))

        self._install(obj, attr, wrapper)

    def count(self, obj, attr: str, name: str, weight=None) -> None:
        """Count calls of ``obj.attr`` (or, with ``weight``, the sum of
        ``weight(*args)`` over calls) without timing them."""
        original = getattr(obj, attr)
        cell = self.calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1 if weight is None else weight(*args)
            return original(*args, **kwargs)

        self._install(obj, attr, wrapper)

    def phase(self, obj, attr: str, name: str) -> None:
        """Accumulate the inclusive time of ``obj.attr`` without a span:
        the time stays in the enclosing layer's self time."""
        original = getattr(obj, attr)
        cell = self.phase_s.setdefault(name, [0.0])

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                cell[0] += perf_counter() - start

        self._install(obj, attr, wrapper)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, after checking that every child
        span lies inside its parent and shares its feed id."""
        by_id = {s[0]: s for s in self.spans}
        child_s: Dict[int, float] = {}
        for span_id, parent, feed, _name, start, end in self.spans:
            if parent == 0:
                continue
            outer = by_id.get(parent)
            if (
                outer is None or outer[2] != feed
                or start < outer[4] or end > outer[5]
            ):
                raise ValueError(f"span {span_id} escapes its parent {parent}")
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        totals = {name: 0.0 for name in self.names}
        for span_id, _parent, _feed, name_id, start, end in self.spans:
            totals[self.names[name_id]] += (end - start) - child_s.get(
                span_id, 0.0
            )
        return totals

    def calls_of(self, name: str) -> int:
        return self.calls.get(name, [0])[0]

    def count_spans(self, name: str) -> int:
        if name not in self.names:
            return 0
        name_id = self.names.index(name)
        return sum(1 for s in self.spans if s[3] == name_id)

    def write(self, path: Path) -> None:
        """Write every span once, as gzipped CSV (times in µs from the
        first span's start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,feed,name,start_us,end_us\n")
            for span_id, parent, feed, name_id, start, end in self.spans:
                out.write(
                    f"{span_id},{parent},{feed},{self.names[name_id]},"
                    f"{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f}\n"
                )


def instrument(tracer: SpanTracer, pipeline) -> None:
    """Wrap the layer boundaries of a wired streaming pipeline.

    Private matcher methods are wrapped only when present, so a change
    that renames one moves its time into the enclosing layer instead of
    breaking the benchmark.
    """
    tracer.span(pipeline, "feed", "pipeline.feed", root=True)
    tracer.span(pipeline, "finish", "pipeline.finish", root=True)
    encoder = getattr(pipeline, "_stream_encoder", None)
    if encoder is not None:
        tracer.count(encoder, "extend", "clocks.encoded_events",
                     weight=lambda events: len(events))
    server = pipeline.server
    tracer.span(server, "collect_batch", "poet.collect_batch")
    tracer.span(server.store, "add_batch", "events.add_batch")
    dispatcher = pipeline.dispatcher
    tracer.span(dispatcher, "on_batch", "engine.dispatch")
    classes = {}
    for _name, monitor in dispatcher:
        tracer.span(monitor, "on_batch", "core.monitor.on_batch")
        matcher = monitor.matcher
        tracer.span(matcher, "on_event", "core.matcher.on_event")
        tracer.span(matcher.index, "observe", "core.gpls.observe")
        tracer.span(matcher.history, "append", "core.history.append")
        if matcher.negation_history is not None:
            tracer.span(matcher.negation_history, "append",
                        "core.history.append")
        tracer.span(matcher.subset, "update", "core.subset.update")
        if hasattr(matcher, "_search"):
            tracer.span(matcher, "_search", "core.matcher.search")
        if hasattr(matcher, "_negation_witness"):
            tracer.phase(matcher, "_negation_witness",
                         "core.matcher.negation")
        pattern = monitor.pattern
        for holder in list(pattern.leaves) + list(pattern.negations):
            classes[id(holder.event_class)] = holder.event_class
    for event_class in classes.values():
        tracer.count(event_class, "matches", "patterns.class_match_calls")


class GcClock:
    """Time and count garbage collections through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        self.seconds += perf_counter() - self._started
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        gc.callbacks.remove(self)
        return False


__all__ = ["GcClock", "LAYER_METRICS", "SpanTracer", "instrument"]
