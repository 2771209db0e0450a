"""The open-loop load generator: set-up, scheduled feeding, and run records.

Events are due on a fixed schedule at the workload's offered rate.
At each due time the generator sleeps, then spins, until the next event is
due and passes every event already due (at most ``MAX_BATCH``) in one
``Pipeline.feed`` call.  The schedule never waits for the program, so a
slow program builds a backlog and its latency shows it.

Only the public streaming API is used, with default settings:
``Pipeline.stream(trace_names)`` -> ``watch(name, source)`` ->
``feed(slice)`` -> ``finish()``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.engine.pipeline import Pipeline

#: Most events handed to one ``feed`` call.
MAX_BATCH = 256
#: Below this much time to the next due event the generator spins instead
#: of sleeping.  Sleep wake-ups overshoot, and events processed right
#: after a sleep took up to 2x longer, with a wide spread, in
#: measurements; at every workload's rate the generator only spins.
SPIN_S = 0.003
#: Pause between building the pipeline and the first due event.
LEAD_S = 0.005
#: Set-up repetitions per batch: at least this many and this much time.
SETUP_REPS = 21
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 400

perf_counter = time.perf_counter


def rss_bytes() -> int:
    """Resident set size of this process."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def build(
    trace_names: Sequence[str],
    patterns: dict,
    on_match: Optional[Callable] = None,
) -> Tuple[Pipeline, float, float]:
    """Set up a pipeline; returns it with its set-up and watch times.

    Set-up is ``Pipeline.stream``, every ``watch`` (parse, tree,
    compile) and the first ``feed([])``, which wires the stages.
    """
    started = perf_counter()
    pipeline = Pipeline.stream(trace_names)
    if on_match is not None:
        pipeline.on_match(on_match)
    watch_started = perf_counter()
    for name, source in patterns.items():
        pipeline.watch(name, source)
    watch_s = perf_counter() - watch_started
    pipeline.feed([])
    return pipeline, perf_counter() - started, watch_s


def setup_times(
    trace_names: Sequence[str], patterns: dict
) -> Tuple[List[float], List[float]]:
    """Repeat set-up until ``SETUP_REPS`` samples and ``SETUP_MIN_S`` of
    set-up time are collected (at most ``SETUP_MAX_REPS``); returns
    (set-up times, watch times).

    Garbage from the previous repetition is collected untimed; the
    objects alive beforehand (input, earlier runs) are frozen so those
    collections stay cheap.
    """
    setups: List[float] = []
    watches: List[float] = []
    gc.freeze()
    try:
        while len(setups) < SETUP_MAX_REPS and (
            len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S
        ):
            gc.collect()
            _pipeline, setup_s, watch_s = build(
                trace_names, patterns, on_match=lambda name, report: None
            )
            setups.append(setup_s)
            watches.append(watch_s)
    finally:
        gc.unfreeze()
    return setups, watches


@dataclasses.dataclass
class Run:
    """Everything one open-loop run recorded.

    ``feeds`` holds one ``(first, end, called, returned)`` tuple per
    ``feed`` call: the slice ``events[first:end]`` and the wall-clock
    instants around the call.  Event ``k`` is due at
    ``origin + k / rate``.
    """

    pipeline: Pipeline
    rate: float
    origin: float
    feeds: List[Tuple[int, int, float, float]]
    finish_s: float
    backlog_max: int
    matches: List[Tuple[float, object]]
    raising_feeds: List[Tuple[int, int]]
    finish_error: Optional[BaseException]
    rss_growth: int

    def due(self, k: int) -> float:
        return self.origin + k / self.rate

    @property
    def busy_s(self) -> float:
        """Time spent inside ``feed`` and ``finish``."""
        return sum(ret - call for _f, _e, call, ret in self.feeds) + self.finish_s

    @property
    def wall_s(self) -> float:
        return self.feeds[-1][3] - self.origin + self.finish_s

    def latencies_us(self) -> List[float]:
        """Per event: due time to the return of the delivering feed."""
        out: List[float] = []
        origin, rate = self.origin, self.rate
        for first, end, _call, returned in self.feeds:
            out.extend(
                (returned - origin - k / rate) * 1e6
                for k in range(first, end)
            )
        return out

    def offer_late_us(self) -> List[float]:
        """How late the load generator itself offered each slice that found the
        program idle: call instant minus the first event's due time."""
        out: List[float] = []
        previous_return = self.origin
        for first, _end, call, returned in self.feeds:
            due = self.due(first)
            if previous_return <= due:
                out.append((call - due) * 1e6)
            previous_return = returned
        return out

    def quarter_cost_us(self) -> List[float]:
        """Busy time per event in each quarter of the stream (a feed's
        time is shared evenly among its events)."""
        total = self.feeds[-1][1]
        sums = [0.0] * 4
        for first, end, call, returned in self.feeds:
            per_event = (returned - call) / (end - first)
            for k in range(first, end):
                sums[min(3, 4 * k // total)] += per_event
        counts = [
            (total * (q + 1)) // 4 - (total * q) // 4 for q in range(4)
        ]
        return [s / c * 1e6 for s, c in zip(sums, counts)]


def drive(
    trace_names: Sequence[str],
    patterns: dict,
    events: Sequence,
    rate: float,
    instrument: Optional[Callable[[Pipeline], None]] = None,
) -> Run:
    """Set up a pipeline and feed ``events`` open-loop at ``rate``.

    RSS is read before set-up and after ``finish``; the input already
    exists at that point, so the growth is the program's own state.
    ``instrument`` (the traced run's span wrappers) is applied to the
    wired pipeline before the first event is due.
    """
    matches: List[Tuple[float, object]] = []
    record = matches.append

    def on_match(_name, report) -> None:
        record((perf_counter(), report.trigger_event))

    gc.collect()
    rss_before = rss_bytes()
    pipeline, _setup_s, _watch_s = build(trace_names, patterns, on_match)
    if instrument is not None:
        instrument(pipeline)

    n = len(events)
    feeds: List[Tuple[int, int, float, float]] = []
    raising: List[Tuple[int, int]] = []
    feed = pipeline.feed
    sleep = time.sleep
    backlog_max = 0
    origin = perf_counter() + LEAD_S
    i = 0
    while i < n:
        due = origin + i / rate
        now = perf_counter()
        if now < due:
            if due - now > SPIN_S:
                sleep(due - now - SPIN_S)
            while perf_counter() < due:
                pass
            now = perf_counter()
        available = min(n, int((now - origin) * rate) + 1)
        end = max(i + 1, min(available, i + MAX_BATCH))
        backlog_max = max(backlog_max, available - i)
        chunk = events[i:end]
        called = perf_counter()
        try:
            feed(chunk)
        except Exception:  # noqa: BLE001 - counted as failed operations
            raising.append((i, end))
        returned = perf_counter()
        feeds.append((i, end, called, returned))
        i = end

    finish_error = None
    started = perf_counter()
    try:
        pipeline.finish()
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        finish_error = exc
    finish_s = perf_counter() - started
    rss_growth = rss_bytes() - rss_before
    return Run(
        pipeline=pipeline,
        rate=rate,
        origin=origin,
        feeds=feeds,
        finish_s=finish_s,
        backlog_max=backlog_max,
        matches=matches,
        raising_feeds=raising,
        finish_error=finish_error,
        rss_growth=rss_growth,
    )


def failed_events(run: Run, offered: int) -> int:
    """Events not processed by every shard: those past the shortest
    shard prefix (a quarantined shard stops where it failed) plus those
    of every ``feed`` call that raised."""
    processed = min(
        (monitor.matcher.events_processed for _name, monitor
         in run.pipeline.dispatcher),
        default=0,
    )
    failed = set(range(processed, offered))
    for first, end in run.raising_feeds:
        failed.update(range(first, end))
    if run.finish_error is not None:
        failed.update(range(offered))
    return len(failed)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


__all__ = [
    "MAX_BATCH",
    "Run",
    "build",
    "drive",
    "failed_events",
    "percentile",
    "rss_bytes",
    "setup_times",
]
