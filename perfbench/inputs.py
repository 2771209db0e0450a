"""Seeded input generation for the benchmark's workloads.

Every stream is a recorded linearization of one simulated application
at 64 traces, cut to exactly the workload's stream length (a prefix of
a linearization is itself a causally closed linearization).  Generation happens before any timing; the program
under test only ever sees the finished event list.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from typing import Dict, Sequence, Set, Tuple

from repro.engine.cases import case_patterns
from repro.events.event import Event, EventKind
from repro.poet.client import RecordingClient
from repro.workloads import absence_pattern, build_absence, build_message_race

#: Traces of every workload (one coordinator plus 63 workers).
TRACES = 64


@dataclasses.dataclass
class WorkloadInput:
    """One generated input: the stream, its patterns and ground truth.

    ``expected_slots`` maps a shard name to the ``(leaf, trace)`` slots
    the generator's recorded ground truth says the representative
    subset must cover, for shards that have one.
    """

    name: str
    events: Sequence[Event]
    trace_names: Tuple[str, ...]
    patterns: Dict[str, str]
    expected_slots: Dict[str, Set[Tuple[int, int]]]
    gen_s: float

    @property
    def receive_frac(self) -> float:
        receives = sum(1 for e in self.events if e.kind is EventKind.RECEIVE)
        return receives / len(self.events)

    def digest(self) -> int:
        """48-bit hash over (trace, index, etype, text, clock) of every
        event plus the event count, so a generator change shows up as
        different input rather than as a speed change."""
        h = hashlib.sha256()
        for e in self.events:
            h.update(
                f"{e.trace},{e.index},{e.etype},{e.text},"
                f"{tuple(e.clock)}\n".encode()
            )
        h.update(str(len(self.events)).encode())
        return int(h.hexdigest()[:12], 16)


def _record(workload, count: int) -> Tuple[Sequence[Event], Tuple[str, ...]]:
    recorder = RecordingClient()
    workload.server.connect(recorder)
    workload.run(max_events=count)
    events = recorder.events[:count]
    if len(events) < count:
        raise RuntimeError(
            f"generator produced {len(events)} events, {count} needed"
        )
    return events, tuple(workload.kernel.trace_names())


def _truth_slots(
    events: Sequence[Event],
    truth: Sequence[Tuple[int, int]],
    closing_etype: str,
    text_format: str,
    num_leaves: int,
) -> Set[Tuple[int, int]]:
    """Slots of every recorded (trace, job) whose closing event made it
    into the prefix: each leaf of the pattern is covered on that trace."""
    closed = {(e.trace, e.text) for e in events if e.etype == closing_etype}
    traces = {
        trace for trace, job in truth
        if (trace, text_format.format(job)) in closed
    }
    return {(leaf, trace) for leaf in range(num_leaves) for trace in traces}


def _negation_absence(seed: int, count: int):
    workers = TRACES - 1
    workload = build_absence(
        num_workers=workers, seed=seed,
        jobs_per_worker=math.ceil(count / workers / 4) + 2,
    )
    events, names = _record(workload, count)
    expected = _truth_slots(
        events, workload.violations, "Commit", "req{}", 2
    )
    return events, names, {"absence": absence_pattern()}, {"absence": expected}


def _race_shards(seed: int, count: int):
    workload = build_message_race(
        TRACES, seed=seed,
        messages_per_sender=math.ceil(count / (TRACES - 1) / 4) + 2,
    )
    events, names = _record(workload, count)
    return events, names, case_patterns(TRACES), {}


GENERATORS = {
    "negation-absence": _negation_absence,
    "race-shards": _race_shards,
}

#: Events per stream.  A run feeds as many independent streams as its
#: offered rate fills and reports the median over them, so an unlucky
#: input or a slow phase of the machine during one stream does not set
#: the result.  Streams are one to three seconds long, so a run holds
#: 16 to 40 of them and its median spans many such phases.
STREAM_EVENTS = {
    "negation-absence": 1250,
    "race-shards": 3000,
}


def generate(name: str, seed: int, count: int) -> WorkloadInput:
    """Build workload ``name``'s input: ``count`` events from ``seed``."""
    started = time.perf_counter()
    events, names, patterns, expected = GENERATORS[name](seed, count)
    return WorkloadInput(
        name=name,
        events=events,
        trace_names=names,
        patterns=patterns,
        expected_slots=expected,
        gen_s=time.perf_counter() - started,
    )


def lookup(events: Sequence[Event]) -> Dict[Tuple[int, int], int]:
    """(trace, index) -> position in the stream."""
    return {(e.trace, e.index): i for i, e in enumerate(events)}


__all__ = [
    "GENERATORS", "STREAM_EVENTS", "TRACES", "WorkloadInput", "generate",
    "lookup",
]
