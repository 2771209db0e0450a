"""The two kinds of run and the metrics each one reports.

:func:`untraced` measures the end-to-end metrics; :func:`traced` makes
an untraced run for the counters (read from public attributes at no
cost) and then a traced run for the per-layer self times.  Every run
passes the correctness gate outside its timed region.
"""

from __future__ import annotations

import dataclasses
import gc
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from gate import check, replay_signatures
from inputs import STREAM_EVENTS, WorkloadInput, generate, lookup
from openloop import Run, drive, failed_events, percentile, setup_times
from spans import LAYER_METRICS, GcClock, SpanTracer, instrument

#: Generator seeds of one run's streams: ``SEED_STRIDE * seed + k``.
SEED_STRIDE = 1000


@dataclasses.dataclass
class Outcome:
    values: Dict[str, float]
    failures: List[str]
    attempted: int
    failed: int
    notes: List[str]


def _gate(inp: WorkloadInput, run: Run, expected: Dict[str, tuple]
          ) -> Tuple[List[str], int]:
    """Failures of one run and its failed-event count (every event
    counts as failed when the run fails its correctness check)."""
    offered = len(inp.events)
    failed = failed_events(run, offered)
    failures = check(inp, run.pipeline.dispatcher, expected)
    if run.finish_error is not None:
        failures.append(f"finish() raised {run.finish_error!r}")
    if failed:
        failures.append(f"{failed} of {offered} events not processed "
                        "by every shard")
    return failures, offered if failures else failed


def _detect_us(inp: WorkloadInput, run: Run) -> List[float]:
    """Per report: due time of its trigger event to the callback."""
    position = lookup(inp.events)
    return [
        (at - run.due(position[(event.trace, event.index)])) * 1e6
        for at, event in run.matches
    ]


def streams(workload: str, seed: int, seconds: int, rate: float,
            count: Optional[int] = None) -> List[WorkloadInput]:
    """The run's inputs: independent streams of the workload's fixed
    length, as many as ``rate * seconds`` events fill (at least one),
    or the first ``count`` of them."""
    length = STREAM_EVENTS[workload]
    if count is None:
        count = max(1, round(rate * seconds / length))
    return [generate(workload, SEED_STRIDE * seed + k, length)
            for k in range(count)]


def untraced(workload: str, seed: int, seconds: int, rate: float) -> Outcome:
    inputs = streams(workload, seed, seconds, rate)
    # The first stream's replay runs before any timing: it is the gate's
    # expectation and warms the interpreter up on the program's code.
    expected = {0: replay_signatures(inputs[0])}
    # Every stream runs before any other gate, and stays alive until the
    # end, so no run reuses memory another one (or a replay) freed.
    runs = [drive(inp.trace_names, inp.patterns, inp.events, rate)
            for inp in inputs]
    failures: List[str] = []
    failed = 0
    # Set-up is timed in batches between the gates, so its median spans
    # the tail of the run rather than one short burst.
    setups: List[float] = []
    for k, (inp, run) in enumerate(zip(inputs, runs)):
        if k in (0, len(runs) // 2):
            setups += setup_times(inp.trace_names, inp.patterns)[0]
        if k not in expected:
            expected[k] = replay_signatures(inp)
        stream_failures, stream_failed = _gate(inp, run, expected[k])
        failures += [f"stream {k}: {f}" for f in stream_failures]
        failed += stream_failed
    setups += setup_times(inputs[0].trace_names, inputs[0].patterns)[0]

    offered = sum(len(inp.events) for inp in inputs)
    processed = offered - sum(
        failed_events(run, len(inp.events))
        for inp, run in zip(inputs, runs)
    )
    latencies = [run.latencies_us() for run in runs]
    # Reports are few per stream, so detection latency is pooled.
    detect = [
        x for inp, run in zip(inputs, runs) for x in _detect_us(inp, run)
    ] or [0.0]
    # Every other timing is the median over the streams, so neither an
    # unlucky input nor a phase of the machine that is slower or faster
    # than usual during a few streams sets the result.
    values = {
        "setup_s": median(setups),
        "capacity_eps": median(
            len(inp.events) / run.busy_s for inp, run in zip(inputs, runs)
        ),
        "latency_us_p50": median(percentile(lat, 0.50) for lat in latencies),
        "latency_us_p90": median(percentile(lat, 0.90) for lat in latencies),
        "detect_us_p50": median(detect),
        "rss_growth_mb": median(run.rss_growth for run in runs) / 2**20,
        "processed_frac": processed / offered,
    }
    pooled = [x for lat in latencies for x in lat]
    notes = [
        f"{workload} seed {seed}: {len(runs)} streams of "
        f"{len(inputs[0].events)} events at {rate:.0f} ev/s, busy "
        + ", ".join(f"{run.busy_s:.3f}" for run in runs)
        + f" s, backlog max {max(run.backlog_max for run in runs)}",
        f"latency p99 {percentile(pooled, 0.99):.1f} us, "
        f"max {max(pooled):.1f} us over {len(pooled)} events; "
        f"detect p90 {percentile(detect, 0.90):.1f} us over "
        f"{sum(len(run.matches) for run in runs)} reports; "
        f"setup median of {len(setups)}",
        "workloads.input_digest per stream: "
        + ", ".join(str(inp.digest()) for inp in inputs),
    ] + [f"FAILED: {failure}" for failure in failures]
    return Outcome(values, failures, offered, failed, notes)


def _counters(run: Run) -> Dict[str, float]:
    """Per-layer counts and sizes read from public attributes."""
    dispatcher = run.pipeline.dispatcher
    monitors = [monitor for _name, monitor in dispatcher]
    matchers = [monitor.matcher for monitor in monitors]
    totals: Dict[str, int] = {}
    for matcher in matchers:
        for key, value in matcher.counters().items():
            totals[key] = totals.get(key, 0) + value
    timings_us = sorted(
        t * 1e6 for monitor in monitors for t in monitor.terminating_timings
    ) or [0.0]
    entries = sum(
        m.history.total_size()
        + (m.negation_history.total_size()
           if m.negation_history is not None else 0)
        for m in matchers
    )
    searches = totals["searches_run"]
    offered = run.feeds[-1][1]
    return {
        "poet.batches": len(run.feeds),
        "poet.events_per_batch": offered / len(run.feeds),
        "events.stored": run.pipeline.server.num_events,
        "engine.shards": len(dispatcher),
        "engine.quarantined": len(dispatcher.quarantined),
        "engine.delivery_errors": run.pipeline.server.delivery_errors,
        "core.matcher.search_us_p50": percentile(timings_us, 0.50),
        "core.matcher.search_us_p99": percentile(timings_us, 0.99),
        "core.matcher.search_us_max": timings_us[-1],
        "core.matcher.searches": searches,
        "core.matcher.searches_truncated": totals["searches_truncated"],
        "core.matcher.forward_steps": totals["forward_steps"],
        "core.matcher.candidates_scanned": totals["candidates_scanned"],
        "core.matcher.back_jumps": totals["back_jumps"],
        "core.matcher.backtracks": totals["backtracks"],
        "core.matcher.domain_conflicts": totals["domain_conflicts"],
        "core.matcher.matches": totals["matches_found"],
        "core.matcher.window_rejections": totals["window_rejections"],
        "core.matcher.negation_vetoes": totals["negation_vetoes"],
        "core.matcher.kleene_group_events": totals["kleene_group_events"],
        "core.matcher.match_yield": (
            totals["matches_found"] / searches if searches else 0.0
        ),
        "core.gpls.index_size": sum(m.index.index_size() for m in matchers),
        "core.history.entries": entries,
        "core.subset.size": sum(len(m.subset) for m in matchers),
        "core.subset.bound_frac": max(
            len(m.subset) / (m.pattern.num_leaves * m.num_traces)
            for m in matchers
        ),
        "patterns.plans_computed": totals["plans_computed"],
    }


def _pipeline_metrics(inp: WorkloadInput, run: Run) -> Dict[str, float]:
    latency = run.latencies_us()
    detect = _detect_us(inp, run) or [0.0]
    quarters = run.quarter_cost_us()
    late = run.offer_late_us() or [0.0]
    return {
        "pipeline.cost_growth_x": quarters[3] / quarters[0],
        "pipeline.utilization": run.busy_s / run.wall_s,
        "pipeline.backlog_max_events": run.backlog_max,
        "pipeline.latency_us_p99": percentile(latency, 0.99),
        "pipeline.latency_us_max": max(latency),
        "pipeline.latency_samples": len(latency),
        "pipeline.detect_us_p90": percentile(detect, 0.90),
        "pipeline.detect_samples": len(run.matches),
        "pipeline.offer_late_us_p99": percentile(late, 0.99),
    }


def traced(workload: str, seed: int, seconds: int, rate: float,
           out_dir: Path) -> Outcome:
    """Per-layer metrics of the run's first stream: an untraced run
    (counters, overhead baseline), then a traced run of the same input."""
    inp = streams(workload, seed, seconds, rate, count=1)[0]
    offered = len(inp.events)
    expected = replay_signatures(inp)

    with GcClock() as gc_clock:
        base = drive(inp.trace_names, inp.patterns, inp.events, rate)
    failures, failed = _gate(inp, base, expected)
    values: Dict[str, float] = {
        "workloads.events": offered,
        "workloads.receive_frac": inp.receive_frac,
        "workloads.gen_s": inp.gen_s,
        "workloads.input_digest": inp.digest(),
        "python.gc_s": gc_clock.seconds,
        "python.gc_gen2": gc_clock.gen2,
    }
    values.update(_counters(base))
    values.update(_pipeline_metrics(inp, base))
    base_busy = base.busy_s
    del base
    _setups, watches = setup_times(inp.trace_names, inp.patterns)
    values["patterns.compile_s"] = median(watches)

    gc.collect()
    tracer = SpanTracer()
    run = drive(inp.trace_names, inp.patterns, inp.events, rate,
                instrument=lambda pipeline: instrument(tracer, pipeline))
    traced_failures, traced_failed = _gate(inp, run, expected)
    failures += [f"traced run: {f}" for f in traced_failures]
    failed += traced_failed

    self_s = tracer.self_times()
    for metric in set(LAYER_METRICS.values()):
        values[metric] = 0.0
    for name, spent in self_s.items():
        values[LAYER_METRICS[name]] += spent
    attributed = sum(self_s.values())
    appends = tracer.count_spans("core.history.append")
    values.update({
        "clocks.encoded_events": tracer.calls_of("clocks.encoded_events"),
        "core.history.appends": appends,
        "core.history.keep_ratio": (
            values["core.history.entries"] / appends if appends else 0.0
        ),
        "patterns.class_match_calls":
            tracer.calls_of("patterns.class_match_calls"),
        "trace.overhead_frac": run.busy_s / base_busy - 1.0,
        "trace.unattributed_frac": 1.0 - attributed / run.busy_s,
    })
    if abs(values["trace.unattributed_frac"]) > 0.05:
        failures.append(
            f"layer self times cover {attributed / run.busy_s:.1%} of the "
            "traced busy time"
        )
    if failures:
        failed = 2 * offered
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.csv.gz")

    ranked = sorted(
        ((metric, values[metric]) for metric in set(LAYER_METRICS.values())),
        key=lambda item: -item[1],
    )
    phases = ", ".join(
        f"{name} {cell[0]:.3f} s" for name, cell in tracer.phase_s.items()
    )
    notes = [
        f"{workload} seed {seed}: traced busy {run.busy_s:.3f} s vs "
        f"untraced {base_busy:.3f} s; {len(tracer.spans)} spans",
        "self time: " + ", ".join(
            f"{metric} {s / run.busy_s:.1%}" for metric, s in ranked
        ),
        f"inside core.matcher.search_s: {phases}",
    ] + [f"FAILED: {failure}" for failure in failures]
    return Outcome(values, failures, 2 * offered, failed, notes)


__all__ = ["Outcome", "streams", "traced", "untraced"]
