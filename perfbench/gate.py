"""Correctness gate, run on every run outside the timed region.

A run is correct only when all of these hold:

* an evenly spaced sample of each shard's reports passes
  :func:`repro.core.oracle.verify_match` against the full input;
* the covered ``(leaf, trace)`` slots equal the generator's ground
  truth, for the shards that have one;
* each shard's representative-subset signature equals that of a
  one-shot :meth:`Pipeline.replay` of the same input.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.oracle import verify_match
from repro.engine.pipeline import Pipeline

#: Reports verified against the oracle per shard.
VERIFY_SAMPLE = 6


def replay_signatures(inp) -> Dict[str, tuple]:
    """Per-shard signatures of a one-shot replay of the input."""
    pipeline = Pipeline.replay(inp.events, inp.trace_names)
    for name, source in inp.patterns.items():
        pipeline.watch(name, source)
    return pipeline.run().signatures()


def _evenly_spaced(items: List, count: int) -> List:
    if len(items) <= count:
        return list(items)
    step = (len(items) - 1) / (count - 1)
    return [items[round(k * step)] for k in range(count)]


def check(inp, dispatcher, expected_signatures: Dict[str, tuple]) -> List[str]:
    """Failures of one run's output (empty when correct)."""
    failures: List[str] = []
    for name, monitor in dispatcher:
        for report in _evenly_spaced(monitor.reports, VERIFY_SAMPLE):
            if not verify_match(monitor.pattern, report.as_dict(), inp.events):
                failures.append(
                    f"{name}: oracle rejects the match triggered by "
                    f"{report.trigger_event.event_id}"
                )
        expected = inp.expected_slots.get(name)
        if expected is not None and monitor.subset.covered_slots != expected:
            failures.append(
                f"{name}: covered slots differ from ground truth "
                f"({len(monitor.subset.covered_slots)} vs {len(expected)})"
            )
    signatures = dispatcher.signatures()
    for name, expected in expected_signatures.items():
        if signatures.get(name) != expected:
            failures.append(f"{name}: signature differs from the replay")
    if set(signatures) != set(expected_signatures):
        failures.append("shard sets of the run and the replay differ")
    return failures


__all__ = ["VERIFY_SAMPLE", "check", "replay_signatures"]
