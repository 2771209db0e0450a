"""Open-loop, layer-by-layer benchmark of the OCEP streaming pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload negation-absence --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` makes one untraced run and prints the end-to-end metrics;
``--trace 1`` makes an untraced run (for counters and the overhead
baseline) and then a traced run, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names,
units and each workload's offered rate come from ``BENCHMARK.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RATE = re.compile(r"at ([0-9][0-9,]*) ev/s")


def load_spec() -> dict:
    """``BENCHMARK.json`` with each workload's offered rate parsed from
    its ``why`` (the rate is written there once, never measured)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        found = RATE.search(workload["why"])
        if found is None:
            raise ValueError(f"no 'at N ev/s' rate in {workload['name']}")
        workload["rate"] = float(found.group(1).replace(",", ""))
    return spec


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print("benchmark: imported repro from outside the checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("benchmark: --seconds must be >= 1", file=sys.stderr)
        return 2

    import report

    rate = workloads[args.workload]["rate"]
    if args.trace:
        outcome = report.traced(args.workload, args.seed, args.seconds, rate,
                                ROOT / "perfbench" / "out")
        wanted = spec["per_layer"]
    else:
        outcome = report.untraced(args.workload, args.seed, args.seconds,
                                  rate)
        wanted = spec["end_to_end"]

    for line in outcome.notes:
        print(line)
    missing = [m["name"] for m in wanted if m["name"] not in outcome.values]
    if missing:
        print(f"benchmark: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
