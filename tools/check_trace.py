"""Check an exported Chrome trace against its run's metrics summary.

Usage::

    python -m repro run --model toy3 --trace trace.json --metrics metrics.json
    python tools/check_trace.py trace.json metrics.json

The trace is parsed strictly: ``NaN`` and ``Infinity``, which Python's
``json`` reads by default but chrome://tracing and Perfetto refuse, are
an error.  It must hold one instant event per recorded event, the
summary's ``n_events``.  Exits 1 with the reason otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _refuse(constant: str):
    raise ValueError(f"not JSON: bare {constant}")


def check(trace_path: str, metrics_path: str) -> str:
    """The verdict line; raises ``ValueError`` on a failed check."""
    with open(trace_path) as f:
        doc = json.load(f, parse_constant=_refuse)
    with open(metrics_path) as f:
        n_events = json.load(f)["n_events"]
    instants = sum(1 for e in doc["traceEvents"] if e.get("ph") == "i")
    if instants != n_events:
        raise ValueError(f"{instants} instant events in {trace_path}, "
                         f"{n_events} events in {metrics_path}")
    return f"{trace_path}: strict JSON, {instants} instants = n_events"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("metrics")
    args = parser.parse_args(argv)
    try:
        print(check(args.trace, args.metrics))
    except ValueError as exc:
        print(f"check_trace: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
