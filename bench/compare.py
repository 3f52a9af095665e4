"""Noise and agreement: compare two full reports metric by metric.

A report (``python3 -m bench --out A.json``) holds, per workload and
end-to-end metric, the values of its repeats.  ``compare`` prints one row
per pairing with both medians, quartiles and the metric's bound, and a
verdict:

* ``unresolved`` — A's own min–max spread already exceeds the bound, so
  a difference of that size cannot be told from noise;
* ``better`` / ``worse`` — B's median differs from A's by more than the
  bound, in that direction;
* ``same`` — otherwise.

Each workload keeps its own row: no combined score.
"""

from __future__ import annotations

import json
from statistics import median, quantiles
from typing import Dict, Iterator, List, NamedTuple, Sequence

from .metrics import END_TO_END, EXTRA_END_TO_END, WORKLOAD_NAMES

#: ``setup_s`` is tenths of a second on most workloads; below this
#: absolute difference a relative bound would flag scheduler jitter.
SETUP_ABS_SLACK_S = 0.05
EXACT_TOL = 1e-12


def gates_for(workload: str) -> list:
    """The end-to-end metrics (name, better, bound) ``workload`` has."""
    return [*END_TO_END,
            *(m for m in EXTRA_END_TO_END if workload in m.workloads)]


def summarize(values: Sequence[float]) -> Dict[str, object]:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


class Row(NamedTuple):
    workload: str
    metric: str
    a: dict
    b: dict
    bound: float
    verdict: str


def _slack(gate, reference: float) -> float:
    if gate.bound == 0.0:
        return EXACT_TOL * max(1.0, abs(reference))
    slack = gate.bound * abs(reference)
    if gate.name == "setup_s":
        slack = max(slack, SETUP_ABS_SLACK_S)
    return slack


def verdict(gate, a: dict, b: dict) -> str:
    slack = _slack(gate, a["median"])
    if a["max"] - a["min"] > slack:
        return "unresolved"
    delta = b["median"] - a["median"]
    if abs(delta) <= slack:
        return "same"
    improved = delta < 0 if gate.better == "lower" else delta > 0
    return "better" if improved else "worse"


def compare(report_a: dict, report_b: dict) -> Iterator[Row]:
    for workload in WORKLOAD_NAMES:
        a_metrics = report_a["workloads"].get(workload, {}).get("end_to_end")
        b_metrics = report_b["workloads"].get(workload, {}).get("end_to_end")
        if not a_metrics or not b_metrics:
            continue
        for gate in gates_for(workload):
            a, b = a_metrics[gate.name], b_metrics[gate.name]
            yield Row(workload, gate.name, a, b, gate.bound,
                      verdict(gate, a, b))


def format_rows(rows: Sequence[Row]) -> str:
    head = (f"{'workload':<18} {'metric':<18} {'A median':>11} "
            f"{'A q1..q3':>21} {'B median':>11} {'B q1..q3':>21} "
            f"{'bound':>6}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r.workload:<18} {r.metric:<18} {r.a['median']:>11.5g} "
            f"{r.a['q1']:>10.5g}..{r.a['q3']:<9.5g} {r.b['median']:>11.5g} "
            f"{r.b['q1']:>10.5g}..{r.b['q3']:<9.5g} {r.bound:>6.2f}  "
            f"{r.verdict}")
    return "\n".join(lines)


def compare_files(path_a: str, path_b: str) -> List[Row]:
    with open(path_a) as fa, open(path_b) as fb:
        return list(compare(json.load(fa), json.load(fb)))
