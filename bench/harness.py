"""Run one workload in this process: timing, oracle, output document.

The untraced run repeats the workload's batch job while another
repetition still fits in ``--seconds`` and reports the **fastest**
repetition — tracing off, nothing recorded but four clock reads per
repetition.  The traced run is separate: one repetition with spans on,
then the workload's profile/flag/probe passes; end-to-end numbers never
come from it.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional, Sequence

from . import BENCH_DIR, OUT_DIR, SRC
from .metrics import END_TO_END, EXTRA_END_TO_END, LAYER_NAMES, LAYERS
from .spans import NULL_TRACER, Tracer
from .workloads import Clock, Op, Result, Workload

EXPECTED_PATH = BENCH_DIR / "expected.json"

#: One thread per numeric library: a spinning BLAS pool doubles CPU time
#: on the 2-core box without moving wall time.  Set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def expected_entry(expected: Optional[dict], workload: str, seed: int,
                   scale: str) -> Optional[dict]:
    """The committed outputs apply at seed 0 only; other seeds rely on
    the identities each workload computes on the fly."""
    if expected is None or seed != 0:
        return None
    return expected.get(scale, {}).get(workload)


def judge(workload: Workload, ops: Sequence[Op],
          entry: Optional[dict]) -> List[Op]:
    """Apply the committed oracle: an op whose value misses it fails, and
    so does an expected op the run no longer produced."""
    if entry is None:
        return list(ops)
    judged = []
    seen = set()
    for op in ops:
        seen.add(op.name)
        if (op.value is not None and op.name in entry
                and not workload.matches(entry[op.name], op.value)):
            op = op._replace(failed=op.count)
        judged.append(op)
    judged += [Op(name, 1, 1) for name in entry if name not in seen]
    return judged


# ----------------------------------------------------------------------
# Set-up time: the imports
# ----------------------------------------------------------------------
def _import_in_child(modules: Sequence[str]) -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         check=True, capture_output=True, text=True,
                         env=dict(os.environ, **THREAD_ENV), timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def import_seconds(modules: Sequence[str]) -> float:
    """Median time to import the workload's modules, over two fresh
    interpreters and this one.  The first child also leaves the ``.pyc``
    files behind, so a fresh checkout's compile cost lands in at most
    one of the three samples."""
    samples = [_import_in_child(modules), _import_in_child(modules)]
    t0 = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    samples.append(time.perf_counter() - t0)
    return median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stolen_seconds() -> float:
    """CPU seconds the hypervisor gave to other guests since boot, summed
    over this guest's CPUs (0 where the host does not report it).  A
    diagnostic printed beside the metrics, never subtracted from them:
    on the shared box it is what a run that reads 1.5-2x slow shows."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def run_untraced(workload: Workload, seed: int, seconds: float, scale: str,
                 expected: Optional[dict]) -> dict:
    entry = expected_entry(expected, workload.name, seed, scale)
    import_s = import_seconds(workload.imports)
    clocks: List[Clock] = []
    ops: List[Op] = []
    extras: Dict[str, List[float]] = {}
    # A timed run has at least two repetitions, however slow the box:
    # one alone cannot tell a disturbed repetition from a slow program.
    min_repetitions = 2 if seconds > 0 else 1
    started, stolen = time.perf_counter(), stolen_seconds()
    while True:
        clock = Clock()
        result = workload.rep(seed, scale, clock, NULL_TRACER)
        if not clocks:
            # How many repetitions fit varies with the box's speed and
            # the heap grows a little with each, so peak memory is the
            # first repetition's: what one job needs.
            rss_mb = peak_rss_mb()
        clocks.append(clock)
        ops += judge(workload, result.ops, entry)
        for name, value in result.extras.items():
            extras.setdefault(name, []).append(value)
        elapsed = time.perf_counter() - started
        if len(clocks) >= min_repetitions \
                and elapsed + elapsed / len(clocks) > seconds:
            break
    stolen_pct = 100.0 * (stolen_seconds() - stolen) / elapsed
    attempted = sum(op.count for op in ops)
    failed = sum(op.failed for op in ops)
    # The fastest repetition: what disturbs one on a shared box (other
    # guests' work, cold caches after a stall) only ever adds time, and
    # on recorded series the minimum of two or three repeats run to run
    # within 1-4 % where their median repeats no better than one alone.
    metrics = {
        "wall_s": min(c.wall_s for c in clocks),
        "cpu_s": min(c.cpu_s for c in clocks),
        "setup_s": import_s + min(c.setup_s for c in clocks),
        "peak_rss_mb": rss_mb,
    }
    extra = {name: median(values) for name, values in extras.items()}
    extra["failed_share"] = failed / attempted
    return {
        "workload": workload.name, "seed": seed, "scale": scale, "trace": 0,
        "repetitions": len(clocks), "host_steal_pct": stolen_pct,
        "attempted": attempted, "failed": failed,
        "failed_ops": sorted({op.name for op in ops if op.failed}),
        "metrics": metrics, "extra": extra,
        # Per repetition; ``setup_s`` here is without the imports.
        "import_s": import_s,
        "samples": {"wall_s": [c.wall_s for c in clocks],
                    "cpu_s": [c.cpu_s for c in clocks],
                    "setup_s": [c.setup_s for c in clocks]},
    }


def run_traced(workload: Workload, seed: int, scale: str,
               expected: Optional[dict]) -> dict:
    entry = expected_entry(expected, workload.name, seed, scale)
    for module in workload.imports:
        importlib.import_module(module)
    tracer = Tracer(workload.name)
    started = time.perf_counter()
    with tracer.span(workload.name, seed=seed, scale=scale):
        result: Result = workload.rep(seed, scale, Clock(), tracer)
    ops = judge(workload, result.ops, entry)
    metrics = dict.fromkeys(LAYER_NAMES, 0.0)
    owned = workload.layers(seed, scale, tracer, result, entry)
    unknown = set(owned) - set(LAYER_NAMES)
    if unknown:
        raise KeyError(f"{workload.name} emitted undeclared layer metrics "
                       f"{sorted(unknown)}")
    metrics.update({name: float(value) for name, value in owned.items()})
    metrics["trace.spans"] = float(len(tracer.spans))
    metrics["trace.wall_s"] = time.perf_counter() - started
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}.json"
    with open(trace_path, "w") as f:
        json.dump(tracer.to_doc(), f)
    return {
        "workload": workload.name, "seed": seed, "scale": scale, "trace": 1,
        "attempted": sum(op.count for op in ops),
        "failed": sum(op.failed for op in ops),
        "failed_ops": sorted({op.name for op in ops if op.failed}),
        "metrics": metrics, "owned": sorted(owned),
        "spans_wall_s": tracer.spans[0].duration,
        "trace_file": str(trace_path),
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def units() -> Dict[str, str]:
    table = {m.name: m.unit for m in END_TO_END}
    table.update({m.name: m.unit for m in EXTRA_END_TO_END})
    table.update({m.name: m.unit for m in LAYERS})
    return table


def result_line(doc: dict) -> str:
    """The last line of a single-workload run, in the driver's format."""
    unit = units()
    return json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in doc["metrics"].items()},
    })


def print_metrics(doc: dict) -> None:
    unit = units()
    rows = dict(doc["metrics"])
    rows.update(doc.get("extra", {}))
    width = max(len(name) for name in rows)
    kind = "traced" if doc["trace"] else "untraced"
    print(f"# {doc['workload']} ({kind}, seed {doc['seed']}, "
          f"scale {doc['scale']}): {doc['attempted']} ops attempted, "
          f"{doc['failed']} failed")
    if not doc["trace"]:
        print(f"# {doc['repetitions']} repetitions; the hypervisor took "
              f"{doc['host_steal_pct']:.1f} % of one CPU meanwhile")
    for name, value in rows.items():
        if doc["trace"] and value == 0.0:
            continue  # a layer this workload does not run
        print(f"{name:<{width}}  {value:>16.6g}  {unit[name]}")
    for name in doc["failed_ops"]:
        print(f"FAILED op: {name}")
