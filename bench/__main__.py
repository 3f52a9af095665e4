"""Command line of the benchmark (``python3 -m bench``, from the repo root).

Two ways to run it:

* ``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
  in this process and prints its metrics, the last line being one JSON
  object (``correct``, ``attempted``, ``failed``, ``metrics``);
* without ``--workload`` every workload runs ``--repeats`` times, each in
  a fresh interpreter, and the report holds the median over repeats with
  quartiles, min/max and the sample count.  ``--trace`` adds one traced
  run per workload and prints the layer metrics and ``trace_overhead_x``.

``--write-expected`` regenerates the committed output oracle,
``--compare A.json B.json`` judges two reports, ``--selfcheck`` runs two
full sets of the same code and fails unless every pairing is ``same``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median
from typing import Dict, List, Optional

from . import OUT_DIR, ROOT, SRC


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python3 -m bench",
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run only this workload, in-process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="repeat the batch job while another repetition "
                        "fits (default 0: exactly one repetition)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="1: the traced run (layer metrics)")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-sized inputs, for the tests")
    p.add_argument("--repeats", type=int, default=3,
                   help="fresh-interpreter runs per workload (all-workload "
                        "mode)")
    p.add_argument("--out", help="write the full result document here")
    p.add_argument("--write-expected", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--selfcheck", action="store_true")
    return p


# ----------------------------------------------------------------------
# One workload, this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    from . import harness
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = harness.load_expected()
    if args.trace:
        doc = harness.run_traced(workload, args.seed, args.scale, expected)
    else:
        doc = harness.run_untraced(workload, args.seed, args.seconds,
                                   args.scale, expected)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f)
    harness.print_metrics(doc)
    print(harness.result_line(doc))
    return 0


# ----------------------------------------------------------------------
# Every workload, fresh interpreters
# ----------------------------------------------------------------------
def _child(workload: str, args, trace: int, index: int) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"run-{workload}-{trace}-{index}.json"
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--scale", args.scale, "--out", str(path)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run exited with {done.returncode}")
    with open(path) as f:
        doc = json.load(f)
    path.unlink()
    return doc


def _environment() -> Dict[str, object]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0))}


def run_all(args) -> dict:
    from .compare import summarize
    from .metrics import WORKLOAD_NAMES

    report = {"environment": _environment(), "seed": args.seed,
              "repeats": args.repeats, "seconds": args.seconds,
              "scale": args.scale, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        runs = [_child(workload, args, 0, i) for i in range(args.repeats)]
        values: Dict[str, List[float]] = {}
        for doc in runs:
            for name, value in {**doc["metrics"], **doc["extra"]}.items():
                values.setdefault(name, []).append(value)
        entry = {
            "attempted": sum(d["attempted"] for d in runs),
            "failed": sum(d["failed"] for d in runs),
            "failed_ops": sorted({n for d in runs for n in d["failed_ops"]}),
            "end_to_end": {n: summarize(v) for n, v in values.items()},
        }
        if args.trace:
            traced = _child(workload, args, 1, 0)
            entry["layers"] = traced["metrics"]
            entry["trace_file"] = traced["trace_file"]
            entry["trace_overhead_x"] = \
                traced["spans_wall_s"] / _measured_s(runs)
            entry["failed"] += traced["failed"]
        report["workloads"][workload] = entry
        _print_entry(workload, entry)
    return report


def _measured_s(runs: List[dict]) -> float:
    """Median wall of one whole repetition (its set-up included, the
    imports not), the untraced counterpart of the traced run's root
    span."""
    return median(w + s for d in runs
                  for w, s in zip(d["samples"]["wall_s"],
                                  d["samples"]["setup_s"]))


def _print_entry(workload: str, entry: dict) -> None:
    from .harness import units

    unit = units()
    print(f"\n== {workload}: {entry['attempted']} ops attempted, "
          f"{entry['failed']} failed")
    for name, s in entry["end_to_end"].items():
        print(f"  {name:<20} {s['median']:>14.6g} {unit[name]:<6} "
              f"(min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']})")
    for name in entry["failed_ops"]:
        print(f"  FAILED op: {name}")
    if "layers" in entry:
        print(f"  trace_overhead_x     {entry['trace_overhead_x']:>14.4g} x"
              f"      (spans-on repetition / untraced repetition)")
        for name, value in entry["layers"].items():
            if value != 0.0:
                print(f"  {name:<36} {value:>14.6g} {unit[name]}")
    sys.stdout.flush()


def write_report(report: dict, path: Optional[str]) -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = path or str(OUT_DIR / "report.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    return path


# ----------------------------------------------------------------------
def write_expected() -> int:
    from . import harness
    from .workloads import WORKLOADS

    expected = {
        scale: {name: w.reference(0, scale) for name, w in WORKLOADS.items()}
        for scale in ("full", "tiny")}
    with open(harness.EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {harness.EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from .compare import compare_files, format_rows

        rows = compare_files(*args.compare)
        print(format_rows(rows))
        return 1 if any(r.verdict == "worse" for r in rows) else 0
    if not (SRC / "repro").is_dir():
        print(f"bench: {SRC / 'repro'} not found — run from a checkout of "
              "the repository; the benchmark measures its sources",
              file=sys.stderr)
        return 2
    # Before anything imports numpy: one thread per numeric library.
    from .harness import THREAD_ENV
    os.environ.update(THREAD_ENV)
    if args.write_expected:
        return write_expected()
    if args.workload:
        return run_one(args)
    if args.selfcheck:
        from .compare import compare, format_rows

        first, second = run_all(args), run_all(args)
        rows = list(compare(first, second))
        print("\n" + format_rows(rows))
        failed = total_failed(first) + total_failed(second)
        return 0 if (all(r.verdict == "same" for r in rows)
                     and not failed) else 1
    report = run_all(args)
    print(f"\nreport: {write_report(report, args.out)}")
    return 1 if total_failed(report) else 0


def total_failed(report: dict) -> int:
    return sum(entry["failed"] for entry in report["workloads"].values())


if __name__ == "__main__":
    sys.exit(main())
