"""End-to-end, layer-attributed benchmark of the P3 reproduction.

Run from the repository root::

    python3 -m bench                       # every workload, medians over repeats
    python3 -m bench --trace               # + one traced run per workload
    python3 -m bench --workload fig7_sweep --seed 0 --seconds 10 --trace 0

Everything is measured from outside ``src/``: by timing calls into
public functions, reading public result objects, and — in the separate
traced run — a stdlib profiler around the same calls.  ``README.md`` in
this directory has the metric glossary and the layer map.
"""

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The harness imports ``repro`` straight from the checkout, never from
# an installed copy: the numbers must describe these sources.
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
