"""Generate docs/api.md: a compact API reference from the package's
docstrings and signatures.

Usage::

    python tools/gen_api_reference.py [--out docs/api.md]

Kept as a checked-in tool (not a build step) so the reference can be
regenerated after API changes; `tests/test_tools.py` asserts it runs and
covers every public module.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import re
import sys
from typing import List

MODULES = [
    "repro",
    "repro.__main__",
    "repro.models",
    "repro.models.base",
    "repro.models.alexnet",
    "repro.models.inception",
    "repro.models.resnet",
    "repro.models.sockeye",
    "repro.models.toy",
    "repro.models.transformer",
    "repro.models.vgg",
    "repro.core.priority",
    "repro.placement.keyplan",
    "repro.placement.plan",
    "repro.placement.loads",
    "repro.strategies.base",
    "repro.sim.engine",
    "repro.sim.network",
    "repro.sim.cluster",
    "repro.sim.worker",
    "repro.sim.server",
    "repro.sim.aggregator",
    "repro.sim.trace",
    "repro.sim.background",
    "repro.sim.faults",
    "repro.sim.invariants",
    "repro.obs.registry",
    "repro.obs.events",
    "repro.obs.exporters",
    "repro.kvstore.store",
    "repro.kvstore.server",
    "repro.kvstore.trainer",
    "repro.training.layers",
    "repro.training.model",
    "repro.training.optim",
    "repro.training.dgc",
    "repro.training.data",
    "repro.training.parallel",
    "repro.training.zoo",
    "repro.training.im2col",
    "repro.allreduce.rings",
    "repro.allreduce.buckets",
    "repro.allreduce.sim",
    "repro.cosim.cosim",
    "repro.analysis.series",
    "repro.analysis.runner",
    "repro.analysis.warmstart",
    "repro.analysis.cache",
    "repro.analysis.bounds",
    "repro.analysis.bandwidth",
    "repro.analysis.utilization",
    "repro.analysis.scalability",
    "repro.analysis.slice_size",
    "repro.analysis.schedules",
    "repro.analysis.accuracy",
    "repro.analysis.ablations",
    "repro.analysis.robustness",
    "repro.analysis.sensitivity",
    "repro.analysis.stats",
    "repro.analysis.tails",
    "repro.analysis.report",
    "repro.analysis.storage",
    "repro.analysis.ascii_plot",
    "repro.analysis.distributions",
    "repro.analysis.calibration",
    "repro.analysis.sharding",
    "repro.analysis.tenancy",
    "repro.live.wire",
    "repro.live.transport",
    "repro.live.chaos",
    "repro.live.config",
    "repro.live.result",
    "repro.live.membership",
    "repro.live.aio.transport",
    "repro.live.aio.node",
    "repro.live.aio.server",
    "repro.live.aio.worker",
    "repro.live.aio.aggregator",
    "repro.live.aio.driver",
    "repro.tenancy.spec",
    "repro.tenancy.shaper",
    "repro.tenancy.scheduler",
    "repro.tenancy.sim",
    "repro.tenancy.live",
    "repro.cli",
]


def _first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n", 1)[0]


def _signature(obj) -> str:
    try:
        # typing.NamedTuple keeps postponed annotations as ForwardRefs.
        return re.sub(r"ForwardRef\(('[^']*')\)", r"\1",
                      str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def document_module(name: str) -> List[str]:
    mod = importlib.import_module(name)
    lines = [f"## `{name}`", "", _first_line(mod), ""]
    members = []
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # only locally defined symbols
        if inspect.isclass(obj):
            members.append(f"- **class `{attr}{_signature(obj)}`** — {_first_line(obj)}")
            for mname, meth in sorted(vars(obj).items()):
                if mname.startswith("_") or not callable(meth):
                    continue
                members.append(f"    - `.{mname}{_signature(meth)}` — "
                               f"{_first_line(meth)}")
        elif inspect.isfunction(obj):
            members.append(f"- `{attr}{_signature(obj)}` — {_first_line(obj)}")
    if members:
        lines += members + [""]
    return lines


def generate() -> str:
    out = ["# API reference", "",
           "Generated by `tools/gen_api_reference.py`; regenerate after "
           "API changes.", ""]
    for name in MODULES:
        out += document_module(name)
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="docs/api.md")
    args = parser.parse_args(argv)
    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate())
    print(f"wrote {path} ({len(path.read_text().splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
