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
    "repro.analysis.sweep",
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
    "repro.analysis.claims",
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
        sig = re.sub(r"ForwardRef\(('[^']*')\)", r"\1",
                     str(inspect.signature(obj)))
        # A function-valued default prints with its address.
        return re.sub(r"<function (\w+) at 0x[0-9a-f]+>", r"\1", sig)
    except (TypeError, ValueError):
        return "(...)"


def _sweep_row(attr: str, sweep) -> str:
    """A figure that is a row of ``repro.analysis.sweep.Sweep``: it has
    no signature or docstring of its own, so list what the row says."""
    grid = f"default grid `{tuple(sweep.grid)}`"
    if sweep.model_grids:
        grid += f" (own grids for {', '.join(sweep.model_grids)})"
    return (f"- `{attr}` — `Sweep` row `{sweep.figure_id}`: "
            f"{', '.join(s.name for s in sweep.strategies())} × "
            f"{sweep.x_label}, {grid}, default model `{sweep.model}`.  "
            f"{sweep.doc}")


def document_module(name: str) -> List[str]:
    from repro.analysis.sweep import Sweep

    mod = importlib.import_module(name)
    lines = [f"## `{name}`", "", _first_line(mod), ""]
    members = []
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if isinstance(obj, Sweep):
            # An instance carries its class's module; it is local to the
            # module whose source assigns it.
            if re.search(rf"^{attr} = ", inspect.getsource(mod), re.M):
                members.append(_sweep_row(attr, obj))
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # only locally defined symbols
        if inspect.isclass(obj):
            members.append(f"- **class `{attr}{_signature(obj)}`** — {_first_line(obj)}")
            for mname, meth in sorted(vars(obj).items()):
                if mname in getattr(obj, "__dataclass_fields__", ()):
                    continue  # a field whose default happens to be callable
                if not callable(meth) or (mname.startswith("_") and not (
                        mname == "__call__" and meth.__doc__)):
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
