"""Content-addressed on-disk cache for simulation results.

Sweeps over (model, bandwidth, strategy, slice size, seed) grids
re-simulate the same configurations over and over — across figure
drivers (the robustness sweep's clean runs are fig7 points), across
report regenerations, and across CLI invocations.  Because the
simulator is deterministic, a grid point's result is a pure function of
its configuration *and the simulator's code*, so it can be cached on
disk and replayed bit-identically.

Keys are ``sha256(canonical-JSON(point) + code_salt)``:

* the *point document* is the fully-serialized simulation request
  (model name, strategy fields, cluster config including fault plans,
  iteration counts) with sorted keys and no whitespace, so logically
  equal configurations hash equally regardless of construction order;
* the *code salt* hashes the source bytes of every package the
  simulated numbers depend on (``repro.sim`` and everything it and the
  key planner import: ``repro.core``, ``repro.models``,
  ``repro.strategies``, ``repro.placement``, ``repro.obs``).  Any
  source edit — even a
  perf refactor that should not change results — invalidates every
  entry, so a stale cache can never mask a behaviour change.

Values are the JSON result documents of
:class:`repro.analysis.runner.PointResult`.  Floats round-trip through
JSON via ``repr`` (shortest exact representation), so a cache hit
reproduces the miss bit for bit.

Entries are written atomically (temp file + ``os.replace``) so a
killed sweep never leaves a truncated entry, and concurrent writers of
the same key simply race to an identical file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subpackages of ``repro`` whose source participates in the code salt —
#: everything a simulated number can depend on: the simulator and every
#: package it, the strategies and the key planner import.  Analysis/
#: reporting code is deliberately excluded: it only *arranges* results.
#: The glob picks up every module in these packages, so new engine
#: modules are covered automatically.
SALT_PACKAGES = ("sim", "core", "models", "strategies", "placement", "obs")

#: Individual analysis modules that *do* influence cached numbers:
#: the grid executor and the warm-start extrapolator compute the result
#: documents themselves (the warm namespace stores extrapolations), so
#: their source is salted too.
SALT_MODULES = ("analysis/runner.py", "analysis/warmstart.py")

_salt_cache: Optional[str] = None


def code_salt() -> str:
    """Hex digest over the simulator's source tree (memoized per process)."""
    global _salt_cache
    if _salt_cache is None:
        import repro

        root = Path(repro.__file__).parent
        h = hashlib.sha256()
        for package in SALT_PACKAGES:
            for path in sorted((root / package).glob("*.py")):
                h.update(path.name.encode())
                h.update(b"\0")
                h.update(path.read_bytes())
                h.update(b"\0")
        for module in SALT_MODULES:
            path = root / module
            h.update(module.encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _salt_cache = h.hexdigest()
    return _salt_cache


def canonical_json(doc: dict) -> str:
    """Deterministic serialization: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class SimCache:
    """Directory-backed result cache keyed by configuration + code salt.

    Usage::

        cache = SimCache()                 # .repro-cache / $REPRO_CACHE_DIR
        fig = fig7_bandwidth_sweep("vgg19", cache=cache)
        print(cache.stats())               # {'hits': ..., 'misses': ...}

    The layout is ``<root>/<salt[:12]>/<key[:2]>/<key>.json``: bumping
    the code salt starts a fresh subtree instead of mixing entries from
    different simulator versions, and the two-hex fanout keeps
    directories small on big sweeps.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 salt: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.salt = salt if salt is not None else code_salt()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key(self, doc: dict) -> str:
        """Content hash of a point document under the current salt."""
        h = hashlib.sha256()
        h.update(canonical_json(doc).encode())
        h.update(b"\0")
        h.update(self.salt.encode())
        return h.hexdigest()

    def path_for(self, doc: dict) -> Path:
        key = self.key(doc)
        return self.root / self.salt[:12] / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, doc: dict) -> Optional[dict]:
        """Cached result document for ``doc``, or None on a miss.

        Unreadable/corrupt entries (killed writer on a non-POSIX
        filesystem, manual tampering) count as misses and are
        overwritten by the subsequent :meth:`put`.
        """
        try:
            with open(self.path_for(doc)) as f:
                result = json.load(f)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, doc: dict, result: dict) -> Path:
        """Store ``result`` for ``doc`` (atomic rename; last writer wins)."""
        path = self.path_for(doc)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(result, f)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimCache(root={str(self.root)!r}, salt={self.salt[:12]}, "
                f"hits={self.hits}, misses={self.misses})")
