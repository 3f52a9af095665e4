"""Tests for repository tooling (docs generator)."""

from __future__ import annotations

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "gen_api_reference", TOOLS / "gen_api_reference.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_listed_module_documents():
    gen = _load_gen()
    for name in gen.MODULES:
        lines = gen.document_module(name)
        assert lines[0] == f"## `{name}`"


def test_module_list_covers_all_source_modules():
    """Every non-underscore module under src/repro must be listed (so
    the reference cannot silently rot)."""
    gen = _load_gen()
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    found = set()
    for path in src.rglob("*.py"):
        rel = path.relative_to(src.parent)
        if rel.name == "__init__.py":
            continue
        found.add(".".join(rel.with_suffix("").parts))
    missing = found - set(gen.MODULES)
    assert not missing, f"add to tools/gen_api_reference.py MODULES: {missing}"


def test_generate_produces_markdown(tmp_path):
    gen = _load_gen()
    text = gen.generate()
    assert text.startswith("# API reference")
    assert "## `repro.sim.cluster`" in text
    assert "ClusterConfig" in text


def test_committed_reference_is_fresh():
    """docs/api.md is what the generator produces from this source tree
    (regenerate with ``python tools/gen_api_reference.py``)."""
    assert (TOOLS.parent / "docs" / "api.md").read_text() == _load_gen().generate()


def test_main_writes_file(tmp_path):
    gen = _load_gen()
    out = tmp_path / "api.md"
    assert gen.main(["--out", str(out)]) == 0
    assert out.exists()
