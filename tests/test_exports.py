"""Export lists name only what exists."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import tvcbf

MODULES = ["tvcbf"] + [
    f"tvcbf.{info.name}" for info in pkgutil.iter_modules(tvcbf.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _benchmark_spans():
    """The benchmark's span table, loaded from its file in the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these names; one that a change drops
    # would fail its runs, so it fails here too
    spans = _benchmark_spans()
    missing = [
        (path, attr)
        for defs in spans.SPANS.values()
        for path, attr in defs
        if attr not in vars(spans._resolve(path))
    ]
    assert missing == []
