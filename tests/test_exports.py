"""Export lists name only what exists."""

from __future__ import annotations

import importlib
import pkgutil

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
