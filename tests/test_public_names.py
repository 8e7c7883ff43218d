"""Every public name resolves, and so does every attribute the traced
benchmark run wraps, so an API change cannot silently break either."""

import importlib
from pathlib import Path

import crystalpop

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_public_names_and_traced_boundaries_resolve(monkeypatch):
    missing = [name for name in crystalpop.__all__ if not hasattr(crystalpop, name)]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing += [
        f"{b.module}.{b.attr}" for b in tracing.BOUNDARIES
        if not hasattr(importlib.import_module(b.module), b.attr)
    ]
    assert tracing.BOUNDARIES and not missing
