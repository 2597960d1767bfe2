"""The traced benchmark run patches ccmatrix names in place; each must exist."""

import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_name_the_traced_run_patches_is_defined(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)
    bad = []
    for name, owner, attr in spans.SPANS + spans.COUNTERS:
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)  # patched on the class itself, not a base
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
        else:
            fn = getattr(owner, attr, None)
        if fn is None:
            bad.append(f"{name}: {attr} is not defined")
        elif inspect.isgeneratorfunction(fn):
            bad.append(f"{name}: {attr} is a generator function")
    assert bad == []
