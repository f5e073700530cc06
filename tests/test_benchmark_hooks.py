"""The benchmark in ``perfbench/`` wraps evpose functions by name; each one
it wraps must exist, so that removing or renaming one fails here too."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_wrapped_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"evpose.{module}.{attr}"
        for module, attr, _ in layers.WRAPPED
        if not callable(getattr(importlib.import_module(f"evpose.{module}"), attr, None))
    ]
    assert layers.WRAPPED and not missing
