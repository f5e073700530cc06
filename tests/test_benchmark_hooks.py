"""The benchmark in ``perfbench/`` wraps evpose functions by name; each one
it wraps must exist, so that removing or renaming one fails here too. A
smoke run of every workload checks that the benchmark still runs and that
its output checks pass."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"


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


def test_benchmark_smoke_run_passes(tmp_path):
    cmd = [sys.executable, str(PERFBENCH / "run.py"), "--workload", "all", "--seed", "3",
           "--seconds", "0.3", "--trace", "0", "--smoke"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    run = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
