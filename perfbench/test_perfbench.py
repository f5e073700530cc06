"""Tests of the benchmark itself, on the smoke sizes (toy model, 8x8 sensor).

    python3 -m pytest perfbench -q

They fail when an evpose API the benchmark times is renamed or removed, so
such a change has to update the benchmark in the same commit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from evpose import model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--seed", "3", "--seconds", "0.3", "--smoke", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench("--workload", workload, "--trace", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = run_bench("--workload", workload, "--trace", "1")
    result = result_of(proc)
    assert result["correct"] is True
    values = {name: v["value"] for name, v in result["metrics"].items()}
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    assert "tracing overhead" in proc.stdout
    assert values["events.parse_events_s"] > 0 and values["events.retained_bytes_per_event"] > 0
    assert values["event_image.image_from_window_s"] > 0
    ops = sum(values[f"autodiff.ops.{k}"] for k in layers.OP_KINDS)
    assert values["autodiff.ops_per_step"] == ops
    if workload == "train":
        assert ops > 0 and values["autodiff.backward_ms"] > 0 and values["pipeline.step_ms_p50"] > 0
        assert values["pipeline.epoch_s"] > 0
    if workload == "infer":
        assert values["model.predict_ms"] > 0 and values["evaluation.evaluate_s"] > 0
        assert values["autodiff.backward_ms"] == 0  # forward only
        assert values["pipeline.checkpoint_bytes"] > 0
    if workload == "ingest":
        assert ops == 0


def test_one_command_runs_every_workload():
    result = result_of(run_bench("--workload", "all", "--trace", "0"))
    assert result["correct"] is True and result["failed"] == 0
    for w in SPEC["workloads"]:
        assert result["metrics"][f"{w['name']}.throughput_per_s"]["value"] > 0


def test_missing_public_function_fails_loudly(monkeypatch):
    monkeypatch.delattr(model, "cnn_forward")
    tracer = layers.Tracer()
    with pytest.raises(layers.MissingLayerError, match=r"evpose\.model\.cnn_forward"):
        tracer.install()
    assert not hasattr(model.predict, "__wrapped__")  # nothing half-installed


def test_uninstall_restores_every_function():
    before = {(mod, attr): getattr(__import__(f"evpose.{mod}", fromlist=[attr]), attr)
              for mod, attr, _ in layers.WRAPPED}
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    for (mod, attr), fn in before.items():
        assert getattr(__import__(f"evpose.{mod}", fromlist=[attr]), attr) is fn


def test_layer_map_covers_every_per_layer_metric():
    rows = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    for m in SPEC["per_layer"]:
        matches = [r["layer"] for r in rows if any(fnmatch(m["name"], pat) for pat in r["metrics"])]
        assert len(matches) == 1, (m["name"], matches)


def test_ingest_check_catches_a_wrong_image(tmp_path):
    ingest = workloads.Ingest(3, workloads.SMOKE, tmp_path)
    ingest.setup()
    tally = workloads.Tally()
    good = ingest.run_pass(tally)
    assert all(c.ok for c in ingest.checks([good]))
    k, (pixels, label_t) = next(iter(good.samples.items()))
    flipped = pixels.copy()
    flipped[0, 0] = 1.0 if flipped[0, 0] != 1.0 else 0.0
    good.samples[k] = (flipped, label_t)
    failed = [c.name for c in ingest.checks([good]) if not c.ok]
    assert failed == ["sampled windows match the independent painter"]


def test_train_check_catches_a_rising_loss(tmp_path):
    train = workloads.Train(3, workloads.SMOKE, tmp_path)
    train.setup()
    result = train.run_pass(workloads.Tally())
    assert all(c.ok for c in train.checks([result]))
    result.loss_history.reverse()
    assert not all(c.ok for c in train.checks([result]))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "ingest", "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
