"""Span tracing around evpose's public functions, and the per-layer metrics.

Spans are recorded from outside the library: ``Tracer.install`` replaces each
public function in ``WRAPPED`` with a timing wrapper in the module namespace
where its callers look it up (``model`` calls ``ad.conv2d``, ``pipeline`` and
``evaluation`` call their own bound ``image_from_window``), and ``uninstall``
puts the originals back. A span records its name, start, end, parent span and
the step or window it belongs to. A layer's self time is its span minus the
time its child spans cover.
"""

from __future__ import annotations

import csv
import gzip
import importlib
from pathlib import Path
from time import perf_counter

import numpy as np

# Autodiff ops whose per-step call counts and times are layer metrics. A
# training step (forward + loss) calls 455 of them on the desk model.
OP_KINDS = (
    "add", "sub", "mul", "matmul", "linear_pair", "conv2d", "maxpool2d",
    "sigmoid", "tanh", "relu", "reshape", "slice_along", "l2norm", "dropout",
)

# (module, attribute, span name): every place a caller looks a traced
# function up. Several entries share a span name when modules hold their
# own reference to one function.
WRAPPED = (
    ("events", "parse_events", "events.parse_events"),
    ("events", "parse_poses", "events.parse_poses"),
    ("events", "window_events", "events.window_events"),
    ("event_image", "image_from_window", "event_image.image_from_window"),
    ("pipeline", "image_from_window", "event_image.image_from_window"),
    ("evaluation", "image_from_window", "event_image.image_from_window"),
    ("event_image", "select_fraction", "event_image.select_fraction"),
    ("event_image", "build_image", "event_image.build_image"),
    ("model", "forward", "model.forward"),
    ("model", "cnn_forward", "model.cnn_forward"),
    ("model", "reshape_features", "model.reshape_features"),
    ("model", "stacked_lstm_forward", "model.stacked_lstm_forward"),
    ("model", "pose_head", "model.pose_head"),
    ("model", "pose_loss", "model.pose_loss"),
    ("model", "predict", "model.predict"),
    ("autodiff", "backward", "autodiff.backward"),
    ("autodiff", "sgd_step", "autodiff.sgd_step"),
    *(("autodiff", kind, f"autodiff.{kind}") for kind in OP_KINDS),
    ("pipeline", "train", "pipeline.train"),
    ("pipeline", "save_checkpoint", "pipeline.save_checkpoint"),
    ("pipeline", "load_checkpoint", "pipeline.load_checkpoint"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "robustness_experiment", "evaluation.robustness_experiment"),
    ("evaluation", "position_error", "evaluation.position_error"),
    ("evaluation", "orientation_error", "evaluation.orientation_error"),
    ("evaluation", "summarize", "evaluation.summarize"),
)

# A span of one of these, outside any other, starts a new step or window id;
# the spans that follow (loss, backward, SGD) keep it until the next one.
OPENERS = frozenset({"model.forward", "model.predict", "event_image.image_from_window"})

METRIC_FUNCTIONS = ("evaluation.position_error", "evaluation.orientation_error", "evaluation.summarize")


class MissingLayerError(RuntimeError):
    """A traced public function no longer exists, so its layer metric cannot be measured."""


class Tracer:
    """Records spans in memory while installed; analysed and written out at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self._stack: list[int] = []
        self._unit = -1
        self._next_unit = -1
        self._open_openers = 0
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every function in ``WRAPPED``; raise MissingLayerError if one is gone."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        targets = []
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(f"evpose.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise MissingLayerError(
                    f"evpose.{module_name}.{attr} is missing; the {span} layer metrics "
                    "cannot be measured (update perfbench/layers.py)"
                )
            targets.append((module, attr, fn, span))
        for module, attr, fn, span in targets:
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        opener = name in OPENERS
        names, starts, ends, parents, units, stack = (
            self.names, self.starts, self.ends, self.parents, self.units, self._stack
        )

        def traced(*args, **kwargs):
            if opener:
                if self._open_openers == 0:
                    self._next_unit += 1
                    self._unit = self._next_unit
                self._open_openers += 1
            elif not stack:
                self._unit = -1  # a top-level span belongs to no step or window
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            units.append(self._unit)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if opener:
                    self._open_openers -= 1

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: id, name, start_s, end_s, parent, unit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            out = csv.writer(f)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "unit"])
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents, self.units)):
                out.writerow([i, *row])


class SpanTable:
    """Per-name totals of a tracer's spans: calls, inclusive and self seconds."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.names)
        dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
        parents = np.asarray(tracer.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n) if n else dur
        self_time = dur - child
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_total: dict[str, float] = {}
        for name, d, s in zip(tracer.names, dur.tolist(), self_time.tolist()):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + d
            self.self_total[name] = self.self_total.get(name, 0.0) + s
        self.steps = _training_steps(tracer)

    def per_call(self, name: str) -> float:
        """Mean inclusive seconds of one call; 0 when the workload never called it."""
        calls = self.calls.get(name, 0)
        return self.total[name] / calls if calls else 0.0

    def rate(self, name: str, items: float) -> float:
        total = self.total.get(name, 0.0)
        return items / total if total else 0.0

    def rows(self):
        """(name, calls, inclusive s, self s), largest self time first."""
        return sorted(
            ((n, self.calls[n], self.total[n], self.self_total[n]) for n in self.calls),
            key=lambda r: -r[3],
        )


def _training_steps(tracer: Tracer) -> list[tuple[float, float]]:
    """(start, end) of each training step, in order.

    A step opens with a ``model.forward`` called directly by ``pipeline.train``
    and ends with the last call ``pipeline.train`` makes under the same step
    id (the SGD step).
    """
    names, parents, units = tracer.names, tracer.parents, tracer.units
    steps: dict[int, list] = {}  # step id -> [start, end, train span]
    for i, name in enumerate(names):
        unit, parent = units[i], parents[i]
        if name == "model.forward" and parent >= 0 and names[parent] == "pipeline.train":
            steps[unit] = [tracer.starts[i], tracer.ends[i], parent]
        elif unit in steps and parent == steps[unit][2]:
            steps[unit][1] = tracer.ends[i]
    return [(start, end) for start, end, _ in steps.values()]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def layer_metrics(table: SpanTable, *, steps_per_epoch: int, events_per_parse: int,
                  checkpoint_bytes: int, retained_bytes_per_event: float, generate_dataset_s: float,
                  untraced_pass_s: float, traced_pass_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run, keyed by its BENCHMARK.json name.

    ``*_ms``/``*_s`` are mean inclusive times of one call of the named
    function; per-kind op counts and times are per forward pass (a training
    step or a prediction); a layer the workload never calls reads 0. The
    scene generator runs in a child process, which times its one call.
    """
    forwards = table.calls.get("model.forward", 0)
    per_forward = (lambda v: v / forwards) if forwards else (lambda v: 0.0)
    m: dict[str, float] = {}
    m["autodiff.backward_ms"] = 1e3 * table.per_call("autodiff.backward")
    m["autodiff.sgd_step_ms"] = 1e3 * table.per_call("autodiff.sgd_step")
    m["autodiff.ops_per_step"] = per_forward(sum(table.calls.get(f"autodiff.{k}", 0) for k in OP_KINDS))
    for kind in OP_KINDS:
        m[f"autodiff.ops.{kind}"] = per_forward(table.calls.get(f"autodiff.{kind}", 0))
    for kind in OP_KINDS:
        m[f"autodiff.op_ms.{kind}"] = 1e3 * per_forward(table.total.get(f"autodiff.{kind}", 0.0))
    for fn in ("cnn_forward", "stacked_lstm_forward", "pose_head", "pose_loss", "predict"):
        m[f"model.{fn}_ms"] = 1e3 * table.per_call(f"model.{fn}")

    step_ms = [1e3 * (end - start) for start, end in table.steps]
    m["pipeline.step_ms_p50"] = percentile(step_ms, 50)
    m["pipeline.step_ms_p99"] = percentile(step_ms, 99)
    epochs = [
        table.steps[i + steps_per_epoch - 1][1] - table.steps[i][0]
        for i in range(0, len(table.steps) - steps_per_epoch + 1, steps_per_epoch)
    ] if steps_per_epoch else []
    m["pipeline.epoch_s"] = float(np.mean(epochs)) if epochs else 0.0
    m["pipeline.save_checkpoint_s"] = table.per_call("pipeline.save_checkpoint")
    m["pipeline.load_checkpoint_s"] = table.per_call("pipeline.load_checkpoint")
    m["pipeline.checkpoint_bytes"] = float(checkpoint_bytes)

    m["events.parse_events_s"] = table.per_call("events.parse_events")
    m["events.parse_events_per_s"] = table.rate(
        "events.parse_events", events_per_parse * table.calls.get("events.parse_events", 0)
    )
    m["events.parse_poses_s"] = table.per_call("events.parse_poses")
    m["events.window_events_s"] = table.per_call("events.window_events")
    m["events.retained_bytes_per_event"] = retained_bytes_per_event

    painted = table.calls.get("event_image.image_from_window", 0)
    m["event_image.image_from_window_s"] = table.per_call("event_image.image_from_window")
    m["event_image.images_per_s"] = table.rate("event_image.image_from_window", painted)
    m["event_image.select_fraction_s"] = table.per_call("event_image.select_fraction")

    predictions = table.calls.get("model.predict", 0)
    metric_s = sum(table.self_total.get(n, 0.0) for n in METRIC_FUNCTIONS)
    m["evaluation.evaluate_s"] = table.per_call("evaluation.evaluate")
    m["evaluation.robustness_experiment_s"] = table.per_call("evaluation.robustness_experiment")
    m["evaluation.metrics_ms"] = 1e3 * metric_s / predictions if predictions else 0.0

    m["synth.generate_dataset_s"] = generate_dataset_s

    m["trace.overhead_s"] = traced_pass_s - untraced_pass_s
    m["trace.overhead_pct"] = 100.0 * (traced_pass_s / untraced_pass_s - 1.0)
    return m
