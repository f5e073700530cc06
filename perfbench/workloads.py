"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Every workload draws its inputs from the workload seed alone (scene seed,
split seed, train seed and parameter-init seed are all that seed); evpose
receives only the generated inputs.

* ``ingest``: parse + window + paint a 20 s synthetic scene (~376k events,
  3651 windows). Only workload whose critical path is ingestion; no autodiff.
* ``train``: ``pipeline.train`` on the desk model over the 260 training
  windows of the 2 s scene. Graph building, backward and SGD dominate it.
* ``infer``: ``evaluate`` then ``robustness_experiment`` over the 112
  held-out windows with parameters reloaded from a checkpoint: forward only,
  under ``no_grad``, 1232 predictions per pass.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from evpose import autodiff, event_image, evaluation, events, model, pipeline
from evpose.errors import DataError, NumericError

TRAIN_FRACTION = 0.7
LR = 1e-3


@dataclass(frozen=True)
class Sizes:
    """Input sizes of a run: the full benchmark, or the seconds-long smoke mode."""

    ingest_duration: float
    scene_duration: float
    sensor: int
    model: model.ModelConfig
    epochs: int
    setup_repeats: int


FULL = Sizes(ingest_duration=20.0, scene_duration=2.0, sensor=64,
             model=model.desk_config(), epochs=2, setup_repeats=5)
SMOKE = Sizes(ingest_duration=0.5, scene_duration=0.3, sensor=8,
              model=model.toy_config(), epochs=2, setup_repeats=1)


class Tally:
    """Operations attempted and failed, per operation, with failures by error type."""

    def __init__(self):
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: dict[str, int] = {}

    def attempt(self, op: str, n: int = 1) -> None:
        self.attempted[op] = self.attempted.get(op, 0) + n

    def fail(self, op: str, exc: Exception, n: int = 1) -> None:
        self.failed[op] = self.failed.get(op, 0) + n
        key = f"{op}:{type(exc).__name__}"
        self.errors[key] = self.errors.get(key, 0) + n

    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def load_scene(seed: int, duration: float, sensor: int, workdir: Path) -> tuple[str, str, float, float]:
    """Generate a scene in a child process (scene.py) and read its two files back.

    Returns (events text, poses text, seconds ``synth.generate_dataset`` took,
    seconds the child spent on anything else: interpreter start, imports and
    writing the files). The runner leaves the last out of ``setup_s``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as out:
        cmd = [sys.executable, str(Path(__file__).with_name("scene.py")), "--seed", str(seed),
               "--duration", str(duration), "--sensor", str(sensor), "--out", out]
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        child_s = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"scene generation failed ({proc.returncode}): {proc.stderr.strip()}")
        generate_s = json.loads(proc.stdout.strip().splitlines()[-1])["generate_dataset_s"]
        texts = [Path(out, name).read_text(encoding="utf-8") for name in ("events.txt", "groundtruth.txt")]
    return texts[0], texts[1], generate_s, child_s - generate_s


def retained_bytes_per_event(events_text: str, sensor: int) -> float:
    """Heap bytes the parsed event list keeps alive, per event (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = events.parse_events(events_text, sensor, sensor)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(parsed)


class Workload:
    """Base: attributes the runner reads after ``setup``."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.events_text = ""
        self.n_events = 0
        self.steps_per_epoch = 0
        self.checkpoint_bytes = 0
        self.generate_dataset_s = 0.0
        self.harness_s = 0.0  # part of the last set-up that is not evpose work (see load_scene)

    def _load_scene(self, duration: float) -> list[events.EventWindow]:
        side = self.sizes.sensor
        self.events_text, poses_text, self.generate_dataset_s, self.harness_s = load_scene(
            self.seed, duration, side, self.workdir)
        parsed = events.parse_events(self.events_text, side, side)
        self.n_events = len(parsed)
        windows, _ = events.window_events(parsed, events.parse_poses(poses_text))
        return windows


# ---------------------------------------------------------------- ingest


@dataclass
class IngestPass:
    wall_s: float
    parsed: int
    windowed: int
    skipped: int
    n_windows: int
    samples: dict[int, tuple[np.ndarray, float]]  # sequence index -> (pixels, label t)


class Ingest(Workload):
    name = "ingest"
    SAMPLE_EVERY = 97  # windows checked against the independent painter

    def setup(self) -> None:
        self.events_text = self.poses_text = ""  # free the previous set-up's inputs first
        self.events_text, self.poses_text, self.generate_dataset_s, self.harness_s = load_scene(
            self.seed, self.sizes.ingest_duration, self.sizes.sensor, self.workdir)
        self.n_events = self.events_text.count("\n")  # one event per line

    def run_pass(self, tally: Tally) -> IngestPass | None:
        side = self.sizes.sensor
        tally.attempt("events_parsed", self.n_events)
        start = perf_counter()
        try:
            parsed = events.parse_events(self.events_text, side, side)
            windows, skipped = events.window_events(parsed, events.parse_poses(self.poses_text))
        except DataError as exc:
            tally.fail("events_parsed", exc, self.n_events)
            return None
        tally.attempt("windows_painted", len(windows))
        kept = {}
        for i, window in enumerate(windows):
            try:
                image = event_image.image_from_window(window, side, side)
            except DataError as exc:
                tally.fail("windows_painted", exc)
                continue
            if i % self.SAMPLE_EVERY == 0 or i == len(windows) - 1:
                kept[i] = image
        wall = perf_counter() - start
        samples = {windows[i].sequence_index: (img.pixels, windows[i].label.t) for i, img in kept.items()}
        return IngestPass(wall, len(parsed), sum(len(w.events) for w in windows), skipped,
                          len(windows), samples)

    def checks(self, passes: list[IngestPass]) -> list[Check]:
        # Independent reading of the same text: numpy's parser, not evpose's.
        raw = np.fromstring(self.events_text, dtype=np.float64, sep=" ").reshape(-1, 4)
        pose_t = np.fromstring(self.poses_text, dtype=np.float64, sep=" ").reshape(-1, 8)[:, 0]
        t = raw[:, 0]
        outside = int(np.count_nonzero((t <= pose_t[0]) | (t > pose_t[-1])))
        last = passes[-1]
        bad = [k for k, (pixels, label_t) in last.samples.items()
               if label_t != pose_t[k + 1] or not np.array_equal(pixels, paint(raw, pose_t, k, self.sizes.sensor))]
        return [
            Check("parsed count equals line count",
                  len(raw) == self.n_events and all(p.parsed == len(raw) for p in passes),
                  f"{last.parsed} parsed, {len(raw)} lines"),
            Check("events in windows + outside pose span equal the total",
                  all(p.windowed + outside == len(raw) for p in passes),
                  f"{last.windowed} + {outside} vs {len(raw)}"),
            Check("windows + empty intervals equal pose intervals",
                  all(p.n_windows + p.skipped == len(pose_t) - 1 for p in passes),
                  f"{last.n_windows} + {last.skipped} vs {len(pose_t) - 1}"),
            Check("sampled windows match the independent painter", not bad,
                  f"{len(last.samples)} windows checked, mismatched: {bad[:5]}"),
        ]

    def summary(self, passes: list[IngestPass]) -> dict[str, tuple[float, str]]:
        rate = statistics.median(p.parsed / p.wall_s for p in passes)
        return {"events_per_s": (rate, "1/s"), "throughput_per_s": (rate, "1/s")}


def paint(raw: np.ndarray, pose_t: np.ndarray, k: int, side: int) -> np.ndarray:
    """Reference image of pose interval k, (pose_t[k], pose_t[k+1]], from raw rows.

    Rows are visited in ascending time, file order among ties; the newest
    event at a pixel decides it: 1.0 positive, 0.0 negative, else 0.5.
    """
    t = raw[:, 0]
    rows = raw[(t > pose_t[k]) & (t <= pose_t[k + 1])]
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    image = np.full((side, side), 0.5)
    for _t, x, y, p in rows.tolist():
        image[int(y), int(x)] = 1.0 if p == 1.0 else 0.0
    return image


# ----------------------------------------------------------------- train


@dataclass
class TrainPass:
    wall_s: float
    steps: int
    loss_history: list[float]


class Train(Workload):
    name = "train"

    def setup(self) -> None:
        self.train_windows = []  # free the previous set-up's inputs first
        windows = self._load_scene(self.sizes.scene_duration)
        self.train_windows, _ = events.split_random(windows, TRAIN_FRACTION, seed=self.seed)
        self.steps_per_epoch = len(self.train_windows)
        self.config = pipeline.TrainConfig(model=self.sizes.model, lr=LR, epochs=self.sizes.epochs,
                                           batch_size=1, seed=self.seed)

    def run_pass(self, tally: Tally) -> TrainPass | None:
        n = len(self.train_windows)
        steps = self.config.epochs * n
        tally.attempt("windows_painted", n)
        tally.attempt("sgd_steps", steps)
        start = perf_counter()
        try:
            ckpt = pipeline.train(self.config, self.train_windows)
        except DataError as exc:  # painting is train's only DataError source
            tally.fail("windows_painted", exc, n)
            return None
        except NumericError as exc:  # a non-finite loss or gradient aborts every step of the pass
            tally.fail("sgd_steps", exc, steps)
            return None
        return TrainPass(perf_counter() - start, steps, list(ckpt.loss_history))

    def checks(self, passes: list[TrainPass]) -> list[Check]:
        history = passes[0].loss_history
        return [
            Check("loss history is finite", all(math.isfinite(v) for v in history), f"{history}"),
            Check("last epoch loss below first", history[-1] < history[0], f"{history[0]!r} -> {history[-1]!r}"),
            Check("every pass gives the same loss history bit for bit",
                  all(p.loss_history == history for p in passes), f"{len(passes)} passes"),
        ]

    def summary(self, passes: list[TrainPass]) -> dict[str, tuple[float, str]]:
        rate = statistics.median(p.steps / p.wall_s for p in passes)
        return {
            "train_windows_per_s": (rate, "1/s"),
            "train_loss_final": (passes[0].loss_history[-1], "loss"),
            "throughput_per_s": (rate, "1/s"),
        }


# ----------------------------------------------------------------- infer


@dataclass
class InferPass:
    wall_s: float
    eval_s: float
    robustness_s: float
    latencies_s: list[float]
    eval_predictions: list[model.PosePrediction]
    report: evaluation.EvalReport
    table: evaluation.RobustnessTable


class Infer(Workload):
    name = "infer"

    def setup(self) -> None:
        self.test_windows = self.params = self.loaded = None  # free the previous set-up's first
        windows = self._load_scene(self.sizes.scene_duration)
        _, self.test_windows = events.split_random(windows, TRAIN_FRACTION, seed=self.seed)
        self.params = model.init_params(self.sizes.model, seed=self.seed)
        # Untrained weights with zero biases can leave a ReLU layer dead for
        # every input, so the toy head outputs an exact zero quaternion
        # (DegenerateOutputError). Small random biases keep every output usable.
        rng = np.random.default_rng(self.seed)
        for t in self.params.tensors.values():
            if not t.data.any():
                t.data[...] = rng.uniform(-0.1, 0.1, size=t.data.shape)
        cfg = pipeline.TrainConfig(model=self.sizes.model, lr=LR)
        opt = autodiff.make_opt_state(self.params.ordered(), cfg.lr, cfg.momentum, cfg.weight_decay)
        ckpt = pipeline.Checkpoint(self.params, opt, 0, [])
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"infer-{os.getpid()}.ckpt"
        try:
            pipeline.save_checkpoint(ckpt, path)
            self.checkpoint_bytes = path.stat().st_size
            self.loaded = pipeline.load_checkpoint(path).params
        finally:
            path.unlink(missing_ok=True)

    def run_pass(self, tally: Tally) -> InferPass | None:
        latencies: list[float] = []
        predictions: list[model.PosePrediction] = []

        def timed_predict(image, params):
            tally.attempt("predictions")
            start = perf_counter()
            try:
                pred = model.predict(image, params)
            except NumericError as exc:
                tally.fail("predictions", exc)
                raise
            latencies.append(perf_counter() - start)
            predictions.append(pred)
            return pred

        start = perf_counter()
        try:
            report = evaluation.evaluate(self.loaded, self.test_windows, predict_fn=timed_predict)
            mid = perf_counter()
            table = evaluation.robustness_experiment(self.loaded, self.test_windows, predict_fn=timed_predict)
        except DataError as exc:  # a window failed to paint before its prediction
            tally.attempt("windows_painted", len(latencies) + 1)
            tally.fail("windows_painted", exc)
            return None
        except NumericError:  # counted by timed_predict
            tally.attempt("windows_painted", len(latencies) + 1)
            return None
        end = perf_counter()
        tally.attempt("windows_painted", len(latencies))
        n = len(self.test_windows)
        return InferPass(end - start, mid - start, end - mid, latencies, predictions[:n], report, table)

    def checks(self, passes: list[InferPass]) -> list[Check]:
        side = self.sizes.sensor
        in_memory = [model.predict(event_image.image_from_window(w, side, side), self.params)
                     for w in self.test_windows]
        mismatched = [i for p in passes for i, (a, b) in enumerate(zip(p.eval_predictions, in_memory))
                      if not same_prediction(a, b)]
        first = passes[0].report
        return [
            Check("reloaded-checkpoint predictions equal in-memory ones bit for bit",
                  not mismatched and all(len(p.eval_predictions) == len(in_memory) for p in passes),
                  f"{len(in_memory)} windows x {len(passes)} passes, mismatched: {mismatched[:5]}"),
            Check("robustness row at fraction 1.0 equals the evaluate medians bit for bit",
                  all(p.table.rows[-1] == (1.0, p.report.position.median, p.report.orientation.median)
                      for p in passes),
                  f"{passes[-1].table.rows[-1]}"),
            Check("every pass gives the same report",
                  all(p.report.per_sample_errors == first.per_sample_errors and p.table.rows == passes[0].table.rows
                      for p in passes), f"{len(passes)} passes"),
        ]

    def summary(self, passes: list[InferPass]) -> dict[str, tuple[float, str]]:
        n = len(self.test_windows)
        images = n * (len(passes[0].table.rows))
        latencies_ms = np.array([1e3 * v for p in passes for v in p.latencies_s])
        return {
            "eval_windows_per_s": (statistics.median(n / p.eval_s for p in passes), "1/s"),
            "robustness_images_per_s": (statistics.median(images / p.robustness_s for p in passes), "1/s"),
            "predict_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
            "predict_ms_p99": (float(np.percentile(latencies_ms, 99)), "ms"),
            "predict_samples": (float(latencies_ms.size), "count"),
            "throughput_per_s": (statistics.median((n + images) / p.wall_s for p in passes), "1/s"),
        }


def same_prediction(a: model.PosePrediction, b: model.PosePrediction) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in
               ((a.p_hat, b.p_hat), (a.q_hat_raw, b.q_hat_raw), (a.q_hat, b.q_hat)))


WORKLOADS = {w.name: w for w in (Ingest, Train, Infer)}
