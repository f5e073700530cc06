"""Error metrics, summary statistics, and the evaluation experiments.

Position error is the Euclidean distance in meters; orientation error is
the geodesic rotation angle 2*acos(|q_hat . q|) in degrees, which is
insensitive to the quaternion double cover. Reports serialize to CSV (one
row per sample or per fraction) and a JSON summary.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import model as _model
from .event_image import image_from_window
from .events import EventWindow, Poses
from .model import ModelParams, PosePrediction, vector_norm


@dataclass(frozen=True)
class ErrorSummary:
    """Median/mean/quartile statistics of one error population."""

    median: float
    mean: float
    q1: float
    q3: float
    max: float
    n: int


@dataclass(eq=False)
class EvalReport:
    """Per-sample position/orientation errors plus their summaries."""

    position: ErrorSummary
    orientation: ErrorSummary
    per_sample_errors: list[tuple[float, float]]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["index", "position_error_m", "orientation_error_deg"])
        for i, (pos, ori) in enumerate(self.per_sample_errors):
            writer.writerow([i, repr(pos), repr(ori)])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "position": asdict(self.position),
                "orientation": asdict(self.orientation),
                "n_samples": len(self.per_sample_errors),
            },
            indent=2,
        )


@dataclass(eq=False)
class RobustnessTable:
    """Median errors as a function of the fraction of events used."""

    rows: list[tuple[float, float, float]]  # (fraction, position_median, orientation_median)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["fraction", "position_median_m", "orientation_median_deg"])
        for fraction, pos, ori in self.rows:
            writer.writerow([repr(fraction), repr(pos), repr(ori)])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": [
                    {"fraction": f, "position_median": p, "orientation_median": o}
                    for f, p, o in self.rows
                ]
            },
            indent=2,
        )


def position_error(pred: PosePrediction, label: Poses) -> float:
    """Euclidean distance between predicted and groundtruth positions."""
    return vector_norm(pred.p_hat - label.p)


def orientation_error(pred: PosePrediction, label: Poses) -> float:
    """Rotation angle between the two orientations, in degrees (0..180).

    Equals 2*acos(min(1, |q_hat . q|)) * 180/pi, evaluated in the
    equivalent atan2 form, which stays exact at the endpoints: identical
    or sign-flipped quaternions give 0 even in floating point.
    """
    q_hat, q = pred.q_hat, label.q
    for name, quat in (("prediction", q_hat), ("label", q)):
        if abs(vector_norm(quat) - 1.0) > 1e-6:
            raise ValueError(f"orientation_error: {name} quaternion is not unit length")
    # for unit quaternions acos(|d|) == 2*atan2(min(|q-p|,|q+p|), max(...))
    diff = vector_norm(q_hat - q)
    summ = vector_norm(q_hat + q)
    half = 2.0 * math.atan2(min(diff, summ), max(diff, summ))
    return math.degrees(2.0 * half)


def summarize(errors: Sequence[float]) -> ErrorSummary:
    """Median and quartiles by linear interpolation between closest ranks."""
    if len(errors) == 0:
        raise ValueError("summarize: empty error list")
    arr = np.asarray(errors, dtype=np.float64)
    q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return ErrorSummary(
        median=float(median),
        mean=float(arr.mean()),
        q1=float(q1),
        q3=float(q3),
        max=float(arr.max()),
        n=int(arr.size),
    )


PredictFn = Callable[..., PosePrediction]


def _per_sample_errors(
    params: ModelParams,
    windows: Sequence[EventWindow],
    fraction: float,
    predict_fn: PredictFn,
) -> list[tuple[float, float]]:
    cfg = params.config
    errors = []
    for window in windows:
        image = image_from_window(window, cfg.input_h, cfg.input_w, fraction=fraction)
        pred = predict_fn(image, params)
        errors.append((position_error(pred, window.label), orientation_error(pred, window.label)))
    return errors


def evaluate(
    params: ModelParams,
    windows: Sequence[EventWindow],
    predict_fn: PredictFn | None = None,
) -> EvalReport:
    """Predict every window from its full event image and aggregate errors."""
    if len(windows) == 0:
        raise ValueError("evaluate: empty window list")
    errors = _per_sample_errors(params, windows, 1.0, predict_fn or _model.predict)
    return EvalReport(
        position=summarize([e[0] for e in errors]),
        orientation=summarize([e[1] for e in errors]),
        per_sample_errors=errors,
    )


_FRACTIONS = tuple(i / 10 for i in range(1, 11))


def robustness_experiment(
    params: ModelParams,
    windows: Sequence[EventWindow],
    predict_fn: PredictFn | None = None,
) -> RobustnessTable:
    """Re-evaluate with only the newest tenth, two tenths, ... and all of
    each window's events: one row per fraction 0.1, 0.2, ..., 1.0.

    The fraction-1.0 row reproduces ``evaluate`` medians exactly.
    """
    if len(windows) == 0:
        raise ValueError("robustness_experiment: empty window list")
    predict_fn = predict_fn or _model.predict
    rows = []
    for fraction in _FRACTIONS:
        errors = _per_sample_errors(params, windows, fraction, predict_fn)
        rows.append(
            (
                fraction,
                summarize([e[0] for e in errors]).median,
                summarize([e[1] for e in errors]).median,
            )
        )
    return RobustnessTable(rows)
