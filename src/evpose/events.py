"""Event-stream and groundtruth-pose ingestion, windowing, and train/test splits.

Text formats:

* events file: one event per line, ``t x y p`` with ``t`` in seconds,
  integer pixel coordinates and polarity ``p`` in ``{0, 1}`` (0 maps to
  rho=-1, 1 to rho=+1).
* groundtruth file: one pose per line, ``t px py pz qx qy qz qw`` with
  strictly increasing timestamps.

Quaternions are normalized to unit length and sign-canonicalized (qw >= 0)
at ingestion so that Euclidean quaternion distances live on a single
hemisphere of the double cover.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BoundsError,
    InsufficientDataError,
    InvalidRotationError,
    OrderingError,
    ParseError,
)


class Event(NamedTuple):
    """One asynchronous brightness-change record."""

    t: float
    x: int
    y: int
    rho: int  # -1 or +1


@dataclass(eq=False)
class PoseLabel:
    """Camera pose: position in meters and unit quaternion (qx, qy, qz, qw)."""

    t: float
    p: np.ndarray
    q: np.ndarray


@dataclass(eq=False)
class EventWindow:
    """Events between two consecutive groundtruth timestamps.

    The label is the pose recorded at the end of the interval; events are
    sorted ascending by timestamp with file order preserved among ties.
    """

    events: list[Event]
    label: PoseLabel
    sequence_index: int


def canonicalize_quaternion(q) -> np.ndarray:
    """Return ``q`` as a unit quaternion with qw >= 0.

    If qw is exactly zero the first nonzero of (qx, qy, qz) is made
    positive. Unit-norm inputs (within 1e-12) are passed through without
    re-division so the operation is idempotent at the bit level.
    """
    q = np.array(q, dtype=np.float64)
    if q.shape != (4,):
        raise InvalidRotationError(f"quaternion must have 4 components, got shape {q.shape}")
    n = float(np.linalg.norm(q))
    if n == 0.0:
        raise InvalidRotationError("zero-norm quaternion")
    if not math.isfinite(n):
        raise InvalidRotationError("non-finite quaternion")
    if abs(n - 1.0) > 1e-12:
        q = q / n
    if q[3] < 0.0:
        q = -q + 0.0  # + 0.0 turns -0.0 components into +0.0
    elif q[3] == 0.0:
        for c in q[:3]:
            if c != 0.0:
                if c < 0.0:
                    q = -q + 0.0
                break
    return q


def _iter_lines(stream: str | Iterable[str]) -> Iterable[str]:
    if isinstance(stream, str):
        return stream.splitlines()
    return stream


def parse_events(stream: str | Iterable[str], sensor_w: int, sensor_h: int) -> list[Event]:
    """Parse an events text stream; polarity 0/1 maps to rho -1/+1.

    Raises ParseError (with line number) for malformed lines and
    BoundsError for coordinates outside the sensor. Non-monotone
    timestamps are permitted but produce a warning.
    """
    events: list[Event] = []
    non_monotone = 0
    prev_t = None
    for line_no, raw in enumerate(_iter_lines(stream), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected 't x y p', got {line!r}", line_no)
        try:
            t = float(parts[0])
            x = int(parts[1])
            y = int(parts[2])
            p = int(parts[3])
        except ValueError:
            raise ParseError(f"could not parse fields in {line!r}", line_no) from None
        if not math.isfinite(t) or t < 0.0:
            raise ParseError(f"bad timestamp {parts[0]!r}", line_no)
        if p not in (0, 1):
            raise ParseError(f"polarity must be 0 or 1, got {parts[3]!r}", line_no)
        if not (0 <= x < sensor_w and 0 <= y < sensor_h):
            raise BoundsError(
                f"line {line_no}: event at ({x}, {y}) outside {sensor_w}x{sensor_h} sensor"
            )
        if prev_t is not None and t < prev_t:
            non_monotone += 1
        prev_t = t
        events.append(Event(t, x, y, 1 if p == 1 else -1))
    if non_monotone:
        warnings.warn(f"{non_monotone} event(s) with non-monotone timestamps", stacklevel=2)
    return events


def parse_poses(stream: str | Iterable[str]) -> list[PoseLabel]:
    """Parse a groundtruth pose stream into canonicalized PoseLabels.

    Raises ParseError (with line number) for malformed lines and non-finite
    timestamps or positions, OrderingError if timestamps are not strictly
    increasing and InvalidRotationError for zero-norm or non-finite
    quaternions.
    """
    poses: list[PoseLabel] = []
    prev_t = None
    for line_no, raw in enumerate(_iter_lines(stream), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ParseError(f"expected 't px py pz qx qy qz qw', got {line!r}", line_no)
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise ParseError(f"could not parse fields in {line!r}", line_no) from None
        t = vals[0]
        if not math.isfinite(t):
            raise ParseError(f"bad timestamp {parts[0]!r}", line_no)
        if prev_t is not None and t <= prev_t:
            raise OrderingError(f"line {line_no}: timestamp {t!r} not after {prev_t!r}")
        prev_t = t
        if not all(math.isfinite(v) for v in vals[1:4]):
            raise ParseError(f"non-finite position in {line!r}", line_no)
        try:
            q = canonicalize_quaternion(vals[4:8])
        except InvalidRotationError as exc:
            raise InvalidRotationError(f"line {line_no}: {exc}") from None
        poses.append(PoseLabel(t, np.array(vals[1:4], dtype=np.float64), q))
    return poses


def format_events(events: Sequence[Event]) -> str:
    """Serialize events back to the text format (round-trips exactly)."""
    lines = [f"{e.t!r} {e.x} {e.y} {1 if e.rho > 0 else 0}" for e in events]
    return "".join(line + "\n" for line in lines)


def format_poses(poses: Sequence[PoseLabel]) -> str:
    """Serialize poses back to the text format (round-trips exactly)."""
    lines = []
    for pose in poses:
        fields = [pose.t, *pose.p.tolist(), *pose.q.tolist()]
        lines.append(" ".join(repr(v) for v in fields))
    return "".join(line + "\n" for line in lines)


def window_events(
    events: Sequence[Event], poses: Sequence[PoseLabel]
) -> tuple[list[EventWindow], int]:
    """Group events into pose-labeled windows over (t_i, t_i+1] intervals.

    Each window is labeled with the pose at the interval end. Events at or
    before the first pose, or after the last, are discarded. Intervals with
    no events produce no window; their count is returned alongside the
    windows.
    """
    if len(poses) < 2:
        raise InsufficientDataError(
            f"need at least 2 groundtruth poses to form windows, got {len(poses)}"
        )
    ts = [p.t for p in poses]
    buckets: list[list[Event]] = [[] for _ in range(len(poses) - 1)]
    for e in events:
        if e.t <= ts[0] or e.t > ts[-1]:
            continue
        i = bisect_left(ts, e.t)  # first i with ts[i] >= e.t, so e lies in (ts[i-1], ts[i]]
        buckets[i - 1].append(e)
    windows: list[EventWindow] = []
    skipped_empty = 0
    for i, bucket in enumerate(buckets):
        if not bucket:
            skipped_empty += 1
            continue
        bucket.sort(key=lambda ev: ev.t)  # stable: ties keep file order
        windows.append(EventWindow(bucket, poses[i + 1], i))
    return windows, skipped_empty


def _check_split_args(windows: Sequence[EventWindow], train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if len(windows) < 2:
        raise InsufficientDataError(f"need at least 2 windows to split, got {len(windows)}")


def split_random(
    windows: Sequence[EventWindow], train_fraction: float, seed: int
) -> tuple[list[EventWindow], list[EventWindow]]:
    """Deterministic random split; train gets floor(train_fraction * N) windows.

    Relative order within each side is preserved.
    """
    _check_split_args(windows, train_fraction)
    n = len(windows)
    n_train = math.floor(train_fraction * n)
    chosen = set(np.random.default_rng(seed).permutation(n)[:n_train].tolist())
    train = [w for i, w in enumerate(windows) if i in chosen]
    test = [w for i, w in enumerate(windows) if i not in chosen]
    return train, test


def split_novel(
    windows: Sequence[EventWindow], train_fraction: float
) -> tuple[list[EventWindow], list[EventWindow]]:
    """Temporal prefix/suffix split: first floor(train_fraction * N) windows train."""
    _check_split_args(windows, train_fraction)
    n_train = math.floor(train_fraction * len(windows))
    return list(windows[:n_train]), list(windows[n_train:])
