"""Event-stream and groundtruth-pose ingestion, windowing, and train/test splits.

Text formats:

* events file: one event per line, ``t x y p`` with ``t`` in seconds,
  integer pixel coordinates and polarity ``p`` in ``{0, 1}`` (0 maps to
  rho=-1, 1 to rho=+1).
* groundtruth file: one pose per line, ``t px py pz qx qy qz qw`` with
  strictly increasing timestamps.

A parsed event stream is one numpy structured array of ``EVENT_DTYPE``
(13 bytes per event), and a parsed pose stream a ``Poses`` of three
columns. A window is a slice of the events: a view, unless the stream had
to be sorted by time first. Both formats are read by numpy's C reader when
the text is plain ASCII; anything that reader refuses, and any value the
vectorised checks reject, sends the whole text through the per-line
parser, which raises the error of the first bad line (with its line
number) or accepts the spellings Python's ``float``/``int`` accept
(``1_0``, non-ASCII digits) with the same values.

Quaternions are normalized to unit length and sign-canonicalized (qw >= 0)
at ingestion so that Euclidean quaternion distances live on a single
hemisphere of the double cover. The columnar reader only flips the sign
of whole rows; a text with a quaternion whose norm is not surely within
1e-12 of 1, or whose qw is 0, goes through the per-line parser, so both
readers give the same bytes.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BoundsError,
    InsufficientDataError,
    InvalidRotationError,
    OrderingError,
    ParseError,
)

EVENT_DTYPE = np.dtype([("t", "<f8"), ("x", "<u2"), ("y", "<u2"), ("rho", "i1")])
"""One asynchronous brightness-change record: time in seconds, pixel column
and row, polarity -1 or +1. Packed, 13 bytes."""

_MAX_SENSOR_SIDE = np.iinfo(np.uint16).max  # every coordinate < side fits in "x"/"y"
# Line breaks of str.splitlines that np.loadtxt reads as field separators
# inside one row (the non-ASCII ones never reach it).
_SPLITLINES_ONLY_BREAKS = "\x0b\x0c\x1c\x1d\x1e"


@dataclass(eq=False)
class PoseLabel:
    """Camera pose: position in meters and unit quaternion (qx, qy, qz, qw)."""

    t: float
    p: np.ndarray
    q: np.ndarray


@dataclass(eq=False)
class Poses:
    """A pose stream as columns: times ``t`` (n,), positions ``p`` (n, 3)
    and canonical unit quaternions ``q`` (n, 4). ``poses[i]`` is the
    PoseLabel of row i, whose arrays are views of the columns."""

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> PoseLabel:
        return PoseLabel(float(self.t[i]), self.p[i], self.q[i])


@dataclass(eq=False)
class EventWindow:
    """Events between two consecutive groundtruth timestamps.

    The label is the pose recorded at the end of the interval. ``events``
    is an ``EVENT_DTYPE`` array sorted ascending by timestamp with file
    order preserved among ties; it is a slice of the stream's array, so
    writing to it writes to the stream.
    """

    events: np.ndarray
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


def parse_events(text: str, sensor_w: int, sensor_h: int) -> np.ndarray:
    """Parse an events text into an ``EVENT_DTYPE`` array; polarity 0/1
    maps to rho -1/+1.

    Raises ParseError (with line number) for malformed lines and
    BoundsError for coordinates outside the sensor or a sensor side above
    65535. Non-monotone timestamps are permitted but produce a warning.
    """
    if max(sensor_w, sensor_h) > _MAX_SENSOR_SIDE:
        raise BoundsError(
            f"sensor {sensor_w}x{sensor_h} exceeds the {_MAX_SENSOR_SIDE}-pixel side limit"
        )
    events = _read_events(text, sensor_w, sensor_h)
    if events is None:
        events = _parse_event_lines(text, sensor_w, sensor_h)
    t = events["t"]
    non_monotone = int(np.count_nonzero(t[1:] < t[:-1]))
    if non_monotone:
        warnings.warn(f"{non_monotone} event(s) with non-monotone timestamps", stacklevel=2)
    return events


def _load_text(text: str, dtype, ndmin: int) -> np.ndarray | None:
    """``text`` read by np.loadtxt, or None when the per-line parser must
    decide: non-ASCII text, a break np.loadtxt does not see, or a read
    error or warning."""
    if not text.isascii() or any(c in text for c in _SPLITLINES_ONLY_BREAKS):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"; int-via-float on numpy < 2
            # Bytes: a StringIO would hold the text as 4 bytes per character.
            # A value that does not fit its field (x = 70000, p = 300) is a
            # read error, so nothing wraps around.
            return np.loadtxt(
                io.BytesIO(text.encode("ascii")),
                dtype=dtype,
                comments=None,
                encoding="ascii",
                ndmin=ndmin,
            )
    except (ValueError, Warning):
        return None


def _read_events(text: str, sensor_w: int, sensor_h: int) -> np.ndarray | None:
    """The events of ``text`` read by np.loadtxt, or None when the per-line
    parser must decide, as for ``_load_text`` or a value outside the
    format's ranges."""
    events = _load_text(text, EVENT_DTYPE, 1)
    if events is None:
        return None
    t, x, y, p = (events[name] for name in EVENT_DTYPE.names)  # "rho" holds p until the end
    if len(events) and not (
        t.min() >= 0.0  # False for NaN
        and np.isfinite(t.max())
        and p.min() >= 0
        and p.max() <= 1
        and x.max() < sensor_w
        and y.max() < sensor_h
    ):
        return None
    p *= 2
    p -= 1
    return events


def _parse_event_lines(text: str, sensor_w: int, sensor_h: int) -> np.ndarray:
    """Line-by-line parse with Python's ``float``/``int``; raises the error
    of the first bad line."""
    ts, xs, ys, rhos = [], [], [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        ts.append(t)
        xs.append(x)
        ys.append(y)
        rhos.append(1 if p == 1 else -1)
    events = np.empty(len(ts), EVENT_DTYPE)
    events["t"], events["x"], events["y"], events["rho"] = ts, xs, ys, rhos
    return events


def parse_poses(text: str) -> Poses:
    """Parse a groundtruth pose stream into canonicalized columns.

    Raises ParseError (with line number) for malformed lines and non-finite
    timestamps or positions, OrderingError if timestamps are not strictly
    increasing and InvalidRotationError for zero-norm or non-finite
    quaternions.
    """
    rows = _read_poses(text)
    if rows is None:
        rows = _parse_pose_lines(text)
    return Poses(rows[:, 0], rows[:, 1:4], rows[:, 4:])


def _read_poses(text: str) -> np.ndarray | None:
    """The (n, 8) pose rows of ``text`` read by np.loadtxt, quaternions
    canonicalized, or None when the per-line parser must decide, as for
    ``_load_text``, any value it would reject or a quaternion it would
    divide by its norm or whose qw is 0."""
    rows = _load_text(text, np.float64, 2)
    if rows is None or rows.shape[1] != 8:
        return None
    t, q = rows[:, 0], rows[:, 4:]
    if not (np.isfinite(rows[:, :4]).all() and (t[1:] > t[:-1]).all()):
        return None
    # The summed norm may differ from np.linalg.norm in its last bits, so
    # rows are kept only when both surely leave them undivided. Overflow
    # warnings are left to the per-line parser, which repeats them.
    with np.errstate(all="ignore"):
        norm = np.sqrt(np.einsum("ij,ij->i", q, q))
        if not ((np.abs(norm - 1.0) < 1e-12 - 1e-14) & (q[:, 3] != 0.0)).all():
            return None
    flip = q[:, 3] < 0.0
    q[flip] = -q[flip] + 0.0  # + 0.0 turns -0.0 components into +0.0
    return rows


def _parse_pose_lines(text: str) -> np.ndarray:
    """Line-by-line parse into (n, 8) rows with Python's ``float``; raises
    the error of the first bad line."""
    rows = []
    prev_t = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        rows.append(vals[:4] + q.tolist())
    return np.array(rows, dtype=np.float64).reshape(-1, 8)


def format_events(events: np.ndarray) -> str:
    """Serialize an ``EVENT_DTYPE`` array back to the text format (round-trips exactly).

    Each line is ``repr(t)`` followed by the tail ``" x y p\\n"``; the tail
    of each distinct (x, y, p) is built once and the two columns of strings
    are interleaved and joined.
    """
    codes = (events["x"].astype(np.int64) << 17) | (events["y"].astype(np.int64) << 1) | (events["rho"] > 0)
    distinct, which = np.unique(codes, return_inverse=True)
    xs, yp = np.divmod(distinct, 1 << 17)
    ys, ps = np.divmod(yp, 2)
    tails = np.array([f" {x} {y} {p}\n" for x, y, p in zip(xs.tolist(), ys.tolist(), ps.tolist())], dtype=object)
    parts = [""] * (2 * len(events))
    parts[0::2] = map(float.__repr__, events["t"].tolist())
    parts[1::2] = tails[which].tolist()
    return "".join(parts)


def format_poses(poses: Poses) -> str:
    """Serialize poses back to the text format (round-trips exactly)."""
    rows = np.column_stack((poses.t, poses.p, poses.q)).tolist()
    return "".join(" ".join(map(float.__repr__, row)) + "\n" for row in rows)


def window_events(events: np.ndarray, poses: Poses) -> tuple[list[EventWindow], int]:
    """Group an ``EVENT_DTYPE`` stream into pose-labeled windows over
    (t_i, t_i+1] intervals.

    Each window is labeled with the pose at the interval end. Events at or
    before the first pose, or after the last, are discarded. Intervals with
    no events produce no window; their count is returned alongside the
    windows. Windows are views of ``events``; a non-monotone stream is
    first copied once in stable time order (ties keep file order).
    """
    if len(poses) < 2:
        raise InsufficientDataError(
            f"need at least 2 groundtruth poses to form windows, got {len(poses)}"
        )
    t = events["t"]
    if np.any(t[1:] < t[:-1]):
        events = events[np.argsort(t, kind="stable")]
        t = events["t"]
    # With t ascending, the events in (t_i, t_i+1] are those from the count
    # at or before t_i up to the count at or before t_i+1.
    bounds = np.searchsorted(t, poses.t, side="right").tolist()
    labels = zip(poses.t[1:].tolist(), poses.p[1:], poses.q[1:])  # the pose at each interval's end
    windows: list[EventWindow] = []
    skipped_empty = 0
    for i, (start, stop, label) in enumerate(zip(bounds, bounds[1:], labels)):
        if start == stop:
            skipped_empty += 1
            continue
        windows.append(EventWindow(events[start:stop], PoseLabel(*label), i))
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
