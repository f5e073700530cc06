"""Event-stream and groundtruth-pose ingestion, windowing, and train/test splits.

Text formats:

* events file: one event per line, ``t x y p`` with ``t`` in seconds,
  integer pixel coordinates and polarity ``p`` in ``{0, 1}`` (0 maps to
  rho=-1, 1 to rho=+1).
* groundtruth file: one pose per line, ``t px py pz qx qy qz qw`` with
  strictly increasing timestamps.

A parsed event stream is one numpy structured array of ``EVENT_DTYPE``
(13 bytes per event), and a parsed pose stream a ``Poses`` of three
columns. A window is a slice of the events, a view unless the stream had
to be sorted by time first, and its label a ``Poses`` of one pose.

Both formats are read by numpy's C reader when the text is plain ASCII,
one piece of about ``PIECE_SIZE`` characters at a time, each cut just
after a line feed, into one array sized by counting the line feeds
first. So parsing holds the result and about two pieces, never a copy of
the whole text. ``read_events`` and ``read_poses`` take their pieces
from a file, which they read twice: once to count its lines, once to
parse them. Anything that reader refuses in any piece, and any value the
vectorised checks reject, sends the whole text through the per-line
parser (for a file, after reading it whole and checking that it is
UTF-8), which raises the error of the first bad line (with its line
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

import contextlib
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
_SPLITLINES_ONLY_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"

PIECE_SIZE = 1 << 20
"""About how many characters of a text, or bytes of a file, np.loadtxt
reads at a time: a piece ends at the last line feed of each block of this
size."""


@dataclass(eq=False)
class Poses:
    """Camera poses as columns: times ``t`` (n,), positions ``p`` (n, 3) in
    meters and canonical unit quaternions ``q`` (n, 4) as (qx, qy, qz, qw).
    A window's label is one pose: a float ``t``, ``p`` (3,) and ``q`` (4,)."""

    t: np.ndarray | float
    p: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(eq=False)
class EventWindow:
    """Events between two consecutive groundtruth timestamps.

    The label is the pose recorded at the end of the interval. ``events``
    is an ``EVENT_DTYPE`` array sorted ascending by timestamp with file
    order preserved among ties; it is a slice of the stream's array, so
    writing to it writes to the stream.
    """

    events: np.ndarray
    label: Poses
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
    _check_sensor_side(sensor_w, sensor_h)
    events = _checked_events(_load_text(text, EVENT_DTYPE, ()), sensor_w, sensor_h)
    if events is None:
        events = _parse_event_lines(text, sensor_w, sensor_h)
    return _warn_non_monotone(events)


def read_events(path, sensor_w: int, sensor_h: int) -> np.ndarray:
    """``parse_events`` of the events file at ``path``, read in pieces: the
    whole text is held only when the per-line parser must decide. A byte
    that is not UTF-8 is a ParseError."""
    _check_sensor_side(sensor_w, sensor_h)
    with _open_data(path) as f:
        events = _checked_events(_load_file(f, EVENT_DTYPE, ()), sensor_w, sensor_h)
        if events is None:
            events = _parse_event_lines(_file_text(f, path), sensor_w, sensor_h)
    return _warn_non_monotone(events)


def _check_sensor_side(sensor_w: int, sensor_h: int) -> None:
    if max(sensor_w, sensor_h) > _MAX_SENSOR_SIDE:
        raise BoundsError(
            f"sensor {sensor_w}x{sensor_h} exceeds the {_MAX_SENSOR_SIDE}-pixel side limit"
        )


def _warn_non_monotone(events: np.ndarray) -> np.ndarray:
    t = events["t"]
    non_monotone = int(np.count_nonzero(t[1:] < t[:-1]))
    if non_monotone:
        warnings.warn(f"{non_monotone} event(s) with non-monotone timestamps", stacklevel=3)
    return events


@contextlib.contextmanager
def _open_data(path):
    """The data file at ``path`` opened for binary reads; a pipe is read
    whole, since ``_load_file`` reads a file twice."""
    with open(path, "rb") as f:
        yield f if f.seekable() else io.BytesIO(f.read())


def _file_text(f, path) -> str:
    """The UTF-8 text of binary file ``f``; a byte that is not UTF-8 is a
    ParseError."""
    f.seek(0)
    data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as the parsers number lines: by str.splitlines
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8 text ({exc.reason}) in {path}", line_no) from None


def _load_text(text: str, dtype, row_shape: tuple) -> np.ndarray | None:
    """``_load_pieces`` of ``text``, cut at the last line feed of each
    ``PIECE_SIZE`` characters."""
    if not text.isascii():  # O(1) for a str
        return None
    stops = [text.rfind("\n", 0, end) + 1 for end in range(PIECE_SIZE, len(text), PIECE_SIZE)]
    return _load_pieces(lambda start, stop: text[start:stop].encode("ascii"), stops + [len(text)],
                        text.count("\n") + 1, dtype, row_shape)


def _load_file(f, dtype, row_shape: tuple) -> np.ndarray | None:
    """``_load_pieces`` of seekable binary file ``f``, cut at the last line
    feed of each ``PIECE_SIZE`` bytes."""
    n_lines, stops, end = _scan_lines(f)
    f.seek(0)
    return _load_pieces(lambda start, stop: f.read(stop - start), stops + [end], n_lines, dtype, row_shape)


def _scan_lines(f) -> tuple[int, list[int], int]:
    """A first pass over binary file ``f``: its line feeds plus one, the
    offset after the last line feed of each ``PIECE_SIZE`` bytes that has
    one, and its size."""
    n_lines, stops, end = 1, [], 0
    for block in iter(lambda: f.read(PIECE_SIZE), b""):
        n_lines += block.count(b"\n")
        if (last := block.rfind(b"\n")) >= 0:
            stops.append(end + last + 1)
        end += len(block)
    return n_lines, stops, end


def _load_pieces(read, stops, n_lines: int, dtype, row_shape: tuple) -> np.ndarray | None:
    """The rows of a text of at most ``n_lines`` lines, read piece by piece
    by np.loadtxt into one array of ``n_lines`` rows of ``row_shape``, cut
    to the rows filled. ``read(start, stop)`` gives the text's bytes from
    one of the ascending offsets ``stops`` (or 0) to the next; every stop
    but the last follows a line feed. None when the per-line parser must
    decide: a piece that is not ASCII, holds a break np.loadtxt does not
    see, or that it refuses or warns about."""
    out = np.empty((n_lines, *row_shape), dtype)
    # Rows are copied as bytes: a field-wise copy of packed EVENT_DTYPE
    # rows is about ten times slower.
    raw = out.view(np.uint8).reshape(n_lines, -1)
    n = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "input contained no data"; int-via-float on numpy < 2
        start = 0
        for stop in stops:
            if stop == start:  # no line feed since the last stop
                continue
            piece = read(start, stop)
            start = stop
            if piece.isspace():  # blank lines only, of which np.loadtxt warns
                continue
            if not piece.isascii() or any(c in piece for c in _SPLITLINES_ONLY_BREAKS):
                return None
            try:
                # Bytes: a StringIO would hold the text as 4 bytes per
                # character. A value that does not fit its field (x = 70000,
                # p = 300) is a read error, so nothing wraps around.
                rows = np.loadtxt(io.BytesIO(piece), dtype=dtype, comments=None, encoding="ascii",
                                  ndmin=1 + len(row_shape))
            except (ValueError, Warning):
                return None
            if rows.shape[1:] != row_shape:
                return None
            raw[n : n + len(rows)] = rows.view(np.uint8).reshape(len(rows), -1)
            n += len(rows)
            del piece, rows  # freed before the next piece is read
    del raw
    out.resize((n, *row_shape), refcheck=False)  # drops the rows of blank lines, in place
    return out


def _checked_events(events: np.ndarray | None, sensor_w: int, sensor_h: int) -> np.ndarray | None:
    """Events read by np.loadtxt with polarity mapped to rho, or None when
    the per-line parser must decide: ``events`` is None or holds a value
    outside the format's ranges."""
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
    rows = _checked_pose_rows(_load_text(text, np.float64, (8,)))
    if rows is None:
        rows = _parse_pose_lines(text)
    return Poses(rows[:, 0], rows[:, 1:4], rows[:, 4:])


def read_poses(path) -> Poses:
    """``parse_poses`` of the groundtruth file at ``path``, read in pieces
    as ``read_events`` reads. A byte that is not UTF-8 is a ParseError."""
    with _open_data(path) as f:
        rows = _checked_pose_rows(_load_file(f, np.float64, (8,)))
        if rows is None:
            rows = _parse_pose_lines(_file_text(f, path))
    return Poses(rows[:, 0], rows[:, 1:4], rows[:, 4:])


def _checked_pose_rows(rows: np.ndarray | None) -> np.ndarray | None:
    """(n, 8) pose rows read by np.loadtxt with quaternions canonicalized,
    or None when the per-line parser must decide: ``rows`` is None or holds
    a value it would reject or a quaternion it would divide by its norm or
    whose qw is 0."""
    if rows is None:
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
    first copied once in stable time order (ties keep file order). Pose
    times that are not strictly increasing, or NaN, are an OrderingError
    naming the first pose out of order.
    """
    if len(poses) < 2:
        raise InsufficientDataError(
            f"need at least 2 groundtruth poses to form windows, got {len(poses)}"
        )
    late = np.flatnonzero(~(poses.t[1:] > poses.t[:-1]))  # NaN compares false
    if late.size:
        i = int(late[0]) + 1
        before, at = poses.t[i - 1 : i + 1].tolist()
        raise OrderingError(f"pose {i} at t = {at!r} is not after pose {i - 1} at t = {before!r}")
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
        windows.append(EventWindow(events[start:stop], Poses(*label), i))
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
