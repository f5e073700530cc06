"""Synthetic event-camera datasets from a wireframe scene.

A pinhole camera follows a smooth sinusoidal trajectory past a set of 3D
line segments. At each groundtruth sample time the visible wireframe is
rasterized into a binary edge mask; pixels that toggle between consecutive
masks emit one event each (+1 where an edge appears, -1 where it
disappears) with timestamps jittered uniformly inside the interval. The
output text parses losslessly through the event/pose readers.

Frames are rendered in passes of at most ``_ROWS_PER_PASS`` (frame,
segment) rows and ``_PIXELS_PER_PASS`` mask pixels, each from the last
frame of the pass before: every row is projected, cut at the near plane and
clipped as arrays, and each distinct rounded line is rasterized once, in
lockstep with the others, then scattered into the frames that hold it.
``render_edge_frame`` is the same renderer with one frame. A pass's events
come from one flat scan of its mask difference, sorted by (interval, time),
so the passes concatenate in global order.

All poses are sampled before anything is rendered or written. Pose arrays
past ``sys.maxsize`` bytes are a ``DataError``, past memory a ``MemoryError``.
A phase or position that leaves the float range at a sample time is a
``DataError`` naming the trajectory field, raised by ``pose_at``: the earliest
such time is reported, and at that time a phase before a position.

In a ``config.from_json`` scene file every ``SceneConfig`` key is
required; ``Trajectory`` keys may be omitted and default to zero.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .events import EVENT_DTYPE, Poses, canonicalize_quaternion, format_events, format_poses

_Z_NEAR = 1e-3
# Projected coordinates beyond it are rejected: up to it one ulp is at most
# 1/256 px, so rounding in the clip cannot move an end by a pixel.
_MAX_PROJECTED = 2.0**44
_ROWS_PER_PASS = 1 << 16  # (frame, segment) rows per pass: bounds the renderer's temporaries
_PIXELS_PER_PASS = 1 << 22  # frames * sensor pixels per pass: the masks and their frame-to-frame diff take a byte each
_POSES_PER_BLOCK = 1 << 12  # groundtruth poses formatted at once: about 680 B each while formatted


@dataclass(frozen=True)
class Trajectory:
    """Per-axis sinusoids for position (units) and roll/pitch/yaw (degrees)."""

    position_base: tuple[float, float, float] = (0.0, 0.0, 0.0)
    position_amplitude: tuple[float, float, float] = (0.0, 0.0, 0.0)
    position_frequency_hz: tuple[float, float, float] = (0.0, 0.0, 0.0)
    position_phase: tuple[float, float, float] = (0.0, 0.0, 0.0)
    euler_amplitude_deg: tuple[float, float, float] = (0.0, 0.0, 0.0)
    euler_frequency_hz: tuple[float, float, float] = (0.0, 0.0, 0.0)
    euler_phase: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name, values in vars(self).items():
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"trajectory.{name} must be finite, got {values}")


@dataclass(frozen=True)
class SceneConfig:
    sensor_w: int
    sensor_h: int
    focal: float
    segments: tuple[tuple[tuple[float, float, float], tuple[float, float, float]], ...]
    trajectory: Trajectory
    rate_hz: float
    duration: float
    seed: int

    def __post_init__(self):
        for name in ("rate_hz", "duration", "focal"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if not math.isfinite(self.rate_hz * self.duration):
            raise DataError(f"rate_hz * duration must be finite, got {self.rate_hz} * {self.duration}")
        if self.rate_hz <= 0.0:
            raise DataError(f"rate_hz must be positive, got {self.rate_hz}")
        if self.duration <= 0.0:
            raise DataError(f"duration must be positive, got {self.duration}")
        if len(self.segments) == 0:
            raise DataError("scene needs at least one segment")
        if not (1 <= self.sensor_w <= 65535 and 1 <= self.sensor_h <= 65535) or self.focal <= 0.0:
            raise DataError("invalid sensor geometry")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def quat_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Unit quaternion (qx, qy, qz, qw) from ZYX roll/pitch/yaw in radians."""
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    q = np.array(
        [
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
            cr * cp * cy + sr * sp * sy,
        ]
    )
    return canonicalize_quaternion(q)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (qx, qy, qz, qw)."""
    x, y, z, w = (float(v) for v in q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def pose_at(trajectory: Trajectory, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample the trajectory: position vector and unit quaternion at time t.

    A phase ``2*pi*f*t + phase`` that is not finite, and after the six
    phases a position ``base + amplitude * sin`` that is not finite, is a
    DataError naming its field and axis. Finite phases give finite angles.
    """
    tr, two_pi = trajectory, 2.0 * math.pi
    frequencies, offsets = tr.position_frequency_hz + tr.euler_frequency_hz, tr.position_phase + tr.euler_phase
    phases = [two_pi * f * t + ph for f, ph in zip(frequencies, offsets)]
    finite = list(map(math.isfinite, phases))
    if not all(finite):
        i = finite.index(False)
        field = ("position_frequency_hz", "euler_frequency_hz")[i // 3]
        raise DataError(f"trajectory.{field}[{i % 3}] makes the phase 2*pi*f*t + phase non-finite at t = {float(t)!r}")
    sines = list(map(math.sin, phases))
    p = [b + a * s for b, a, s in zip(tr.position_base, tr.position_amplitude, sines)]
    finite = list(map(math.isfinite, p))
    if not all(finite):
        i = finite.index(False)
        raise DataError(
            f"trajectory.position_base[{i}] + position_amplitude[{i}] makes the position non-finite at t = {float(t)!r}"
        )
    angles = [math.radians(a) * s for a, s in zip(tr.euler_amplitude_deg, sines[3:])]
    return np.array(p), quat_from_euler(*angles)


def _rasterize(lines: np.ndarray, w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Bresenham pixels of integer lines (L, 4) = (x0, y0, x1, y1), drawn in lockstep.

    Every line runs the integer error steps of the scalar Bresenham loop at
    once, one numpy step per pixel of the longest line; a line has
    max(|x1 - x0|, |y1 - y0|) + 1 pixels. Returns the flat indices
    ``y * w + x`` of the pixels inside the w x h image, line by line in
    input order, and the number of them each line has.
    """
    x0, y0, x1, y1 = lines.T
    dx, dy = np.abs(x1 - x0), -np.abs(y1 - y0)
    lengths = np.maximum(dx, -dy) + 1
    starts = np.cumsum(lengths) - lengths  # where each line's pixels start in the output
    order = np.argsort(-lengths, kind="stable")  # longest first: the lines still drawing are a prefix
    drawing = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))  # lines with > step pixels
    x, y, dx, dy, slots = x0[order], y0[order], dx[order], dy[order], starts[order]
    sx, sy = np.where(x0 < x1, 1, -1)[order], np.where(y0 < y1, 1, -1)[order]
    err = dx + dy
    pixels = np.empty(lengths.sum(), np.int64)
    for step, n in enumerate(drawing.tolist()):
        xs, ys, e2 = x[:n], y[:n], 2 * err[:n]
        inside = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
        pixels[slots[:n] + step] = np.where(inside, ys * w + xs, -1)
        step_x, step_y = e2 >= dy[:n], e2 <= dx[:n]
        err[:n] += np.where(step_x, dy[:n], 0) + np.where(step_y, dx[:n], 0)
        xs += np.where(step_x, sx[:n], 0)
        ys += np.where(step_y, sy[:n], 0)
    inside = pixels >= 0
    return pixels[inside], np.add.reduceat(inside, starts, dtype=np.int64)


def _clip_rows(
    config: SceneConfig, positions: np.ndarray, rotations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project, cut and clip every (frame, segment) row of N poses at once.

    ``positions`` (N, 3) and camera-to-world ``rotations`` (N, 3, 3). The
    camera looks along +Z of its own frame; segments behind it are cut at
    the near plane, the rest are clipped to the image (Liang-Barsky). Each
    row goes through the same steps, in the same order, as one segment
    drawn on its own. Returns the indices ``frame * n_segments + segment``
    of the rows left inside the image and their clipped (x0, y0, x1, y1).
    A row in front of the near plane that projects beyond ±2**44 px, or to
    no finite point, is a DataError naming its segment.
    """
    w, h = config.sensor_w, config.sensor_h
    ends = np.asarray(config.segments, dtype=np.float64).reshape(-1, 3)  # a0, b0, a1, b1, ...
    # (a - p) @ R equals R.T @ (a - p) bit for bit; einsum does not.
    cam = ((ends[None] - positions[:, None]) @ rotations).reshape(-1, 2, 3)
    pa, pb = cam[:, 0], cam[:, 1]
    behind_a, behind_b = pa[:, 2] < _Z_NEAR, pb[:, 2] < _Z_NEAR
    keep = ~(behind_a & behind_b)
    with np.errstate(all="ignore"):  # rows that turn non-finite are dropped or rejected below
        cut = np.flatnonzero(keep & (behind_a | behind_b))
        a, b = pa[cut], pb[cut]
        s = (_Z_NEAR - a[:, 2]) / (b[:, 2] - a[:, 2])
        crossing = a + s[:, None] * (b - a)
        cut_a = behind_a[cut]
        pa[cut[cut_a]] = crossing[cut_a]
        pb[cut[~cut_a]] = crossing[~cut_a]

        cx = (w - 1) / 2.0
        cy = (h - 1) / 2.0
        x0 = config.focal * pa[:, 0] / pa[:, 2] + cx
        y0 = config.focal * pa[:, 1] / pa[:, 2] + cy
        x1 = config.focal * pb[:, 0] / pb[:, 2] + cx
        y1 = config.focal * pb[:, 1] / pb[:, 2] + cy
        far = keep & ~(np.abs(np.stack([x0, y0, x1, y1])) <= _MAX_PROJECTED).all(axis=0)  # NaN is far
        if far.any():
            segment = np.argmax(far) % len(config.segments)
            raise DataError(
                f"segment {segment} does not project to finite image coordinates within ±2**44 px"
            )

        # Liang-Barsky against [0, w - 1] x [0, h - 1], one boundary at a time
        dx, dy = x1 - x0, y1 - y0
        t0, t1 = np.zeros_like(dx), np.ones_like(dx)
        for p, q in ((-dx, x0), (dx, (w - 1.0) - x0), (-dy, y0), (dy, (h - 1.0) - y0)):
            r = q / p
            flat, neg = p == 0.0, p < 0.0
            pos = ~flat & ~neg
            keep &= ~((flat & (q < 0.0)) | (neg & (r > t1)) | (pos & (r < t0)))
            t0 = np.where(neg & (r > t0), r, t0)
            t1 = np.where(pos & (r < t1), r, t1)
        rows = np.flatnonzero(keep)
        t0, t1, x0, y0, dx, dy = (v[rows] for v in (t0, t1, x0, y0, dx, dy))
        clipped = np.stack([x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy], axis=1)
    return rows, clipped


def _render_frames(config: SceneConfig, positions: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Binary edge masks (N, h, w) of the wireframe seen from N poses, in one array pass;
    each distinct rounded line is rasterized once and drawn into every frame that has it."""
    w, h = config.sensor_w, config.sensor_h
    rows, clipped = _clip_rows(config, positions, rotations)
    # distinct lines by a lexsort, exact for any integer ends (rounding error can put one off the image)
    ends = np.rint(clipped).astype(np.int64)
    order = np.lexsort(ends.T)
    ends_sorted = ends[order]
    new_line = np.ones(len(order), dtype=bool)
    new_line[1:] = (ends_sorted[1:] != ends_sorted[:-1]).any(axis=1)
    line = np.empty_like(order)
    line[order] = np.cumsum(new_line) - 1
    pixels, counts = _rasterize(ends_sorted[new_line], w, h)
    # each row takes its line's run of pixels, moved to the row's frame
    sizes = counts[line]
    runs = np.repeat(np.cumsum(counts)[line] - np.cumsum(sizes), sizes) + np.arange(sizes.sum())
    masks = np.zeros((len(positions), h, w), dtype=bool)
    masks.reshape(-1)[pixels[runs] + np.repeat(rows // len(config.segments) * (h * w), sizes)] = True
    return masks


def render_edge_frame(config: SceneConfig, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Binary edge mask (h, w) of the wireframe seen from pose (p, q)."""
    return _render_frames(config, np.asarray(p, dtype=np.float64)[None], quat_to_matrix(q)[None])[0]


def _sample_scene(config: SceneConfig) -> tuple[Poses, Iterator[np.ndarray]]:
    """The poses at every sample time ``i / rate_hz``, sampled now into arrays sized before the
    first, and a lazy iterator of each pass's events. A pass renders the last frame of the pass
    before and the frames after it: at most ``_ROWS_PER_PASS`` rows and ``_PIXELS_PER_PASS``
    mask pixels, or two frames if more."""
    n_samples = round(config.rate_hz * config.duration)
    if n_samples < 2:
        raise DataError(f"rate_hz * duration must give at least 2 samples, got {n_samples}")
    if n_samples * 8 * 8 > sys.maxsize:  # t, p and q take 8 float64 per sample
        raise DataError(f"{n_samples} samples take more than the {sys.maxsize} bytes an array can hold")
    poses = Poses(np.arange(n_samples) * (1.0 / config.rate_hz), np.empty((n_samples, 3)), np.empty((n_samples, 4)))
    for i, t in enumerate(map(float, poses.t)):  # no list: sampling holds the pose arrays alone
        poses.p[i], poses.q[i] = pose_at(config.trajectory, t)
    frames = max(2, min(_ROWS_PER_PASS // len(config.segments), _PIXELS_PER_PASS // config.sensor_w // config.sensor_h))
    rng = np.random.default_rng(config.seed)  # drawn pass by pass, as one draw would give
    return poses, (_pass_events(config, poses, i, i + frames, rng) for i in range(0, n_samples - 1, frames - 1))


def _pass_events(config: SceneConfig, poses: Poses, start: int, stop: int, rng: np.random.Generator) -> np.ndarray:
    """The events between consecutive frames of poses[start:stop]."""
    w, frame, dt = config.sensor_w, config.sensor_w * config.sensor_h, 1.0 / config.rate_hz
    masks = _render_frames(config, poses.p[start:stop], np.array([quat_to_matrix(q) for q in poses.q[start:stop]]))
    # flatnonzero scans frame-major, then row-major; k is the interval (t[start + k], t[start + k + 1]]
    toggled = np.flatnonzero(masks[1:] != masks[:-1])
    k, pixel = np.divmod(toggled, frame)
    events = np.empty(k.size, EVENT_DTYPE)
    events["t"] = poses.t[start + 1 + k] - rng.random(k.size) * dt  # lies in the interval
    events["y"], events["x"] = np.divmod(pixel, w)
    events["rho"] = np.where(masks.reshape(-1)[toggled + frame], 1, -1)
    return events[np.lexsort((events["t"], k))]  # ties keep scan order


def generate_dataset(config: SceneConfig) -> tuple[str, str]:
    """Render the trajectory and return (events text, groundtruth text)."""
    poses, passes = _sample_scene(config)
    return "".join(map(format_events, passes)), format_poses(poses)


def default_scene(seed: int = 7, rate_hz: float = 200.0, duration: float = 2.0) -> SceneConfig:
    """Three non-coplanar quadrilateral wireframes and a gentle 6DOF sway."""

    def quad(corners):
        return [
            (tuple(corners[i]), tuple(corners[(i + 1) % 4])) for i in range(4)
        ]

    segments = []
    segments += quad([(-0.8, -0.8, 2.5), (0.8, -0.8, 2.5), (0.8, 0.8, 2.5), (-0.8, 0.8, 2.5)])
    segments += quad([(-1.1, -0.5, 2.0), (-0.3, -0.7, 3.0), (-0.3, 0.7, 3.0), (-1.1, 0.5, 2.0)])
    segments += quad([(0.3, -0.8, 1.8), (1.2, -0.6, 2.8), (1.2, 0.6, 2.8), (0.3, 0.8, 1.8)])
    trajectory = Trajectory(
        position_base=(0.0, 0.0, 0.0),
        position_amplitude=(0.25, 0.20, 0.30),
        position_frequency_hz=(0.9, 0.7, 0.5),
        position_phase=(0.0, 0.8, 1.9),
        euler_amplitude_deg=(3.0, 4.0, 5.0),
        euler_frequency_hz=(0.6, 0.8, 0.4),
        euler_phase=(0.3, 1.1, 2.2),
    )
    return SceneConfig(
        sensor_w=64,
        sensor_h=64,
        focal=70.0,
        segments=tuple(segments),
        trajectory=trajectory,
        rate_hz=rate_hz,
        duration=duration,
        seed=seed,
    )


def write_dataset(config: SceneConfig, out_dir) -> tuple[int, int]:
    """Write events.txt pass by pass, then groundtruth.txt ``_POSES_PER_BLOCK`` poses at a time;
    returns (n_events, n_poses). events.txt is replaced only after its last pass, so a failed pass
    leaves no partial file."""
    poses, passes = _sample_scene(config)
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, f".events.txt.{os.getpid()}.tmp")
    n_events = 0
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            for events in passes:
                f.write(format_events(events))
                n_events += len(events)
        os.replace(tmp, os.path.join(out_dir, "events.txt"))
    finally:
        if os.path.exists(tmp):  # a pass failed before the rename
            os.remove(tmp)
    with open(os.path.join(out_dir, "groundtruth.txt"), "w", encoding="utf-8") as f:
        for i in range(0, len(poses), _POSES_PER_BLOCK):
            block = slice(i, i + _POSES_PER_BLOCK)
            f.write(format_poses(Poses(poses.t[block], poses.p[block], poses.q[block])))
    return n_events, len(poses)
