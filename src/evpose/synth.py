"""Synthetic event-camera datasets from a wireframe scene.

A pinhole camera follows a smooth sinusoidal trajectory past a set of 3D
line segments. At each groundtruth sample time the visible wireframe is
rasterized into a binary edge mask; pixels that toggle between consecutive
masks emit one event each (+1 where an edge appears, -1 where it
disappears) with timestamps jittered uniformly inside the interval. The
output text parses losslessly through the event/pose readers.

All frames are rendered together: every (frame, segment) row is projected,
cut at the near plane and clipped in array passes of up to
``_ROWS_PER_PASS`` rows, and each distinct rounded line of a pass is
rasterized once. ``render_edge_frame`` is the same renderer with one frame.

In a ``config.from_json`` scene file every ``SceneConfig`` key is
required; ``Trajectory`` keys may be omitted and default to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .events import EVENT_DTYPE, PoseLabel, canonicalize_quaternion, format_events, format_poses

_Z_NEAR = 1e-3
_ROWS_PER_PASS = 1 << 16  # (frame, segment) rows per array pass: bounds the renderer's temporaries
_MAX_MASK_PIXELS = 1 << 29  # samples * sensor pixels: the masks and their frame-to-frame diff take a byte each


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
    """Sample the trajectory: position vector and unit quaternion at time t."""
    two_pi = 2.0 * math.pi
    p = np.array(
        [
            b + a * math.sin(two_pi * f * t + ph)
            for b, a, f, ph in zip(
                trajectory.position_base,
                trajectory.position_amplitude,
                trajectory.position_frequency_hz,
                trajectory.position_phase,
            )
        ]
    )
    angles = [
        math.radians(a) * math.sin(two_pi * f * t + ph)
        for a, f, ph in zip(
            trajectory.euler_amplitude_deg,
            trajectory.euler_frequency_hz,
            trajectory.euler_phase,
        )
    ]
    return p, quat_from_euler(*angles)


def _line_pixels(x0: int, y0: int, x1: int, y1: int, w: int, h: int) -> np.ndarray:
    """Flat indices ``y * w + x`` of the Bresenham line's pixels inside a w x h image."""
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    pixels = []
    while True:
        if 0 <= x < w and 0 <= y < h:
            pixels.append(y * w + x)
        if x == x1 and y == y1:
            return np.array(pixels, dtype=np.int64)
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


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
    finite = np.isfinite(clipped).all(axis=1)
    if not finite.all():
        segment = rows[np.argmin(finite)] % len(config.segments)
        raise DataError(f"segment {segment} does not project to finite image coordinates")
    return rows, clipped


def _render_frames(config: SceneConfig, positions: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Binary edge masks (N, h, w) of the wireframe seen from N poses.

    Frames are rendered in blocks of at most ``_ROWS_PER_PASS`` rows, which
    bounds the memory besides the masks whatever N and the segment count.
    Each distinct rounded line in a block is rasterized once and drawn into
    every frame of the block that has it.
    """
    w, h = config.sensor_w, config.sensor_h
    n_seg = len(config.segments)
    masks = np.zeros(len(positions) * h * w, dtype=bool)
    step = max(1, _ROWS_PER_PASS // n_seg)
    for start in range(0, len(positions), step):
        rows, clipped = _clip_rows(config, positions[start : start + step], rotations[start : start + step])
        cache: dict[tuple[int, int, int, int], np.ndarray] = {}
        lines = []
        for key in map(tuple, np.rint(clipped).astype(np.int64).tolist()):
            pixels = cache.get(key)
            if pixels is None:
                pixels = cache[key] = _line_pixels(*key, w, h)
            lines.append(pixels)
        if lines:
            frame_offsets = (start + rows // n_seg) * (h * w)
            sizes = np.fromiter(map(len, lines), np.int64, len(lines))
            masks[np.concatenate(lines) + np.repeat(frame_offsets, sizes)] = True
    return masks.reshape(-1, h, w)


def render_edge_frame(config: SceneConfig, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Binary edge mask (h, w) of the wireframe seen from pose (p, q)."""
    positions = np.asarray(p, dtype=np.float64)[None]
    return _render_frames(config, positions, quat_to_matrix(q)[None])[0]


def generate_dataset(config: SceneConfig) -> tuple[str, str]:
    """Render the trajectory and return (events text, groundtruth text)."""
    n_samples = round(config.rate_hz * config.duration)
    if n_samples < 2:
        raise DataError(
            f"rate_hz * duration must give at least 2 samples, got {n_samples}"
        )
    if n_samples * config.sensor_w * config.sensor_h > _MAX_MASK_PIXELS:
        raise DataError(
            f"{n_samples} samples of {config.sensor_w}x{config.sensor_h} pixels exceed "
            f"the {_MAX_MASK_PIXELS} mask pixels a dataset may render"
        )
    dt = 1.0 / config.rate_hz
    times = [i * dt for i in range(n_samples)]
    poses = [PoseLabel(t, *pose_at(config.trajectory, t)) for t in times]
    masks = _render_frames(
        config,
        np.array([pose.p for pose in poses]),
        np.array([quat_to_matrix(pose.q) for pose in poses]),
    )

    # np.nonzero scans frame-major, then row-major; k is the interval (times[k], times[k + 1]]
    k, ys, xs = np.nonzero(masks[1:] != masks[:-1])
    events = np.empty(k.size, EVENT_DTYPE)
    jitter = np.random.default_rng(config.seed).random(k.size) * dt
    events["t"] = np.asarray(times)[k + 1] - jitter  # lies in the interval
    events["x"], events["y"] = xs, ys
    events["rho"] = np.where(masks[k + 1, ys, xs], 1, -1)
    events = events[np.lexsort((events["t"], k))]  # by interval, then time; ties keep scan order
    return format_events(events), format_poses(poses)


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


def write_dataset(config: SceneConfig, out_dir) -> tuple[str, str]:
    """Generate and write events.txt / groundtruth.txt; returns the two texts."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    texts = generate_dataset(config)
    for name, text in zip(("events.txt", "groundtruth.txt"), texts):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            f.write(text)
    return texts
