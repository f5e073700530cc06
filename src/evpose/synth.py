"""Synthetic event-camera datasets from a wireframe scene.

A pinhole camera follows a smooth sinusoidal trajectory past a set of 3D
line segments. At each groundtruth sample time the visible wireframe is
rasterized into a binary edge mask; pixels that toggle between consecutive
masks emit one event each (+1 where an edge appears, -1 where it
disappears) with timestamps jittered uniformly inside the interval. The
output text parses losslessly through the event/pose readers.

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


def _clip_2d(x0, y0, x1, y1, xmax, ymax):
    """Liang-Barsky clip of a segment to [0, xmax] x [0, ymax]; None if outside."""
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - 0.0),
        (dx, xmax - x0),
        (-dy, y0 - 0.0),
        (dy, ymax - y0),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return None
                t0 = max(t0, r)
            else:
                if r < t0:
                    return None
                t1 = min(t1, r)
    return (x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy)


def _draw_line(mask: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    """Bresenham line; pixels outside the mask are ignored."""
    h, w = mask.shape
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < w and 0 <= y < h:
            mask[y, x] = True
        if x == x1 and y == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def render_edge_frame(config: SceneConfig, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Binary edge mask of the wireframe seen from pose (p, q).

    Camera looks along +Z of its own frame; segments behind the camera are
    clipped at the near plane.
    """
    rot_world_from_cam = quat_to_matrix(q)
    rot_cam_from_world = rot_world_from_cam.T
    cx = (config.sensor_w - 1) / 2.0
    cy = (config.sensor_h - 1) / 2.0
    mask = np.zeros((config.sensor_h, config.sensor_w), dtype=bool)
    for a, b in config.segments:
        pa = rot_cam_from_world @ (np.asarray(a, dtype=np.float64) - p)
        pb = rot_cam_from_world @ (np.asarray(b, dtype=np.float64) - p)
        za, zb = pa[2], pb[2]
        if za < _Z_NEAR and zb < _Z_NEAR:
            continue
        if za < _Z_NEAR or zb < _Z_NEAR:
            s = (_Z_NEAR - za) / (zb - za)
            crossing = pa + s * (pb - pa)
            if za < _Z_NEAR:
                pa = crossing
            else:
                pb = crossing
        ua = (config.focal * pa[0] / pa[2] + cx, config.focal * pa[1] / pa[2] + cy)
        ub = (config.focal * pb[0] / pb[2] + cx, config.focal * pb[1] / pb[2] + cy)
        clipped = _clip_2d(
            ua[0], ua[1], ub[0], ub[1], config.sensor_w - 1.0, config.sensor_h - 1.0
        )
        if clipped is None:
            continue
        x0, y0, x1, y1 = clipped
        _draw_line(mask, round(x0), round(y0), round(x1), round(y1))
    return mask


def generate_dataset(config: SceneConfig) -> tuple[str, str]:
    """Render the trajectory and return (events text, groundtruth text)."""
    n_samples = round(config.rate_hz * config.duration)
    if n_samples < 2:
        raise DataError(
            f"rate_hz * duration must give at least 2 samples, got {n_samples}"
        )
    dt = 1.0 / config.rate_hz
    times = [i * dt for i in range(n_samples)]
    poses = []
    masks = []
    for t in times:
        p, q = pose_at(config.trajectory, t)
        poses.append(PoseLabel(t, p, q))
        masks.append(render_edge_frame(config, p, q))

    rng = np.random.default_rng(config.seed)
    chunks = [np.empty(0, EVENT_DTYPE)]  # np.concatenate needs at least one array
    for i in range(1, n_samples):
        changed = masks[i] != masks[i - 1]
        ys, xs = np.nonzero(changed)  # row-major scan order
        if ys.size == 0:
            continue
        interval = np.empty(ys.size, EVENT_DTYPE)
        interval["t"] = times[i] - rng.random(ys.size) * dt  # lies in (times[i-1], times[i]]
        interval["x"], interval["y"] = xs, ys
        interval["rho"] = np.where(masks[i][ys, xs], 1, -1)
        chunks.append(interval[np.argsort(interval["t"], kind="stable")])
    events = np.concatenate(chunks)
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
    """Generate and write events.txt / groundtruth.txt; returns the paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    events_text, poses_text = generate_dataset(config)
    events_path = os.path.join(out_dir, "events.txt")
    poses_path = os.path.join(out_dir, "groundtruth.txt")
    with open(events_path, "w", encoding="utf-8") as f:
        f.write(events_text)
    with open(poses_path, "w", encoding="utf-8") as f:
        f.write(poses_text)
    return events_path, poses_path
