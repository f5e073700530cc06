import dataclasses
import math

import numpy as np
import pytest

from evpose import config, synth
from evpose.errors import DataError
from evpose.events import parse_events, parse_poses, window_events


def single_segment_scene(segments, duration=0.02, rate_hz=200.0, trajectory=None, seed=0):
    return synth.SceneConfig(
        sensor_w=64,
        sensor_h=64,
        focal=70.0,
        segments=tuple(segments),
        trajectory=trajectory or synth.Trajectory(),
        rate_hz=rate_hz,
        duration=duration,
        seed=seed,
    )


class TestProjection:
    def test_axis_segment_hits_image_center(self):
        cfg = single_segment_scene([((0.0, -0.1, 1.0), (0.0, 0.1, 1.0))])
        mask = synth.render_edge_frame(cfg, np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
        ys, xs = np.nonzero(mask)
        assert mask.any()
        assert np.all(np.abs(xs - 31.5) <= 1.0)  # vertical line through the center
        assert ys.min() < 32 < ys.max()

    def test_extent_shrinks_with_distance(self):
        spans = []
        for z in (1.0, 2.0, 4.0):
            cfg = single_segment_scene([((-0.3, 0.0, z), (0.3, 0.0, z))])
            mask = synth.render_edge_frame(cfg, np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
            xs = np.nonzero(mask)[1]
            spans.append(xs.max() - xs.min())
        assert spans[0] > spans[1] > spans[2]

    def test_behind_camera_clipped(self):
        cfg = single_segment_scene([((-0.3, 0.0, -1.0), (0.3, 0.0, -2.0))])
        mask = synth.render_edge_frame(cfg, np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
        assert not mask.any()

    def test_partially_behind_camera_draws_front_part(self):
        cfg = single_segment_scene([((0.05, 0.0, 2.0), (0.05, 0.0, -2.0))])
        mask = synth.render_edge_frame(cfg, np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
        assert mask.any()


class TestQuaternions:
    def test_euler_identity(self):
        q = synth.quat_from_euler(0.0, 0.0, 0.0)
        assert q.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_matrix_is_rotation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            r = synth.quat_to_matrix(q)
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_yaw_rotates_about_z(self):
        q = synth.quat_from_euler(0.0, 0.0, math.pi / 2)
        r = synth.quat_to_matrix(q)
        assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


class TestGenerateDataset:
    def test_static_trajectory_zero_events(self):
        cfg = single_segment_scene([((-0.3, 0.0, 2.0), (0.3, 0.0, 2.0))], duration=0.05)
        events_text, poses_text = synth.generate_dataset(cfg)
        assert events_text == ""
        assert len(poses_text.splitlines()) == round(cfg.rate_hz * cfg.duration)

    def moving_scene(self, duration=0.1, seed=3):
        trajectory = synth.Trajectory(
            position_amplitude=(0.3, 0.2, 0.0),
            position_frequency_hz=(3.0, 5.0, 0.0),
        )
        return single_segment_scene(
            [((-0.5, -0.3, 2.0), (0.5, 0.3, 2.0)), ((-0.5, 0.3, 2.5), (0.5, -0.3, 2.5))],
            duration=duration,
            trajectory=trajectory,
            seed=seed,
        )

    def test_events_only_at_mask_diffs_and_count_matches_hamming(self):
        cfg = self.moving_scene()
        events_text, poses_text = synth.generate_dataset(cfg)
        events = parse_events(events_text, cfg.sensor_w, cfg.sensor_h)
        poses = parse_poses(poses_text)
        masks = [
            synth.render_edge_frame(cfg, pose.p, pose.q) for pose in poses
        ]
        total_hamming = sum(
            int(np.sum(masks[i] != masks[i - 1])) for i in range(1, len(masks))
        )
        assert len(events) == total_hamming > 0
        # polarity matches the new mask value at each event pixel
        for t, x, y, rho in events.tolist():
            idx = min(int(math.ceil(t * cfg.rate_hz - 1e-12)), len(masks) - 1)
            new_mask = masks[idx]
            old_mask = masks[idx - 1]
            assert new_mask[y, x] != old_mask[y, x]
            assert (rho == 1) == bool(new_mask[y, x])

    def test_deterministic_bytes(self):
        cfg = self.moving_scene(seed=9)
        a = synth.generate_dataset(cfg)
        b = synth.generate_dataset(cfg)
        assert a == b

    def test_round_trip_through_windowing(self):
        cfg = self.moving_scene(duration=0.2)
        events_text, poses_text = synth.generate_dataset(cfg)
        events = parse_events(events_text, cfg.sensor_w, cfg.sensor_h)
        poses = parse_poses(poses_text)
        windows, skipped = window_events(events, poses)
        assert len(windows) + skipped == len(poses) - 1
        for window in windows:
            assert window.label is poses[window.sequence_index + 1]
            lo = poses[window.sequence_index].t
            hi = window.label.t
            assert all(lo < t <= hi for t in window.events["t"].tolist())

    def test_timestamps_sorted(self):
        cfg = self.moving_scene(duration=0.3)
        events_text, _ = synth.generate_dataset(cfg)
        events = parse_events(events_text, cfg.sensor_w, cfg.sensor_h)
        ts = events["t"].tolist()
        assert ts == sorted(ts)

    def test_config_validation(self):
        with pytest.raises(DataError):
            single_segment_scene([], duration=1.0)
        with pytest.raises(DataError):
            single_segment_scene([((0, 0, 1), (1, 0, 1))], duration=-1.0)
        with pytest.raises(DataError):
            single_segment_scene([((0, 0, 1), (1, 0, 1))], seed=-1)
        with pytest.raises(DataError):  # coordinates are stored as uint16
            dataclasses.replace(synth.default_scene(), sensor_w=65536)

    def test_json_round_trip(self):
        cfg = synth.default_scene()
        again = config.from_json(synth.SceneConfig, config.to_json(cfg))
        assert again == cfg


class TestDefaultScene:
    def test_shape_and_yield(self):
        cfg = synth.default_scene(seed=7, rate_hz=200.0, duration=0.25)
        events_text, poses_text = synth.generate_dataset(cfg)
        events = parse_events(events_text, cfg.sensor_w, cfg.sensor_h)
        poses = parse_poses(poses_text)
        windows, _ = window_events(events, poses)
        assert len(poses) == 50
        assert len(windows) >= 30  # dense motion: most intervals produce events
