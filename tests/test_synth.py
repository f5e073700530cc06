import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import config, synth
from evpose.errors import DataError
from evpose.events import format_events, parse_events, parse_poses, window_events
from oracles import _draw_line, edge_frame_segments, interval_events
from oracles import quat_to_matrix as oracle_rotation

IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


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
            synth.render_edge_frame(cfg, p, q) for p, q in zip(poses.p, poses.q)
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
            end = window.sequence_index + 1
            assert window.label.t == poses.t[end]
            assert window.label.p.tobytes() + window.label.q.tobytes() == poses.p[end].tobytes() + poses.q[end].tobytes()
            lo = poses.t[window.sequence_index]
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
        for field in ("rate_hz", "duration", "focal"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DataError, match=f"{field} must be finite"):
                    dataclasses.replace(synth.default_scene(), **{field: bad})
        with pytest.raises(DataError, match=r"rate_hz \* duration must be finite"):
            dataclasses.replace(synth.default_scene(), rate_hz=1e300, duration=1e10)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(synth.Trajectory)])
    def test_trajectory_values_must_be_finite(self, field):
        for bad in (math.nan, math.inf):
            with pytest.raises(DataError, match=f"trajectory.{field} must be finite"):
                synth.Trajectory(**{field: (0.0, bad, 0.0)})

    @pytest.mark.parametrize(
        "fields, t, message",
        [
            ({"position_frequency_hz": (0.0, 1e308, 0.0)}, 0.5, "position_frequency_hz[1] makes the phase"),
            ({"euler_frequency_hz": (0.0, 0.0, 1e308)}, 0.0, "euler_frequency_hz[2] makes the phase"),  # inf * 0 = nan
            ({"euler_frequency_hz": (1e307, 0.0, 0.0), "euler_phase": (1.7e308, 0.0, 0.0)}, 0.25,
             "euler_frequency_hz[0] makes the phase"),
            ({"position_base": (0.0, 0.0, 1.7e308), "position_amplitude": (0.0, 0.0, 1.7e308),
              "position_phase": (0.0, 0.0, 1.0)}, 0.0, "position_base[2] + position_amplitude[2] makes the position"),
        ],
        ids=["position-phase", "euler-phase-nan-at-0", "euler-phase-inf", "position"],
    )
    def test_pose_at_rejects_a_non_finite_phase_or_position(self, fields, t, message):
        with pytest.raises(DataError) as exc:
            synth.pose_at(synth.Trajectory(**fields), t)
        assert str(exc.value).startswith(f"trajectory.{message}")
        assert str(exc.value).endswith(f"non-finite at t = {t!r}")

    @pytest.mark.parametrize(
        "euler_frequency_hz, message",
        [
            ((1e307, 0.0, 0.0), "trajectory.position_base[0] + position_amplitude[0] makes the position non-finite "
                                "at t = 0.0"),  # the Euler phase overflows only from t = 0.16
            ((1e308, 0.0, 0.0), "trajectory.euler_frequency_hz[0] makes the phase 2*pi*f*t + phase non-finite "
                                "at t = 0.0"),  # both at t = 0: the phase comes first
        ],
        ids=["earlier-position", "phase-at-the-same-time"],
    )
    def test_earliest_trajectory_fault_is_reported(self, euler_frequency_hz, message):
        trajectory = synth.Trajectory(
            position_base=(1.7e308, 0.0, 0.0),
            position_amplitude=(1.7e308, 0.0, 0.0),
            position_phase=(1.0, 0.0, 0.0),
            euler_frequency_hz=euler_frequency_hz,
            euler_phase=(1.7e308, 0.0, 0.0),
        )
        cfg = single_segment_scene([((0, 0, 1), (1, 0, 1))], duration=0.2, trajectory=trajectory)
        with pytest.raises(DataError) as exc:
            synth.generate_dataset(cfg)
        assert str(exc.value) == message

    @pytest.mark.parametrize("duration, n_samples", [(0.002, 0), (0.005, 1)])
    def test_fewer_than_two_samples_is_data_error(self, duration, n_samples):
        with pytest.raises(DataError, match=f"rate_hz \\* duration must give at least 2 samples, got {n_samples}$"):
            synth.generate_dataset(synth.default_scene(duration=duration))

    def test_sample_count_is_checked_before_any_pose(self, monkeypatch):
        """Pose arrays take 64 B a sample: 2**57 samples pass ``sys.maxsize``
        bytes, 2**56 do not but pass memory. Neither samples a pose."""

        def refuse(*args):
            raise AssertionError("a pose was sampled")

        monkeypatch.setattr(synth, "pose_at", refuse)
        cfg = synth.default_scene()
        for rate_hz, duration in ((2.0**57, 1.0), (1e9, 1e9)):
            with pytest.raises(DataError, match=f"^{round(rate_hz * duration)} samples take more than the"):
                synth.generate_dataset(dataclasses.replace(cfg, rate_hz=rate_hz, duration=duration))
        with pytest.raises(MemoryError):
            synth.generate_dataset(dataclasses.replace(cfg, rate_hz=2.0**56, duration=1.0))

    @pytest.mark.parametrize(
        "cfg, pixels_per_pass",
        [
            (synth.default_scene(seed=7), synth._PIXELS_PER_PASS),
            (synth.default_scene(seed=901, duration=0.5), synth._PIXELS_PER_PASS),
            (dataclasses.replace(synth.default_scene(seed=5, duration=0.3), sensor_w=8, sensor_h=8, focal=9.0),
             synth._PIXELS_PER_PASS),
            (dataclasses.replace(synth.default_scene(seed=2, duration=0.3), sensor_w=97, sensor_h=33, focal=15.0),
             synth._PIXELS_PER_PASS),
            (synth.default_scene(seed=7), 37 * 64 * 64),
        ],
        ids=["default-2s", "default-0.5s", "8px", "97x33", "default-2s-37-frame-passes"],
    )
    def test_events_equal_the_per_interval_loop(self, cfg, pixels_per_pass, monkeypatch):
        monkeypatch.setattr(synth, "_PIXELS_PER_PASS", pixels_per_pass)
        (events_text, _), masks, _ = rendered_passes(cfg, monkeypatch)
        expected = format_events(interval_events(masks, cfg.rate_hz, cfg.seed))
        assert events_text.splitlines() == expected.splitlines()  # a list diff names the first bad line

    @pytest.mark.parametrize(
        "cfg",
        [
            synth.default_scene(seed=4, duration=6.0),  # two passes by default
            dataclasses.replace(synth.default_scene(seed=2, duration=0.5), sensor_w=97, sensor_h=33, focal=15.0),
            dataclasses.replace(synth.default_scene(seed=3, duration=0.5), sensor_w=8, sensor_h=8, focal=9.0),
        ],
        ids=["default-6s", "97x33", "8px"],
    )
    def test_one_frame_passes_give_the_bytes_of_the_default_passes(self, cfg, tmp_path, monkeypatch):
        """Every pass renders two frames, the last of the pass before and one
        new one; generate_dataset and write_dataset give the default bytes."""
        want = synth.generate_dataset(cfg)
        monkeypatch.setattr(synth, "_ROWS_PER_PASS", 1)
        monkeypatch.setattr(synth, "_PIXELS_PER_PASS", 1)
        got, _, n_passes = rendered_passes(cfg, monkeypatch)
        assert n_passes == round(cfg.rate_hz * cfg.duration) - 1
        counts = synth.write_dataset(cfg, tmp_path)
        written = tuple((tmp_path / name).read_text(encoding="utf-8") for name in ("events.txt", "groundtruth.txt"))
        assert counts == tuple(text.count("\n") for text in want)
        for got_text, written_text, want_text in zip(got, written, want):  # list diffs name the first bad line
            assert got_text.splitlines() == want_text.splitlines()
            assert written_text.splitlines() == want_text.splitlines()
            assert got_text == written_text == want_text

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


def scene_poses(cfg):
    dt = 1.0 / cfg.rate_hz
    return [synth.pose_at(cfg.trajectory, i * dt) for i in range(round(cfg.rate_hz * cfg.duration))]


def rendered_passes(cfg, monkeypatch):
    """``generate_dataset(cfg)``, the masks (N, h, w) its passes rendered and
    the number of passes. Each pass starts from the last frame of the pass
    before, which must render to the same bytes both times."""
    passes, render = [], synth._render_frames
    monkeypatch.setattr(synth, "_render_frames", lambda *args: passes.append(render(*args)) or passes[-1])
    texts = synth.generate_dataset(cfg)
    monkeypatch.setattr(synth, "_render_frames", render)
    for before, after in zip(passes, passes[1:]):
        assert after[0].tobytes() == before[-1].tobytes()
    return texts, np.concatenate([passes[0]] + [masks[1:] for masks in passes[1:]]), len(passes)


def assert_masks_match_oracle(cfg, poses, batched=None):
    """The batched masks (by default one ``_render_frames`` pass over all
    poses), and each single-frame mask, equal the per-segment renderer's bytes."""
    if batched is None:
        batched = synth._render_frames(
            cfg, np.array([p for p, _ in poses]), np.array([synth.quat_to_matrix(q) for _, q in poses])
        )
    assert batched.shape == (len(poses), cfg.sensor_h, cfg.sensor_w)
    for mask, (p, q) in zip(batched, poses):
        want = edge_frame_segments(cfg, p, oracle_rotation(q))
        assert mask.tobytes() == want.tobytes()
        assert synth.render_edge_frame(cfg, p, q).tobytes() == want.tobytes()


class TestRendererOracle:
    """The batched renderer against ``oracles.edge_frame_segments``, byte for byte."""

    @pytest.mark.parametrize("rows_per_pass, n_passes", [(synth._ROWS_PER_PASS, 1), (150, 37)],
                             ids=["one-pass", "37-passes"])
    def test_default_scene_two_seconds(self, rows_per_pass, n_passes, monkeypatch):
        monkeypatch.setattr(synth, "_ROWS_PER_PASS", rows_per_pass)
        cfg = synth.default_scene(seed=7, duration=2.0)
        _, masks, got_passes = rendered_passes(cfg, monkeypatch)
        assert got_passes == n_passes
        assert_masks_match_oracle(cfg, scene_poses(cfg), masks)

    @pytest.mark.parametrize("rows_per_pass", [synth._ROWS_PER_PASS, 5, 1])
    def test_moving_scene(self, rows_per_pass, monkeypatch):
        monkeypatch.setattr(synth, "_ROWS_PER_PASS", rows_per_pass)
        cfg = TestGenerateDataset().moving_scene(duration=0.3)
        assert_masks_match_oracle(cfg, scene_poses(cfg), rendered_passes(cfg, monkeypatch)[1])

    @pytest.mark.parametrize(
        "segment",
        [
            ((0.05, 0.0, 2.0), (0.05, 0.0, -2.0)),  # crosses the near plane, far end in front
            ((-0.2, 0.1, -1.0), (0.3, -0.1, 1.5)),  # crosses the near plane, near end in front
            ((-0.3, 0.0, 1e-3), (0.3, 0.2, 1e-3)),  # lies on the near plane
            ((-0.3, 0.0, -1.0), (0.3, 0.0, -2.0)),  # wholly behind the camera
            ((0.0, 0.0, 2.0), (-5.0, 0.1, 2.0)),  # leaves through the left border
            ((0.0, 0.0, 2.0), (5.0, -0.1, 2.0)),  # leaves through the right border
            ((0.0, 0.0, 2.0), (0.1, -5.0, 2.0)),  # leaves through the top border
            ((0.0, 0.0, 2.0), (-0.1, 5.0, 2.0)),  # leaves through the bottom border
            ((-5.0, -4.0, 2.0), (5.0, 4.5, 2.0)),  # crosses the whole image
            ((-5.0, 3.0, 2.0), (-3.0, 5.0, 2.0)),  # passes outside a corner
            ((0.2, -0.4, 2.0), (0.2, 0.4, 3.0)),  # vertical
            ((-0.4, 0.25, 1.5), (0.4, 0.25, 1.5)),  # horizontal
            ((-0.4, -0.9, 2.0), (0.4, -0.9, 2.0)),  # horizontal, on the top border
            ((0.9, -0.4, 2.0), (0.9, 0.4, 2.0)),  # vertical, on the right border
            ((0.1, 0.1, 2.0), (0.1, 0.1, 2.0)),  # zero length
            ((-2.0, 0.0, 2.0), (-2.0, 0.0, 2.0)),  # zero length, outside the image
        ],
    )
    def test_edge_cases(self, segment):
        cfg = single_segment_scene([segment])
        poses = [(np.zeros(3), IDENTITY)]
        poses += [(np.array([0.05 * k, -0.03 * k, 0.1 * k]), synth.quat_from_euler(0.1 * k, -0.05 * k, 0.2 * k))
                  for k in (1, 2, 3)]
        assert_masks_match_oracle(cfg, poses)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        segments=st.lists(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6), min_size=1, max_size=4),
        poses=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), min_size=1, max_size=4),
        size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        focal=st.floats(1.0, 100.0),
    )
    def test_random_segments_and_poses(self, segments, poses, size, focal):
        cfg = dataclasses.replace(
            single_segment_scene([(tuple(s[:3]), tuple(s[3:])) for s in segments]),
            sensor_w=size[0],
            sensor_h=size[1],
            focal=focal,
        )
        poses = [(np.array(v[:3]), synth.quat_from_euler(*(math.pi * a for a in v[3:]))) for v in poses]
        assert_masks_match_oracle(cfg, poses)

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        segments=st.lists(
            st.tuples(*[st.integers(-24, 24)] * 4, st.sampled_from([-1.0, 0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0])),
            min_size=1,
            max_size=4,
        ),
        size=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        focal=st.sampled_from([1.0, 2.0]),
    )
    def test_grid_segments_hit_borders_and_ties(self, segments, size, focal):
        """Endpoints on a quarter grid at power-of-two depths project exactly, so
        lines lie on the image borders and rounding ties to even are common."""
        cfg = dataclasses.replace(
            single_segment_scene([((xa / 4, ya / 4, za), (xb / 4, yb / 4, zb)) for xa, ya, xb, yb, za, zb in segments]),
            sensor_w=size[0],
            sensor_h=size[1],
            focal=focal,
        )
        assert_masks_match_oracle(cfg, [(np.zeros(3), IDENTITY)])

    @pytest.mark.parametrize("duration, rows_per_pass", [(0.3, synth._ROWS_PER_PASS), (1.0, 100)])
    def test_dataset_text_equals_text_from_oracle_masks(self, duration, rows_per_pass, monkeypatch):
        monkeypatch.setattr(synth, "_ROWS_PER_PASS", rows_per_pass)
        cfg = synth.default_scene(seed=11, duration=duration)
        got = synth.generate_dataset(cfg)

        def oracle_frames(config, positions, rotations):
            return np.array([edge_frame_segments(config, p, r) for p, r in zip(positions, rotations)])

        monkeypatch.setattr(synth, "_render_frames", oracle_frames)
        want = synth.generate_dataset(cfg)
        for got_text, want_text in zip(got, want):  # list diffs name the first bad line, fast
            assert got_text.splitlines() == want_text.splitlines()

    @pytest.mark.parametrize("w, h", [(1, 1), (5, 3), (8, 8)])
    def test_rasterizer_draws_every_small_line_as_bresenham(self, w, h):
        """All lines with ends in [-3, 8]^2 at once: off-image ends, zero length, every octant."""
        span = np.arange(-3, 9)
        lines = np.stack(np.meshgrid(span, span, span, span, indexing="ij"), axis=-1).reshape(-1, 4)
        pixels, counts = synth._rasterize(lines, w, h)
        assert counts.sum() == pixels.size
        for line, run in zip(lines.tolist(), np.split(pixels, np.cumsum(counts)[:-1])):
            want = np.zeros((h, w), dtype=bool)
            _draw_line(want, *line)
            got = np.zeros(h * w, dtype=bool)
            got[run] = True
            assert got.tobytes() == want.tobytes(), line

    def test_every_segment_behind_the_camera_in_one_row_passes(self, monkeypatch):
        """Every pass clips to zero rows; the events text is empty and the poses text unchanged."""
        monkeypatch.setattr(synth, "_ROWS_PER_PASS", 1)
        scene = synth.default_scene(seed=3, duration=0.2)
        behind = tuple(((ax, ay, -az), (bx, by, -bz)) for (ax, ay, az), (bx, by, bz) in scene.segments)
        events_text, poses_text = synth.generate_dataset(dataclasses.replace(scene, segments=behind))
        assert events_text == ""
        assert poses_text == synth.generate_dataset(scene)[1]

    def test_projection_beyond_2_44_px_is_data_error(self):
        """Past 2**44 px an ulp exceeds 1/256 px and rounding in the clip moves
        ends by whole pixels: a line straight across the view drew 64, 64, 49
        and 1 of its 64 pixels at a focal of 1e15, 1e16, 1e17 and 1e18."""
        across = ((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
        cfg = dataclasses.replace(single_segment_scene([across]), focal=2.0**44 - 32)  # ends within ±2**44
        assert synth.render_edge_frame(cfg, np.zeros(3), IDENTITY).sum() == 64
        assert_masks_match_oracle(cfg, [(np.zeros(3), IDENTITY)])
        for focal in (1e15, 1e16, 1e17, 1e18):
            with pytest.raises(DataError, match="segment 0 does not project to finite image coordinates within"):
                synth.render_edge_frame(dataclasses.replace(cfg, focal=focal), np.zeros(3), IDENTITY)

    def test_non_finite_projection_is_data_error(self):
        fine = ((-0.3, 0.0, 2.0), (0.3, 0.0, 2.0))
        cfg = single_segment_scene([fine, ((0.0, 0.0, 1e308), (0.0, 0.0, -1e308))])
        with pytest.raises(DataError, match="segment 1 does not project to finite image coordinates"):
            synth.render_edge_frame(cfg, np.zeros(3), IDENTITY)
        with pytest.raises(DataError, match="segment 1"):
            synth.generate_dataset(cfg)


_WRITE_PEAK = """
import resource, sys
from evpose import synth
scene = synth.default_scene(duration=float(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
synth.write_dataset(scene, sys.argv[2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_write_dataset_peak_does_not_grow_with_duration(tmp_path):
    """Fresh interpreters write the default scene of 6 s (2 passes) and 24 s
    (5 passes): the longer one peaks at most 4 MiB higher, its poses and
    groundtruth text. Holding every frame's mask and the whole events text,
    the writer peaked about 5 MiB higher per second of scene."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    peaks_kib = []
    for duration in ("6", "24"):
        cmd = [sys.executable, "-c", _WRITE_PEAK, duration, str(tmp_path / duration)]
        run = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        peaks_kib.append(int(run.stdout))
    assert peaks_kib[1] - peaks_kib[0] <= 4 << 10, peaks_kib
