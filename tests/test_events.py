import math

import numpy as np
import pytest

from evpose.errors import (
    BoundsError,
    InsufficientDataError,
    InvalidRotationError,
    OrderingError,
    ParseError,
)
from evpose.events import (
    Event,
    canonicalize_quaternion,
    format_events,
    format_poses,
    parse_events,
    parse_poses,
    split_novel,
    split_random,
    window_events,
)


def make_poses(ts):
    lines = "".join(f"{t} 0 0 0 0 0 0 1\n" for t in ts)
    return parse_poses(lines)


class TestParseEvents:
    def test_format_definition(self):
        evs = parse_events("0.003811 96 133 0\n", 240, 180)
        assert evs == [Event(0.003811, 96, 133, -1)]

    def test_positive_polarity(self):
        assert parse_events("1.5 0 0 1\n", 240, 180) == [Event(1.5, 0, 0, 1)]

    def test_out_of_range_coordinate(self):
        with pytest.raises(BoundsError):
            parse_events("0.1 500 10 1\n", 240, 180)

    def test_malformed_line_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_events("0.1 1 2 1\nbogus line\n", 240, 180)
        assert exc.value.line_no == 2

    def test_bad_polarity(self):
        with pytest.raises(ParseError):
            parse_events("0.1 1 2 7\n", 240, 180)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ParseError):
            parse_events("-0.5 1 2 1\n", 240, 180)

    def test_non_monotone_warns_only(self):
        with pytest.warns(UserWarning):
            evs = parse_events("0.2 1 1 1\n0.1 2 2 0\n", 64, 64)
        assert len(evs) == 2

    def test_blank_lines_skipped(self):
        assert len(parse_events("\n0.1 1 1 1\n\n", 64, 64)) == 1

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        lines = []
        for t in sorted(rng.random(200) * 10):
            lines.append(
                f"{float(t)!r} {rng.integers(0, 64)} {rng.integers(0, 64)} {rng.integers(0, 2)}"
            )
        text = "\n".join(lines) + "\n"
        evs = parse_events(text, 64, 64)
        assert parse_events(format_events(evs), 64, 64) == evs


class TestParsePoses:
    def test_normalization(self):
        poses = parse_poses("0.0 1 2 3 0 0 0 2\n")
        assert poses[0].t == 0.0
        assert poses[0].p.tolist() == [1.0, 2.0, 3.0]
        assert poses[0].q.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_sign_canonicalization_double_cover(self):
        poses = parse_poses("0.0 0 0 0 0 0 0 -1\n")
        assert poses[0].q.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_zero_quaternion_rejected(self):
        with pytest.raises(InvalidRotationError):
            parse_poses("0.0 0 0 0 0 0 0 0\n")

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(OrderingError):
            parse_poses("0.0 0 0 0 0 0 0 1\n0.0 1 1 1 0 0 0 1\n")

    @pytest.mark.parametrize("position", ["nan 0 0", "0 nan 0", "0 0 inf", "-inf 0 0"])
    def test_non_finite_position_rejected(self, position):
        with pytest.raises(ParseError) as exc:
            parse_poses(f"0.0 0 0 0 0 0 0 1\n0.1 {position} 0 0 0 1\n")
        assert exc.value.line_no == 2

    def test_qw_zero_uses_first_nonzero_component(self):
        poses = parse_poses("0.0 0 0 0 0 -1 0 0\n")
        assert poses[0].q.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(9)
        lines = []
        for i in range(100):
            q = [float(v) for v in rng.standard_normal(4) * 3]
            lines.append(f"{i * 0.01} 0 0 0 {q[0]!r} {q[1]!r} {q[2]!r} {q[3]!r}")
        poses = parse_poses("\n".join(lines))
        for pose in poses:
            assert abs(np.linalg.norm(pose.q) - 1.0) < 1e-9
            assert pose.q[3] >= 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        lines = []
        for i in range(50):
            vals = [float(v) for v in rng.standard_normal(7)]
            lines.append(f"{i * 0.005!r} " + " ".join(repr(v) for v in vals))
        poses = parse_poses("\n".join(lines))
        reparsed = parse_poses(format_poses(poses))
        for a, b in zip(poses, reparsed):
            assert a.t == b.t
            assert a.p.tolist() == b.p.tolist()
            assert a.q.tolist() == b.q.tolist()

    def test_canonicalize_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            q1 = canonicalize_quaternion(rng.standard_normal(4))
            q2 = canonicalize_quaternion(q1)
            assert q1.tolist() == q2.tolist()


class TestWindowEvents:
    def test_interval_assignment(self):
        poses = make_poses([0.0, 0.005, 0.010])
        evs = parse_events("0.001 1 1 1\n0.004 2 2 1\n0.007 3 3 0\n", 64, 64)
        windows, skipped = window_events(evs, poses)
        assert skipped == 0
        assert len(windows) == 2
        assert [e.t for e in windows[0].events] == [0.001, 0.004]
        assert windows[0].label.t == 0.005
        assert windows[0].sequence_index == 0
        assert [e.t for e in windows[1].events] == [0.007]
        assert windows[1].label.t == 0.010

    def test_event_exactly_at_pose_time_joins_earlier_window(self):
        poses = make_poses([0.0, 0.005, 0.010])
        evs = parse_events("0.005 1 1 1\n", 64, 64)
        windows, _ = window_events(evs, poses)
        assert len(windows) == 1
        assert windows[0].label.t == 0.005

    def test_empty_interval_skipped_and_counted(self):
        poses = make_poses([0.0, 0.005])
        windows, skipped = window_events([], poses)
        assert windows == []
        assert skipped == 1

    def test_insufficient_poses(self):
        with pytest.raises(InsufficientDataError):
            window_events([], make_poses([0.0]))

    def test_events_outside_range_discarded(self):
        poses = make_poses([0.1, 0.2])
        evs = parse_events("0.05 1 1 1\n0.1 2 2 1\n0.15 3 3 1\n0.25 4 4 1\n", 64, 64)
        windows, _ = window_events(evs, poses)
        assert [e.t for e in windows[0].events] == [0.15]

    def test_partition_of_retained_events(self):
        rng = np.random.default_rng(3)
        poses = make_poses([round(0.01 * i, 6) for i in range(20)])
        evs = [
            Event(float(rng.uniform(-0.05, 0.25)), int(rng.integers(0, 8)), int(rng.integers(0, 8)), 1)
            for _ in range(500)
        ]
        windows, _ = window_events(evs, poses)
        retained = [e for w in windows for e in w.events]
        in_range = [e for e in evs if poses[0].t < e.t <= poses[-1].t]
        assert sorted(retained) == sorted(in_range)
        # each retained event appears exactly once
        assert len(retained) == len(in_range)

    def test_windows_sorted_with_stable_ties(self):
        poses = make_poses([0.0, 1.0])
        evs = [Event(0.5, 1, 1, 1), Event(0.3, 2, 2, 1), Event(0.5, 3, 3, 1)]
        windows, _ = window_events(evs, poses)
        assert [e.x for e in windows[0].events] == [2, 1, 3]


class TestSplits:
    def make_windows(self, n):
        poses = make_poses([0.005 * i for i in range(n + 1)])
        evs = [Event(0.005 * i + 0.001, i % 8, i % 8, 1) for i in range(n)]
        windows, _ = window_events(evs, poses)
        assert len(windows) == n
        return windows

    def test_random_split_deterministic(self):
        windows = self.make_windows(10)
        a = split_random(windows, 0.7, seed=42)
        b = split_random(windows, 0.7, seed=42)
        assert [w.sequence_index for w in a[0]] == [w.sequence_index for w in b[0]]
        assert [w.sequence_index for w in a[1]] == [w.sequence_index for w in b[1]]

    def test_random_split_floor_sizes(self):
        for n in (3, 10, 101):
            windows = self.make_windows(n)
            train, test = split_random(windows, 0.7, seed=1)
            assert len(train) == math.floor(0.7 * n)
            assert len(train) + len(test) == n

    def test_random_split_partition_and_order(self):
        windows = self.make_windows(20)
        train, test = split_random(windows, 0.7, seed=5)
        ids = sorted(w.sequence_index for w in train + test)
        assert ids == list(range(20))
        assert [w.sequence_index for w in train] == sorted(w.sequence_index for w in train)
        assert [w.sequence_index for w in test] == sorted(w.sequence_index for w in test)

    def test_random_split_seeds_differ(self):
        windows = self.make_windows(10)
        partitions = {
            tuple(w.sequence_index for w in split_random(windows, 0.7, seed=s)[0])
            for s in range(100)
        }
        assert len(partitions) > 1

    def test_random_split_too_few(self):
        with pytest.raises(InsufficientDataError):
            split_random(self.make_windows(2)[:1], 0.7, seed=0)

    def test_novel_split_prefix(self):
        windows = self.make_windows(10)
        train, test = split_novel(windows, 0.7)
        assert [w.sequence_index for w in train] == list(range(7))
        assert [w.sequence_index for w in test] == [7, 8, 9]

    def test_novel_split_floor(self):
        windows = self.make_windows(3)
        train, test = split_novel(windows, 0.7)
        assert [w.sequence_index for w in train] == [0, 1]
        assert [w.sequence_index for w in test] == [2]

    def test_novel_split_preserves_order(self):
        windows = self.make_windows(9)
        train, test = split_novel(windows, 0.5)
        assert [w.sequence_index for w in train + test] == list(range(9))

    def test_bad_fraction(self):
        windows = self.make_windows(4)
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_random(windows, fraction, seed=0)
            with pytest.raises(ValueError):
                split_novel(windows, fraction)
