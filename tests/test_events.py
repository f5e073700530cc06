import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import events as events_module
from evpose.errors import (
    BoundsError,
    DataError,
    InsufficientDataError,
    InvalidRotationError,
    OrderingError,
    ParseError,
)
from evpose.events import (
    EVENT_DTYPE,
    canonicalize_quaternion,
    format_events,
    format_poses,
    parse_events,
    parse_poses,
    split_novel,
    split_random,
    window_events,
)
from oracles import format_events_lines, parse_events_lines, parse_poses_lines


def events(*rows):
    return np.array(list(rows), dtype=EVENT_DTYPE)


def make_poses(ts):
    lines = "".join(f"{t} 0 0 0 0 0 0 1\n" for t in ts)
    return parse_poses(lines)


class TestParseEvents:
    def test_format_definition(self):
        evs = parse_events("0.003811 96 133 0\n", 240, 180)
        assert evs.dtype == EVENT_DTYPE
        assert evs.tolist() == [(0.003811, 96, 133, -1)]

    def test_positive_polarity(self):
        assert parse_events("1.5 0 0 1\n", 240, 180).tolist() == [(1.5, 0, 0, 1)]

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

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_valid_stream_never_reaches_the_per_line_parser(self, monkeypatch, end):
        def refuse(*args):
            raise AssertionError("per-line parser called")

        monkeypatch.setattr(events_module, "_parse_event_lines", refuse)
        text = end.join(["0.1 1 2 1", "", "0.2 3 4 0", "0.3 5 5 1"]) + end
        evs = parse_events(text, 8, 6)
        assert evs.tobytes() == events((0.1, 1, 2, 1), (0.2, 3, 4, -1), (0.3, 5, 5, 1)).tobytes()

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        lines = []
        for t in sorted(rng.random(200) * 10):
            lines.append(
                f"{float(t)!r} {rng.integers(0, 64)} {rng.integers(0, 64)} {rng.integers(0, 2)}"
            )
        text = "\n".join(lines) + "\n"
        evs = parse_events(text, 64, 64)
        assert parse_events(format_events(evs), 64, 64).tobytes() == evs.tobytes()

    def test_format_text(self):
        evs = events((0.1, 3, 4, 1), (0.30000000000000004, 0, 63, -1))
        assert format_events(evs) == "0.1 3 4 1\n0.30000000000000004 0 63 0\n"

    def test_sensor_side_above_uint16_rejected(self):
        with pytest.raises(BoundsError):
            parse_events("0.1 1 2 1\n", 65536, 8)
        assert len(parse_events("0.1 65534 2 1\n", 65535, 8)) == 1


# Every break str.splitlines knows; all but "\n" and "\r" are field
# separators to np.loadtxt.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SENSOR_W, _SENSOR_H = 8, 6
_T_SPELLINGS = ["0", "-0.0", "+1.5", ".5", "1e-3", "1_0", "\u0661", "-0.5", "inf", "-inf", "nan", "1e999", "1,5", "#"]
_XY_SPELLINGS = ["+1", "01", "-0", "1_0", "\u0662", "2.0", "-1", "8", "6", "65537", "99999999999999999999", "x"]
_P_SPELLINGS = ["+1", "01", "-0", "1_0", "\u0661", "1.0", "2", "-1", "257", "True"]


@st.composite
def _event_texts(draw):
    """Valid event lines with up to three injected mutations."""
    n = draw(st.integers(0, 6))
    fields = [
        [
            repr(draw(st.floats(0.0, 10.0))),
            str(draw(st.integers(0, _SENSOR_W - 1))),
            str(draw(st.integers(0, _SENSOR_H - 1))),
            draw(st.sampled_from(["0", "1"])),
        ]
        for _ in range(n)
    ]
    separators = [[draw(st.sampled_from([" ", "\t", "  "])) for _ in range(3)] for _ in range(n)]
    extra_lines, anywhere = [], []
    for kind in draw(st.lists(st.sampled_from(["field", "separator", "line", "anywhere"]), max_size=3)):
        if kind == "field" and n:
            column = draw(st.integers(0, 3))
            spellings = (_T_SPELLINGS, _XY_SPELLINGS, _XY_SPELLINGS, _P_SPELLINGS)[column]
            fields[draw(st.integers(0, n - 1))][column] = draw(st.sampled_from(spellings))
        elif kind == "separator" and n:
            separators[draw(st.integers(0, n - 1))][draw(st.integers(0, 2))] = draw(st.sampled_from(_LINE_BREAKS))
        elif kind == "line":
            extra_lines.append(draw(st.sampled_from(["", "   ", "\t", "#", "# 0.1 1 1 1", "0.1 1 1"])))
        elif kind == "anywhere":
            anywhere.append(draw(st.sampled_from(_LINE_BREAKS + ["\x00", "\x1f", " "])))
    rows = ["".join(f + sep for f, sep in zip(row, seps + [""])) for row, seps in zip(fields, separators)]
    for line in extra_lines:
        rows.insert(draw(st.integers(0, len(rows))), line)
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = "".join(row + end for row in rows)
    if text and draw(st.booleans()):
        text = text[: -len(end)]  # no final line break
    for char in anywhere:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + char + text[at:]
    return text


def _outcome(parse, text):
    """The result, or the error's (type, message, line number), and the
    messages of the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except DataError as exc:
            result = type(exc), str(exc), getattr(exc, "line_no", None)
    return result, [str(w.message) for w in caught]


@settings(max_examples=400, deadline=None, database=None)
@given(text=_event_texts())
def test_parse_events_matches_per_line_oracle(text):
    got = _outcome(lambda s: parse_events(s, _SENSOR_W, _SENSOR_H), text)
    want = _outcome(lambda s: parse_events_lines(s, _SENSOR_W, _SENSOR_H), text)
    if isinstance(want[0], tuple):
        assert got == want
    else:
        assert got[0].dtype == EVENT_DTYPE
        assert got[0].tobytes() == np.array(want[0], EVENT_DTYPE).tobytes()
        assert got[1] == want[1]


@pytest.mark.parametrize("brk", _LINE_BREAKS[3:])
def test_mid_line_break_is_two_lines(brk):
    with pytest.raises(ParseError) as exc:
        parse_events(f"0.5 1 1 1\n1.0 2{brk}3 1\n", _SENSOR_W, _SENSOR_H)
    assert exc.value.line_no == 2


_COORDS = st.one_of(st.integers(0, 3), st.integers(0, 65535))  # small values repeat, so tails are shared


@settings(max_examples=300, deadline=None, database=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, 1e22])),
            _COORDS,
            _COORDS,
            st.sampled_from([-1, 1]),
        ),
        max_size=40,
    )
)
def test_format_events_matches_per_line_oracle(rows):
    evs = np.array(rows, dtype=EVENT_DTYPE)
    assert format_events(evs) == format_events_lines(evs)


class TestParsePoses:
    def test_normalization(self):
        poses = parse_poses("0.0 1 2 3 0 0 0 2\n")
        assert poses.t[0] == 0.0
        assert poses.p[0].tolist() == [1.0, 2.0, 3.0]
        assert poses.q[0].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_sign_canonicalization_double_cover(self):
        poses = parse_poses("0.0 0 0 0 0 0 0 -1\n")
        assert poses.q[0].tolist() == [0.0, 0.0, 0.0, 1.0]

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
        assert poses.q[0].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(9)
        lines = []
        for i in range(100):
            q = [float(v) for v in rng.standard_normal(4) * 3]
            lines.append(f"{i * 0.01} 0 0 0 {q[0]!r} {q[1]!r} {q[2]!r} {q[3]!r}")
        poses = parse_poses("\n".join(lines))
        for q in poses.q:
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9
            assert q[3] >= 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        lines = []
        for i in range(50):
            vals = [float(v) for v in rng.standard_normal(7)]
            lines.append(f"{i * 0.005!r} " + " ".join(repr(v) for v in vals))
        poses = parse_poses("\n".join(lines))
        reparsed = parse_poses(format_poses(poses))
        assert poses.t.tolist() == reparsed.t.tolist()
        assert poses.p.tolist() == reparsed.p.tolist()
        assert poses.q.tolist() == reparsed.q.tolist()

    def test_canonicalize_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            q1 = canonicalize_quaternion(rng.standard_normal(4))
            q2 = canonicalize_quaternion(q1)
            assert q1.tolist() == q2.tolist()


def _columns(poses):
    """The (n, 8) rows of a pose stream."""
    return np.column_stack((poses.t, poses.p, poses.q))


def _pose_rows(poses):
    """The (n, 8) rows of a list of one-pose Poses."""
    return np.array([[pose.t, *pose.p.tolist(), *pose.q.tolist()] for pose in poses], dtype=np.float64).reshape(-1, 8)


# Norm offsets around the 1e-12 pass-through bound of canonicalize_quaternion.
_NORM_OFFSETS = [0.0, 3e-16, 5e-13, 9.8e-13, 1e-12 - 1e-14, 1e-12 - 1e-15, 1e-12, 1e-12 + 1e-15, 1.02e-12, 3e-12, 0.5]
_SPECIAL_QUATERNIONS = [
    [0.0, -0.6, 0.8, 0.0],  # qw +0.0, first nonzero negative
    [-0.0, -0.0, -1.0, -0.0],  # qw -0.0
    [0.0, 0.0, 0.0, -0.0],  # zero norm
    [-0.0, 0.6, -0.0, -0.8],  # negative qw, -0.0 components
    [0.0, 0.0, 0.0, 2.0],
    [0.5, 0.5, 0.5, math.nan],
    [math.inf, 0.0, 0.0, 1.0],
]
_POSE_SPELLINGS = ["nan", "inf", "-inf", "1e999", "1_0", "+1.5", ".5", "-0.0", "\u0661", "1,5", "x"]


@st.composite
def _quaternions(draw):
    kind = draw(st.sampled_from(["unit", "unit", "scaled", "special"]))
    if kind == "special":
        return draw(st.sampled_from(_SPECIAL_QUATERNIONS))
    q = [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    n = math.sqrt(sum(v * v for v in q))
    if n < 1e-3:
        return [0.0, 0.0, 0.0, 1.0]
    if kind == "unit":
        scale = (1.0 + draw(st.sampled_from(_NORM_OFFSETS)) * draw(st.sampled_from([-1.0, 1.0]))) / n
    else:
        scale = draw(st.sampled_from([1e-300, 1e-160, 1e-150, 3.0, 1e150, 1e160, 1e300]))
    return [v * scale for v in q]


@st.composite
def _pose_texts(draw):
    """Pose lines with increasing times and quaternions near the norm
    bound, with up to two injected mutations."""
    n = draw(st.integers(0, 6))
    steps = [draw(st.sampled_from([1e-3, 0.5, 1.0, 5e-324])) for _ in range(n)]
    t, fields = draw(st.sampled_from([0.0, -1.0, 1e6])), []
    for step in steps:
        t += step
        position = [draw(st.floats(-10.0, 10.0)) for _ in range(3)]
        fields.append([repr(v) for v in [t, *position, *draw(_quaternions())]])
    separators = [[draw(st.sampled_from([" ", "\t", "  "])) for _ in range(7)] for _ in range(n)]
    extra_lines = []
    for kind in draw(st.lists(st.sampled_from(["field", "time", "line"]), max_size=2)):
        if kind == "field" and n:
            fields[draw(st.integers(0, n - 1))][draw(st.integers(0, 7))] = draw(st.sampled_from(_POSE_SPELLINGS))
        elif kind == "time" and n > 1:
            i = draw(st.integers(1, n - 1))
            fields[i][0] = fields[i - 1][0]  # not after the previous line
        elif kind == "line":
            extra_lines.append(draw(st.sampled_from(["", "   ", "\t", "0.1 0 0 0 0 0 0", "0 0 0 0 0 0 0 1 0"])))
    rows = ["".join(f + sep for f, sep in zip(row, seps + [""])) for row, seps in zip(fields, separators)]
    for line in extra_lines:
        rows.insert(draw(st.integers(0, len(rows))), line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(row + end for row in rows)
    if text and draw(st.booleans()):
        text = text[: -len(end)]  # no final line break
    return text


@settings(max_examples=500, deadline=None, database=None)
@given(text=_pose_texts())
def test_parse_poses_matches_per_line_oracle(text):
    got = _outcome(parse_poses, text)
    want = _outcome(parse_poses_lines, text)
    if isinstance(want[0], tuple):
        assert got == want
    else:
        assert _columns(got[0]).tobytes() == _pose_rows(want[0]).tobytes()
        assert got[1] == want[1]


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_valid_poses_never_reach_the_per_line_parser(monkeypatch, end):
    def refuse(*args):
        raise AssertionError("per-line parser called")

    monkeypatch.setattr(events_module, "_parse_pose_lines", refuse)
    text = end.join(["0.1 1 2 3 0 0 0 -1", "", "0.2 4 5 6 -0.0 0.6 -0.0 -0.8", "0.3 7 8 9 0.5 0.5 0.5 0.5"]) + end
    assert _columns(parse_poses(text)).tobytes() == _pose_rows(parse_poses_lines(text)).tobytes()


@pytest.mark.parametrize("offset", _NORM_OFFSETS + [-v for v in _NORM_OFFSETS])
def test_norms_near_the_pass_through_bound_match_the_oracle(offset):
    rng = np.random.default_rng(23)
    lines = []
    for i in range(200):
        q = rng.standard_normal(4)
        q *= (1.0 + offset) / np.linalg.norm(q)
        lines.append(" ".join(repr(float(v)) for v in [i * 0.01, 0.0, 0.0, 0.0, *q]))
    text = "\n".join(lines)
    assert _columns(parse_poses(text)).tobytes() == _pose_rows(parse_poses_lines(text)).tobytes()


class TestWindowEvents:
    def test_interval_assignment(self):
        poses = make_poses([0.0, 0.005, 0.010])
        evs = parse_events("0.001 1 1 1\n0.004 2 2 1\n0.007 3 3 0\n", 64, 64)
        windows, skipped = window_events(evs, poses)
        assert skipped == 0
        assert len(windows) == 2
        assert windows[0].events["t"].tolist() == [0.001, 0.004]
        assert windows[0].label.t == 0.005
        assert windows[0].sequence_index == 0
        assert windows[1].events["t"].tolist() == [0.007]
        assert windows[1].label.t == 0.010

    def test_event_exactly_at_pose_time_joins_earlier_window(self):
        poses = make_poses([0.0, 0.005, 0.010])
        evs = parse_events("0.005 1 1 1\n", 64, 64)
        windows, _ = window_events(evs, poses)
        assert len(windows) == 1
        assert windows[0].label.t == 0.005

    def test_empty_interval_skipped_and_counted(self):
        poses = make_poses([0.0, 0.005])
        windows, skipped = window_events(events(), poses)
        assert windows == []
        assert skipped == 1

    def test_insufficient_poses(self):
        with pytest.raises(InsufficientDataError):
            window_events(events(), make_poses([0.0]))

    def test_events_outside_range_discarded(self):
        poses = make_poses([0.1, 0.2])
        evs = parse_events("0.05 1 1 1\n0.1 2 2 1\n0.15 3 3 1\n0.25 4 4 1\n", 64, 64)
        windows, _ = window_events(evs, poses)
        assert windows[0].events["t"].tolist() == [0.15]

    def test_partition_of_retained_events(self):
        rng = np.random.default_rng(3)
        poses = make_poses([round(0.01 * i, 6) for i in range(20)])
        evs = events(
            *((float(rng.uniform(-0.05, 0.25)), int(rng.integers(0, 8)), int(rng.integers(0, 8)), 1)
              for _ in range(500))
        )
        windows, _ = window_events(evs, poses)
        retained = [e for w in windows for e in w.events.tolist()]
        in_range = [e for e in evs.tolist() if poses.t[0] < e[0] <= poses.t[-1]]
        assert sorted(retained) == sorted(in_range)
        # each retained event appears exactly once
        assert len(retained) == len(in_range)

    def test_monotone_stream_windows_are_views(self):
        poses = make_poses([0.1, 0.2, 0.3])
        evs = parse_events("0.05 1 1 1\n0.15 2 2 1\n0.25 3 3 0\n0.35 4 4 1\n", 64, 64)
        windows, _ = window_events(evs, poses)
        assert [w.events.base is evs for w in windows] == [True, True]

    def test_windows_sorted_with_stable_ties(self):
        poses = make_poses([0.0, 1.0])
        evs = events((0.5, 1, 1, 1), (0.3, 2, 2, 1), (0.5, 3, 3, 1))
        windows, _ = window_events(evs, poses)
        assert windows[0].events["x"].tolist() == [2, 1, 3]


class TestSplits:
    def make_windows(self, n):
        poses = make_poses([0.005 * i for i in range(n + 1)])
        evs = events(*((0.005 * i + 0.001, i % 8, i % 8, 1) for i in range(n)))
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
