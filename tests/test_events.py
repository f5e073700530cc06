import math
import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evpose import events as events_module
from evpose import synth
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
    Poses,
    canonicalize_quaternion,
    format_events,
    format_poses,
    parse_events,
    parse_poses,
    read_events,
    read_poses,
    split_novel,
    split_random,
    window_events,
)
from oracles import format_events_lines, parse_events_lines, parse_poses_lines


def events(*rows):
    return np.array(list(rows), dtype=EVENT_DTYPE)


def _refuse(*args):
    raise AssertionError("per-line parser called")


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

    @pytest.mark.parametrize("piece_size", [1, 3, 12, events_module.PIECE_SIZE])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_valid_stream_never_reaches_the_per_line_parser(self, monkeypatch, end, piece_size, tmp_path):
        monkeypatch.setattr(events_module, "_parse_event_lines", _refuse)
        monkeypatch.setattr(events_module, "PIECE_SIZE", piece_size)
        text = end.join(["0.1 1 2 1", "", "0.2 3 4 0", "0.3 5 5 1"]) + end
        path = tmp_path / "events.txt"
        path.write_bytes(text.encode())
        want = events((0.1, 1, 2, 1), (0.2, 3, 4, -1), (0.3, 5, 5, 1)).tobytes()
        assert parse_events(text, 8, 6).tobytes() == want
        assert read_events(path, 8, 6).tobytes() == want

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


# Piece sizes small enough that piece boundaries fall inside the examples.
_PIECE_SIZES = st.sampled_from([1, 2, 5, 16, events_module.PIECE_SIZE])


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    return tmp_path_factory.mktemp("pieces") / "data.txt"


def _outcomes(parse, read, text, path, piece_size):
    """The outcome of ``parse(text)`` and that of ``read(path)`` with
    ``text`` written to ``path`` as UTF-8, both in pieces of
    ``piece_size``."""
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(events_module, "PIECE_SIZE", piece_size):
        return _outcome(parse, text), _outcome(lambda _: read(path), text)


def _assert_same_events(got, want):
    if isinstance(want[0], tuple):
        assert got == want
    else:
        assert got[0].dtype == EVENT_DTYPE
        assert got[0].tobytes() == np.array(want[0], EVENT_DTYPE).tobytes()
        assert got[1] == want[1]


def _event_outcomes(text, path, piece_size):
    return _outcomes(lambda s: parse_events(s, _SENSOR_W, _SENSOR_H),
                     lambda p: read_events(p, _SENSOR_W, _SENSOR_H), text, path, piece_size)


@settings(max_examples=400, deadline=None, database=None)
@given(text=_event_texts(), piece_size=_PIECE_SIZES)
@example(text="\x1f\n0.0 0 0 0\n", piece_size=1)  # a piece np.loadtxt finds blank
def test_parse_events_matches_per_line_oracle(text, piece_size, data_file):
    want = _outcome(lambda s: parse_events_lines(s, _SENSOR_W, _SENSOR_H), text)
    for got in _event_outcomes(text, data_file, piece_size):
        _assert_same_events(got, want)


def test_non_monotone_pair_across_a_piece_boundary_warns_once(monkeypatch, data_file):
    monkeypatch.setattr(events_module, "_parse_event_lines", _refuse)  # the columnar reader counts it
    text = "0.2 1 1 1\n0.1 2 2 0\n0.3 3 3 1\n"  # 10 characters a line
    want = _outcome(lambda s: parse_events_lines(s, _SENSOR_W, _SENSOR_H), text)
    assert want[1] == ["1 event(s) with non-monotone timestamps"]
    for got in _event_outcomes(text, data_file, 10):
        _assert_same_events(got, want)


def test_bad_line_in_a_later_piece_keeps_its_message_and_number(data_file):
    lines = [f"{i / 100!r} {i % 8} {i % 6} {i % 2}" for i in range(60)]
    lines[47] = "0.47 1 1"
    text = "\n".join(lines) + "\n"
    want = _outcome(lambda s: parse_events_lines(s, _SENSOR_W, _SENSOR_H), text)
    assert want[0][0] is ParseError and want[0][2] == 48
    for got in _event_outcomes(text, data_file, 64):
        assert got == want


def test_piece_of_blank_lines_only(monkeypatch, data_file):
    monkeypatch.setattr(events_module, "_parse_event_lines", _refuse)  # blank pieces stay columnar
    text = "0.1 1 1 1\n" + "\n" * 20 + "  \n\t\r\n" * 4 + "0.2 2 2 0\n\n"
    want = _outcome(lambda s: parse_events_lines(s, _SENSOR_W, _SENSOR_H), text)
    for got in _event_outcomes(text, data_file, 4):
        _assert_same_events(got, want)


def test_read_events_takes_a_pipe():
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    text = "0.1 1 2 1\n0.2 3 4 0\n"
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    try:
        assert read_events(f"/dev/fd/{r}", 8, 6).tobytes() == parse_events(text, 8, 6).tobytes()
    finally:
        os.close(r)


def test_a_warning_in_another_thread_is_not_raised_while_events_parse(monkeypatch):
    """Parsing installs no warning filter, so a thread that warns while
    another parses gets its own handling. When the reader turned every
    warning into an error around ``np.loadtxt``, this warning was raised."""
    inside, release = threading.Event(), threading.Event()
    parsed = []

    def held_loadtxt(*args, **kwargs):
        if threading.current_thread() is parser:
            inside.set()
            release.wait(timeout=60)
        return real_loadtxt(*args, **kwargs)

    real_loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", held_loadtxt)
    parser = threading.Thread(target=lambda: parsed.append(parse_events("0.1 1 2 1\n0.2 3 4 0\n", 8, 6)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parser.start()
        try:
            assert inside.wait(timeout=60)
            warnings.warn("warned while another thread parses", UserWarning)
        finally:
            release.set()
            parser.join(timeout=60)
    assert not parser.is_alive()
    assert [str(w.message) for w in caught] == ["warned while another thread parses"]
    assert parsed[0].tolist() == [(0.1, 1, 2, 1), (0.2, 3, 4, -1)]


@pytest.fixture(scope="module")
def scene_5s(tmp_path_factory):
    """The default scene's 5 s texts (113k events, 1000 poses) and their files."""
    root = tmp_path_factory.mktemp("scene_5s")
    synth.write_dataset(synth.default_scene(duration=5.0), root)
    paths = (root / "events.txt", root / "groundtruth.txt")
    return tuple(path.read_text(encoding="utf-8") for path in paths), paths


def _traced_peak(fn):
    """``fn()`` and the peak of traced memory above where it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


_OBJECTS = 16 << 10  # interpreter objects and numpy's reader state


@pytest.mark.parametrize("source", ["text", "file"])
def test_parsing_events_holds_the_array_and_two_pieces(source, scene_5s):
    """Parsing peaks at the 13 B/event it returns plus two pieces: a text
    piece is sliced, then encoded. Encoding the whole text peaked at about
    40 B/event, 1.1 MB above this bound."""
    (events_text, _), (events_path, _) = scene_5s
    parse = {"text": lambda: parse_events(events_text, 64, 64), "file": lambda: read_events(events_path, 64, 64)}
    parsed, peak = _traced_peak(parse[source])
    assert len(parsed) == events_text.count("\n")
    assert peak <= EVENT_DTYPE.itemsize * len(parsed) + 2 * events_module.PIECE_SIZE + _OBJECTS


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

    def test_canonicalize_rejects_a_3_vector(self):
        with pytest.raises(InvalidRotationError, match=r"quaternion must have 4 components, got shape \(3,\)"):
            canonicalize_quaternion([0.0, 0.0, 1.0])

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


def _assert_same_poses(got, want):
    if isinstance(want[0], tuple):
        assert got == want
    else:
        assert _columns(got[0]).tobytes() == _pose_rows(want[0]).tobytes()
        assert got[1] == want[1]


@settings(max_examples=500, deadline=None, database=None)
@given(text=_pose_texts(), piece_size=_PIECE_SIZES)
@example(text="0.0 0 0 0 0 0 0 1\ninf 0 0 0 0 0 0 1\n", piece_size=events_module.PIECE_SIZE)  # a bad time
def test_parse_poses_matches_per_line_oracle(text, piece_size, data_file):
    want = _outcome(parse_poses_lines, text)
    for got in _outcomes(parse_poses, read_poses, text, data_file, piece_size):
        _assert_same_poses(got, want)


def test_pose_out_of_order_across_a_piece_boundary_keeps_its_line_number(data_file):
    lines = [f"{i / 10!r} 0 0 0 0 0 0 1" for i in range(30)]
    lines[21] = lines[20]
    text = "\n".join(lines)
    want = _outcome(parse_poses_lines, text)
    assert want[0][0] is OrderingError and "line 22" in want[0][1]
    for got in _outcomes(parse_poses, read_poses, text, data_file, 40):
        assert got == want


@pytest.mark.parametrize("piece_size", [1, 20, events_module.PIECE_SIZE])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_valid_poses_never_reach_the_per_line_parser(monkeypatch, end, piece_size, tmp_path):
    monkeypatch.setattr(events_module, "_parse_pose_lines", _refuse)
    monkeypatch.setattr(events_module, "PIECE_SIZE", piece_size)
    text = end.join(["0.1 1 2 3 0 0 0 -1", "", "0.2 4 5 6 -0.0 0.6 -0.0 -0.8", "0.3 7 8 9 0.5 0.5 0.5 0.5"]) + end
    path = tmp_path / "groundtruth.txt"
    path.write_bytes(text.encode())
    want = _pose_rows(parse_poses_lines(text)).tobytes()
    assert _columns(parse_poses(text)).tobytes() == want
    assert _columns(read_poses(path)).tobytes() == want


@pytest.mark.parametrize("source", ["text", "file"])
def test_parsing_poses_holds_the_rows_and_two_pieces(source, scene_5s, monkeypatch):
    """As for events, with 64 B a pose. The 150 kB text is cut into 16 kB
    pieces, as a long recording's is into 1 MB ones; reading it whole
    peaked at 225 kB, 113 kB above this bound."""
    (_, poses_text), (_, poses_path) = scene_5s
    monkeypatch.setattr(events_module, "PIECE_SIZE", 16 << 10)
    parse = {"text": lambda: parse_poses(poses_text), "file": lambda: read_poses(poses_path)}
    poses, peak = _traced_peak(parse[source])
    assert len(poses) == poses_text.count("\n")
    assert peak <= 64 * len(poses) + 2 * events_module.PIECE_SIZE + _OBJECTS


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

    @pytest.mark.parametrize(
        "times, message",
        [
            ([0.0, 0.35, 0.15], "pose 2 at t = 0.15 is not after pose 1 at t = 0.35"),  # gave a 0-event window
            ([0.0, 0.2, 0.2], "pose 2 at t = 0.2 is not after pose 1 at t = 0.2"),
            ([0.0, math.nan, 0.4], "pose 1 at t = nan is not after pose 0 at t = 0.0"),  # gave a window labelled nan
            ([math.nan, 0.2, 0.4], "pose 1 at t = 0.2 is not after pose 0 at t = nan"),
        ],
        ids=["decreasing", "repeated", "nan-inside", "nan-first"],
    )
    def test_pose_times_not_strictly_increasing_are_ordering_error(self, times, message):
        n = len(times)
        poses = Poses(np.array(times), np.zeros((n, 3)), np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)))
        evs = events((0.1, 1, 1, 1), (0.3, 2, 2, 1))
        with pytest.raises(OrderingError) as exc:
            window_events(evs, poses)
        assert str(exc.value) == message


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
