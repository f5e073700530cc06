import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose.errors import BoundsError
from evpose.event_image import EventImage, build_image, select_fraction, to_pgm
from evpose.events import EVENT_DTYPE, EventWindow, Poses
from oracles import latest_event_image as latest_event_oracle


def events(*rows):
    return np.array(list(rows), dtype=EVENT_DTYPE)


def make_window(window_events):
    label = Poses(1.0, np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
    return EventWindow(window_events, label, 0)


def random_window(rng, n_events, h=16, w=16):
    ts = np.sort(rng.random(n_events))
    return make_window(events(
        *((float(t), int(rng.integers(0, w)), int(rng.integers(0, h)), int(rng.choice([-1, 1])))
          for t in ts)
    ))


class TestBuildImage:
    def test_single_positive_event(self):
        img = build_image(events((0.0, 3, 5, 1)), 8, 8)
        assert img.pixels[5, 3] == 1.0
        others = np.delete(img.pixels.reshape(-1), 5 * 8 + 3)
        assert np.all(others == 0.5)

    def test_empty_events_all_background(self):
        img = build_image(events(), 4, 6)
        assert img.pixels.shape == (4, 6)
        assert np.all(img.pixels == 0.5)

    def test_last_write_wins(self):
        assert build_image(events((0.001, 2, 2, 1), (0.002, 2, 2, -1)), 8, 8).pixels[2, 2] == 0.0

    def test_out_of_bounds(self):
        with pytest.raises(BoundsError):
            build_image(events((0.0, 9, 0, 1)), 8, 8)

    def test_value_set(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            window = random_window(rng, int(rng.integers(0, 60)))
            values = set(np.unique(build_image(window.events, 16, 16).pixels))
            assert values <= {0.0, 0.5, 1.0}

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            window = random_window(rng, int(rng.integers(0, 40)), h=12, w=10)
            img = build_image(window.events, 12, 10)
            oracle = latest_event_oracle(window.events, 12, 10)
            assert np.array_equal(img.pixels, oracle)

    def test_count_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            window = random_window(rng, int(rng.integers(0, 80)))
            img = build_image(window.events, 16, 16)
            distinct = set(zip(window.events["x"].tolist(), window.events["y"].tolist()))
            assert np.count_nonzero(img.pixels != 0.5) <= len(distinct)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_build_image_matches_brute_force_painter(data):
    h, w = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    pixels = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1), st.sampled_from([-1, 1]))
    rows = data.draw(st.lists(pixels, max_size=40))
    times = sorted(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=len(rows), max_size=len(rows))))
    evs = events(*((t, x, y, rho) for t, (x, y, rho) in zip(times, rows)))
    img = build_image(evs, h, w)
    assert img.pixels.dtype == np.float16
    assert img.pixels.nbytes == 2 * h * w
    assert np.array_equal(img.pixels, latest_event_oracle(evs, h, w))


@pytest.mark.parametrize("h, w", [(1, 65535), (1, 65536), (2, 40000), (256, 256)])
def test_images_past_16_bit_pixel_indices_match_a_painting_loop(h, w):
    rows = [(w - 1, h - 1, 1), (0, 0, -1), (w - 1, h - 1, -1), (w // 2, h // 2, 1), (w - 1, 0, 1)]
    img = build_image(events(*((0.1 * i, *row) for i, row in enumerate(rows))), h, w)
    expected = np.full((h, w), 0.5)
    for x, y, rho in rows:
        expected[y, x] = 1.0 if rho > 0 else 0.0
    assert img.pixels.dtype == np.float16
    assert np.array_equal(img.pixels, expected)


@pytest.mark.parametrize("h, w", [(8, 8), (2, 40000)])
def test_out_of_image_message(h, w):
    with pytest.raises(BoundsError) as exc:
        build_image(events((0.0, 1, 1, 1), (0.1, w, 0, -1), (0.2, 0, h, 1)), h, w)
    assert str(exc.value) == f"event at ({w}, 0) outside {w}x{h} image"


class TestSelectFraction:
    def test_takes_latest_events(self):
        window = make_window(events(*((0.1 * i, i, i, 1) for i in range(10))))
        selected = select_fraction(window, 0.3)
        assert selected["x"].tolist() == [7, 8, 9]

    def test_full_fraction_identity(self):
        window = make_window(events(*((0.1 * i, i, i, 1) for i in range(5))))
        assert select_fraction(window, 1.0).tobytes() == window.events.tobytes()

    def test_ceil_rule(self):
        window = make_window(events(*((0.1 * i, i, i, 1) for i in range(7))))
        assert len(select_fraction(window, 0.5)) == 4  # ceil(3.5)

    def test_fraction_out_of_range(self):
        window = make_window(events((0.0, 0, 0, 1)))
        for fraction in (0.0, -0.5, 1.2):
            with pytest.raises(ValueError):
                select_fraction(window, fraction)

    def test_suffix_nesting(self):
        rng = np.random.default_rng(3)
        window = random_window(rng, 37)
        fractions = [i / 10 for i in range(1, 11)]
        for f1, f2 in zip(fractions, fractions[1:]):
            a = select_fraction(window, f1)
            b = select_fraction(window, f2)
            assert a.tobytes() == b[len(b) - len(a) :].tobytes()

    def test_nonempty_for_any_positive_fraction(self):
        window = make_window(events((0.0, 0, 0, 1)))
        assert len(select_fraction(window, 0.01)) == 1


class TestPgm:
    def test_levels_and_header(self):
        img = build_image(events((0.0, 1, 0, 1), (0.1, 0, 1, -1)), 2, 2)
        text = to_pgm(img)
        lines = text.splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3].split() == ["128", "255"]
        assert lines[4].split() == ["0", "128"]

    def test_text_is_unchanged(self):
        img = build_image(events((0.0, 1, 0, 1), (0.1, 0, 1, -1), (0.2, 2, 1, 1), (0.3, 2, 1, -1)), 2, 3)
        assert to_pgm(img) == "P2\n3 2\n255\n128 255 128\n0 128 0\n"
        assert to_pgm(EventImage(img.pixels.astype(np.float64))) == to_pgm(img)
