import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from evpose import evaluation as ev
from evpose import model as m
from evpose.events import EVENT_DTYPE, EventWindow, Poses
from evpose.model import PosePrediction
from oracles import rotation_angle_deg


def pred(p=(0, 0, 0), q=(0, 0, 0, 1)):
    q = np.asarray(q, dtype=float)
    return PosePrediction(np.asarray(p, dtype=float), q.copy(), q / np.linalg.norm(q))


def label(p=(0, 0, 0), q=(0, 0, 0, 1), t=0.0):
    return Poses(t, np.asarray(p, dtype=float), np.asarray(q, dtype=float))


def random_unit_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


rotation_angle_oracle = rotation_angle_deg

class TestPositionError:
    def test_zero(self):
        assert ev.position_error(pred(), label()) == 0.0

    def test_three_four_five(self):
        assert ev.position_error(pred(p=(0.03, 0.04, 0)), label()) == pytest.approx(0.05)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert ev.position_error(pred(p=a), label(p=b)) == pytest.approx(
                ev.position_error(pred(p=b), label(p=a))
            )


class TestOrientationError:
    def test_identical(self):
        assert ev.orientation_error(pred(), label()) == 0.0

    def test_double_cover(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        assert ev.orientation_error(pred(q=q), label(q=-q)) == pytest.approx(0.0)

    def test_ninety_degrees_matches_matrix_oracle(self):
        s = math.sin(math.pi / 4)
        q_hat = np.array([0.0, 0.0, s, math.cos(math.pi / 4)])
        q = np.array([0.0, 0.0, 0.0, 1.0])
        err = ev.orientation_error(pred(q=q_hat), label(q=q))
        assert abs(err - 90.0) < 1e-9
        assert abs(err - rotation_angle_oracle(q_hat, q)) < 1e-9

    def test_range_and_double_cover_property(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            q1, q2 = random_unit_quat(rng), random_unit_quat(rng)
            err = ev.orientation_error(pred(q=q1), label(q=q2))
            assert 0.0 <= err <= 180.0
            assert ev.orientation_error(pred(q=q1), label(q=-q1)) == pytest.approx(0.0)

    def test_matches_matrix_oracle_randomly(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q1, q2 = random_unit_quat(rng), random_unit_quat(rng)
            err = ev.orientation_error(pred(q=q1), label(q=q2))
            assert err == pytest.approx(rotation_angle_oracle(q1, q2), abs=1e-6)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            ev.orientation_error(
                PosePrediction(np.zeros(3), np.ones(4), np.ones(4)), label()
            )


class TestSummarize:
    def test_simple_median_mean(self):
        s = ev.summarize([1.0, 2.0, 3.0])
        assert s.median == 2.0
        assert s.mean == 2.0

    def test_even_n(self):
        s = ev.summarize([1.0, 1.0, 1.0, 9.0])
        assert s.median == 1.0
        assert s.mean == 3.0

    def test_table_medians_reproduce_average_row(self):
        position_medians = [0.025, 0.036, 0.035, 0.031, 0.051, 0.036]
        orientation_medians = [2.256, 2.195, 2.117, 2.047, 3.354, 2.074]
        # the orientation mean (2.3405) sits exactly on the 0.0005 rounding
        # boundary; allow for float representation of the boundary itself
        tol = 0.0005 * (1 + 1e-9)
        assert abs(ev.summarize(position_medians).mean - 0.036) <= tol
        assert abs(ev.summarize(orientation_medians).mean - 2.341) <= tol
        assert round(ev.summarize(position_medians).mean, 3) == 0.036
        assert round(ev.summarize(orientation_medians).mean, 3) == 2.341

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.summarize([])

    def test_quartile_ordering_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = ev.summarize(rng.random(int(rng.integers(1, 40))).tolist())
            assert s.q1 <= s.median <= s.q3 <= s.max

    def test_permutation_invariance_and_scale_equivariance(self):
        rng = np.random.default_rng(4)
        errors = rng.random(31).tolist()
        base = ev.summarize(errors)
        shuffled = ev.summarize(list(np.random.default_rng(5).permutation(errors)))
        assert (base.median, base.mean, base.q1, base.q3, base.max) == (
            shuffled.median, shuffled.mean, shuffled.q1, shuffled.q3, shuffled.max,
        )
        c = 3.7
        scaled = ev.summarize([c * e for e in errors])
        for name in ("median", "mean", "q1", "q3", "max"):
            assert getattr(scaled, name) == pytest.approx(c * getattr(base, name))


def make_windows(n, rng, h=8, w=8):
    windows = []
    for i in range(n):
        events = np.array(
            [(0.005 * i + 0.001 + 0.0001 * j, int(rng.integers(0, w)), int(rng.integers(0, h)), 1)
             for j in range(int(rng.integers(1, 12)))],
            EVENT_DTYPE,
        )
        q = random_unit_quat(rng)
        if q[3] < 0:
            q = -q
        windows.append(
            EventWindow(events, label(p=rng.standard_normal(3), q=q, t=0.005 * (i + 1)), i)
        )
    return windows


def perfect_stub(windows):
    """A predict_fn whose i-th call returns the label of window i (mod len(windows)):
    evaluate and each fraction of the sweep visit the windows in order."""
    labels = itertools.cycle([w.label for w in windows])

    def fn(image, params):
        lab = next(labels)
        return PosePrediction(lab.p.copy(), lab.q.copy(), lab.q.copy())

    return fn


class TestEvaluate:
    def setup_method(self):
        self.rng = np.random.default_rng(11)
        self.windows = make_windows(9, self.rng)
        self.params = m.init_params(m.toy_config(), seed=0)

    def test_perfect_stub_zero_errors(self):
        report = ev.evaluate(self.params, self.windows, predict_fn=perfect_stub(self.windows))
        assert report.position.median == 0.0
        assert report.orientation.median == 0.0
        assert all(p == 0.0 and o == 0.0 for p, o in report.per_sample_errors)

    def test_summaries_recomputable(self):
        report = ev.evaluate(self.params, self.windows)
        pos = ev.summarize([p for p, _ in report.per_sample_errors])
        ori = ev.summarize([o for _, o in report.per_sample_errors])
        assert report.position == pos
        assert report.orientation == ori

    def test_deterministic(self):
        a = ev.evaluate(self.params, self.windows)
        b = ev.evaluate(self.params, self.windows)
        assert a.per_sample_errors == b.per_sample_errors

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.evaluate(self.params, [])

    def test_csv_and_json_outputs(self):
        report = ev.evaluate(self.params, self.windows)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["index", "position_error_m", "orientation_error_deg"]
        assert len(rows) == len(self.windows) + 1
        assert float(rows[1][1]) == report.per_sample_errors[0][0]
        summary = json.loads(report.to_json())
        assert summary["position"]["median"] == report.position.median
        assert summary["n_samples"] == len(self.windows)


class TestRobustness:
    def setup_method(self):
        self.rng = np.random.default_rng(12)
        self.windows = make_windows(7, self.rng)
        self.params = m.init_params(m.toy_config(), seed=1)

    def test_ten_rows(self):
        table = ev.robustness_experiment(self.params, self.windows)
        assert len(table.rows) == 10
        assert [r[0] for r in table.rows] == [i / 10 for i in range(1, 11)]

    def test_full_fraction_row_equals_evaluate_exactly(self):
        table = ev.robustness_experiment(self.params, self.windows)
        report = ev.evaluate(self.params, self.windows)
        assert table.rows[-1][1] == report.position.median
        assert table.rows[-1][2] == report.orientation.median

    def test_perfect_stub_all_zero(self):
        table = ev.robustness_experiment(
            self.params, self.windows, predict_fn=perfect_stub(self.windows)
        )
        assert all(r[1] == 0.0 and r[2] == 0.0 for r in table.rows)

    def test_csv_output(self):
        table = ev.robustness_experiment(self.params, self.windows)
        rows = list(csv.reader(io.StringIO(table.to_csv())))
        assert rows[0] == ["fraction", "position_median_m", "orientation_median_deg"]
        assert len(rows) == 11
