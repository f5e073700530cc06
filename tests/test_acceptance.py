"""End-to-end acceptance suite.

Each criterion is one test that prints a PASS line with its measured
numbers; run with ``pytest tests/test_acceptance.py -v -s``. The
end-to-end overfit run (criterion 5) trains the desk-scale model once and
shares its checkpoint with criteria 7 and 9; expect a few minutes of CPU
time for the whole module. Those three tests are marked ``slow``, so
``pytest -m "not slow"`` runs everything else in seconds.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from evpose import autodiff as ad
from evpose import evaluation, model, pipeline, synth
from evpose.event_image import build_image, select_fraction
from evpose.events import (
    EVENT_DTYPE,
    EventWindow,
    Poses,
    parse_events,
    parse_poses,
    split_novel,
    split_random,
    window_events,
)
from oracles import latest_event_image, lstm_sequence_scalar, rotation_angle_deg

# Overfit-run protocol (criterion 5): the pinned synthetic dataset, the
# desk-scale architecture and 200 epochs; the training subset (40% random
# split) and learning rate are sized for a minutes-scale CPU budget.
OVERFIT_TRAIN_FRACTION = 0.4
OVERFIT_SPLIT_SEED = 11
OVERFIT_TRAIN_SEED = 11
OVERFIT_LR = 5e-4


@pytest.fixture(scope="module")
def overfit_run():
    t0 = time.monotonic()
    scene = synth.default_scene(seed=7, rate_hz=200.0, duration=2.0)
    events_text, poses_text = synth.generate_dataset(scene)
    events = parse_events(events_text, scene.sensor_w, scene.sensor_h)
    poses = parse_poses(poses_text)
    windows, _ = window_events(events, poses)
    train_windows, _ = split_random(windows, OVERFIT_TRAIN_FRACTION, seed=OVERFIT_SPLIT_SEED)
    config = pipeline.TrainConfig(
        model=model.desk_config(),
        lr=OVERFIT_LR,
        epochs=200,
        seed=OVERFIT_TRAIN_SEED,
    )
    ckpt = pipeline.train(config, train_windows)
    elapsed = time.monotonic() - t0
    report = evaluation.evaluate(ckpt.params, train_windows)
    return SimpleNamespace(
        windows=windows,
        train_windows=train_windows,
        ckpt=ckpt,
        elapsed=elapsed,
        report=report,
    )


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    cfg = model.toy_config()
    params = model.init_params(cfg, seed=0)
    image = build_image(
        np.array([(0.001, 2, 3, 1), (0.002, 5, 1, -1), (0.003, 6, 6, 1)], EVENT_DTYPE), 8, 8
    )
    label = Poses(0.0, np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.0, 0.0, 1.0]))

    def f(_params):
        out = model.forward(image, params, dropout_seed=99)
        return model.pose_loss(out, label)

    tensors = params.ordered()
    n_params = sum(t.data.size for t in tensors)
    err = ad.grad_check(f, tensors, eps=1e-4)
    elapsed = time.monotonic() - t0
    assert err < 1e-3, f"max relative gradient error {err}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 1: full-network gradient check, {n_params} parameters, "
        f"max relative error {err:.2e} (< 1e-3), {elapsed:.1f}s (< 60s)"
    )


def test_criterion_2_lstm_matches_scalar_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    steps = 6
    for _ in range(100):
        w_x = rng.standard_normal((8, 32)) * 0.7
        w_h = rng.standard_normal((8, 32)) * 0.7
        b = rng.standard_normal((1, 32)) * 0.7
        xs = rng.standard_normal((steps, 8))
        out = ad.lstm_sequence(ad.tensor(xs), ad.tensor(w_x), ad.tensor(w_h), ad.tensor(b))
        hs, cs, _ = ad.lstm_forward(xs, w_x, w_h, b)
        assert np.array_equal(out.data, hs)
        h_ref, c_ref = lstm_sequence_scalar(xs, (w_x, w_h, b))
        worst = max(
            worst,
            float(np.max(np.abs(hs - np.array(h_ref)))),
            float(np.max(np.abs(cs - np.array(c_ref)))),
        )
    assert worst <= 1e-12, f"worst deviation {worst}"
    print(
        f"\nPASS criterion 2: lstm_sequence vs scalar-loop oracle, every h and c of "
        f"100 random 8-dim {steps}-step sequences, worst |delta| {worst:.2e} (<= 1e-12)"
    )


def test_criterion_3_event_image_matches_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(1000):
        h = int(rng.integers(4, 14))
        w = int(rng.integers(4, 14))
        n = int(rng.integers(0, 50))
        ts = np.sort(rng.random(n))
        events = np.array(
            [(float(t), int(rng.integers(0, w)), int(rng.integers(0, h)), int(rng.choice([-1, 1])))
             for t in ts],
            EVENT_DTYPE,
        )
        image = build_image(events, h, w)
        assert np.array_equal(image.pixels, latest_event_image(events, h, w)), f"trial {trial}"
        assert set(np.unique(image.pixels)) <= {0.0, 0.5, 1.0}
    print(
        "\nPASS criterion 3: build_image equals per-pixel latest-event oracle on "
        "1000 random windows; values within {0, 0.5, 1}"
    )


def test_criterion_4_median_aggregation():
    position_medians = [0.025, 0.036, 0.035, 0.031, 0.051, 0.036]
    orientation_medians = [2.256, 2.195, 2.117, 2.047, 3.354, 2.074]
    pos_mean = evaluation.summarize(position_medians).mean
    ori_mean = evaluation.summarize(orientation_medians).mean
    # the orientation mean (2.3405) sits exactly on the 0.0005 rounding
    # boundary; allow for float representation of the boundary itself
    tol = 0.0005 * (1 + 1e-9)
    assert abs(pos_mean - 0.036) <= tol, f"position mean {pos_mean}"
    assert abs(ori_mean - 2.341) <= tol, f"orientation mean {ori_mean}"
    print(
        f"\nPASS criterion 4: six per-sequence medians aggregate to "
        f"{pos_mean:.4f} m / {ori_mean:.4f} deg (targets 0.036 / 2.341, tol 0.0005)"
    )


@pytest.mark.slow
def test_criterion_5_end_to_end_overfit(overfit_run):
    history = overfit_run.ckpt.loss_history
    ratio = history[-1] / history[0]
    report = overfit_run.report
    assert len(overfit_run.windows) >= 64, f"only {len(overfit_run.windows)} windows"
    assert len(history) == 200
    assert ratio < 0.1, f"loss ratio {ratio:.3f}"
    assert report.position.median < 0.05, f"position median {report.position.median}"
    assert report.orientation.median < 5.0, f"orientation median {report.orientation.median}"
    assert overfit_run.elapsed < 900.0, f"took {overfit_run.elapsed:.0f}s"
    print(
        f"\nPASS criterion 5: {len(overfit_run.windows)} windows "
        f"({len(overfit_run.train_windows)} trained), loss {history[0]:.3f} -> "
        f"{history[-1]:.4f} (ratio {ratio:.3f} < 0.1), position median "
        f"{report.position.median:.4f} (< 0.05), orientation median "
        f"{report.orientation.median:.3f} deg (< 5), {overfit_run.elapsed:.0f}s (< 900s)"
    )


def test_criterion_6_split_contracts():
    def make_windows(n):
        label = Poses(1.0, np.zeros(3), np.array([0.0, 0.0, 0.0, 1.0]))
        return [EventWindow(np.array([(0.5, 0, 0, 1)], EVENT_DTYPE), label, i) for i in range(n)]

    for n in (3, 10, 101):
        windows = make_windows(n)
        train_a, test_a = split_random(windows, 0.7, seed=42)
        train_b, test_b = split_random(windows, 0.7, seed=42)
        assert [w.sequence_index for w in train_a] == [w.sequence_index for w in train_b]
        assert [w.sequence_index for w in test_a] == [w.sequence_index for w in test_b]
        assert len(train_a) == math.floor(0.7 * n)
        assert len(train_a) + len(test_a) == n
        assert set(w.sequence_index for w in train_a).isdisjoint(
            w.sequence_index for w in test_a
        )
        train_n, test_n = split_novel(windows, 0.7)
        k = math.floor(0.7 * n)
        assert [w.sequence_index for w in train_n] == list(range(k))
        assert [w.sequence_index for w in train_n + test_n] == list(range(n))
    print(
        "\nPASS criterion 6: split_random reproducible with exact floor sizing "
        "for N in {3, 10, 101}; split_novel is an order-preserving prefix"
    )


@pytest.mark.slow
def test_criterion_7_robustness_harness(overfit_run):
    table = evaluation.robustness_experiment(
        overfit_run.ckpt.params, overfit_run.train_windows
    )
    report = overfit_run.report
    assert len(table.rows) == 10
    assert table.rows[-1][0] == 1.0
    assert table.rows[-1][1] == report.position.median  # bitwise
    assert table.rows[-1][2] == report.orientation.median
    fractions = [row[0] for row in table.rows]
    for window in overfit_run.train_windows[:25]:
        previous = None
        for fraction in fractions:
            selected = select_fraction(window, fraction)
            if previous is not None:
                assert previous.tobytes() == selected[len(selected) - len(previous) :].tobytes()
            previous = selected
    print(
        "\nPASS criterion 7: robustness table has 10 rows, fraction-1.0 row "
        "equals evaluate() medians exactly, suffix-nesting holds for all "
        "tested fractions"
    )


def test_criterion_8_metric_properties():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        q2 = rng.standard_normal(4)
        q2 /= np.linalg.norm(q2)
        pred = model.PosePrediction(np.zeros(3), q.copy(), q.copy())
        mirrored = Poses(0.0, np.zeros(3), -q)
        other = Poses(0.0, np.zeros(3), q2)
        assert evaluation.orientation_error(pred, mirrored) == 0.0
        err = evaluation.orientation_error(pred, other)
        assert 0.0 <= err <= 180.0
    s = math.sin(math.pi / 4)
    q_hat = np.array([0.0, 0.0, s, math.cos(math.pi / 4)])
    identity = np.array([0.0, 0.0, 0.0, 1.0])
    err = evaluation.orientation_error(
        model.PosePrediction(np.zeros(3), q_hat.copy(), q_hat.copy()),
        Poses(0.0, np.zeros(3), identity),
    )
    oracle = rotation_angle_deg(q_hat, identity)
    assert abs(err - 90.0) < 1e-9
    assert abs(err - oracle) < 1e-9
    print(
        f"\nPASS criterion 8: orientation_error(q, -q) = 0 and range [0, 180] over "
        f"1000 random quaternions; 90-degree case within {abs(err - oracle):.1e} "
        f"deg of the rotation-matrix oracle (< 1e-9)"
    )


@pytest.mark.slow
def test_criterion_9_checkpoint_round_trip(overfit_run, tmp_path):
    path = tmp_path / "overfit.ckpt"
    pipeline.save_checkpoint(overfit_run.ckpt, path)
    loaded = pipeline.load_checkpoint(path)
    report = evaluation.evaluate(loaded.params, overfit_run.train_windows)
    assert report.per_sample_errors == overfit_run.report.per_sample_errors  # bitwise
    assert report.position == overfit_run.report.position
    assert report.orientation == overfit_run.report.orientation
    print(
        "\nPASS criterion 9: save -> load -> evaluate reproduces the in-memory "
        "evaluation bit-for-bit"
    )
