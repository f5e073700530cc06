import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evpose import autodiff as ad
from evpose import config, evaluation, pipeline
from evpose import model as m
from evpose.errors import BoundsError, CheckpointError, InsufficientDataError
from evpose.event_image import image_from_window
from evpose.events import EVENT_DTYPE, EventWindow, Poses
from oracles import train_accumulating


def toy_train_config(**overrides):
    defaults = dict(model=m.toy_config(), lr=1e-3, epochs=3, seed=5)
    defaults.update(overrides)
    return pipeline.TrainConfig(**defaults)


def make_windows(n, rng, h=8, w=8):
    windows = []
    for i in range(n):
        events = np.array(
            [(0.005 * i + 0.0002 * (j + 1), int(rng.integers(0, w)), int(rng.integers(0, h)), int(rng.choice([-1, 1])))
             for j in range(int(rng.integers(3, 15)))],
            EVENT_DTYPE,
        )
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        if q[3] < 0:
            q = -q
        label = Poses(0.005 * (i + 1), rng.standard_normal(3) * 0.2, q)
        windows.append(EventWindow(events, label, i))
    return windows


class TestTrainConfig:
    def test_json_round_trip(self):
        cfg = toy_train_config(epochs=7, split="novel", split_fraction=0.6)
        again = config.from_json(pipeline.TrainConfig, config.to_json(cfg))
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            toy_train_config(epochs=0)
        with pytest.raises(ValueError):
            toy_train_config(split="sideways")
        with pytest.raises(ValueError):
            toy_train_config(split_fraction=1.5)
        for bad in (dict(seed=-1), dict(lr=-1e-3), dict(lr=float("nan")), dict(weight_decay=-1e-6),
                    dict(momentum=1.0), dict(momentum=-0.1), dict(batch_size=0)):
            with pytest.raises(ValueError):
                toy_train_config(**bad)

    def test_paper_defaults(self):
        cfg = pipeline.TrainConfig()
        assert cfg.lr == 1e-5
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-6
        assert cfg.split_fraction == 0.7


class TestTrain:
    def setup_method(self):
        self.rng = np.random.default_rng(21)
        self.windows = make_windows(6, self.rng)

    def test_zero_lr_leaves_parameters_unchanged(self):
        ckpt = pipeline.train(toy_train_config(lr=0.0, epochs=2), self.windows)
        fresh = m.init_params(m.toy_config(), seed=5)
        for name, tensor in fresh.tensors.items():
            assert np.array_equal(ckpt.params.tensors[name].data, tensor.data)

    def test_deterministic_given_seed(self):
        a = pipeline.train(toy_train_config(), self.windows)
        b = pipeline.train(toy_train_config(), self.windows)
        assert a.loss_history == b.loss_history
        for name in a.params.tensors:
            assert np.array_equal(a.params.tensors[name].data, b.params.tensors[name].data)

    def test_different_seed_differs(self):
        a = pipeline.train(toy_train_config(seed=5), self.windows)
        b = pipeline.train(toy_train_config(seed=6), self.windows)
        assert a.loss_history != b.loss_history

    def test_loss_log_length_and_finiteness(self):
        ckpt = pipeline.train(toy_train_config(epochs=4), self.windows)
        assert len(ckpt.loss_history) == 4
        assert all(np.isfinite(v) for v in ckpt.loss_history)

    def test_single_window_overfit(self):
        # 500 optimizer steps on one window
        ckpt = pipeline.train(toy_train_config(epochs=500, lr=3e-3), self.windows[:1])
        assert ckpt.loss_history[-1] < 0.1 * ckpt.loss_history[0]
        img = image_from_window(self.windows[0], 8, 8)
        pred = m.predict(img, ckpt.params)
        vec = ad.tensor(np.concatenate([pred.p_hat, pred.q_hat_raw]).reshape(1, 7))
        assert float(m.pose_loss(vec, self.windows[0].label).data) < 1e-2

    def test_window_outside_the_image_raises_at_its_step(self):
        # each window is painted at its step, so an earlier window trains first
        windows = make_windows(6, np.random.default_rng(2))
        bad = windows[4].events.copy()
        bad["x"][-1] = 8
        windows[4] = EventWindow(bad, windows[4].label, 4)
        with pytest.raises(BoundsError, match=r"event at \(8, \d+\) outside 8x8 image"):
            pipeline.train(toy_train_config(epochs=1), windows)

    def test_empty_training_set_rejected(self):
        with pytest.raises(InsufficientDataError):
            pipeline.train(toy_train_config(), [])

    @pytest.mark.parametrize("batch_size", [2, 4, 7])
    def test_minibatches_match_accumulation_reference(self, tmp_path, batch_size):
        # of the 6 windows, batch 4 leaves a short last slice and batch 7 takes all
        cfg = toy_train_config(batch_size=batch_size)
        ckpt = pipeline.train(cfg, self.windows)
        assert len(ckpt.loss_history) == cfg.epochs
        pipeline.save_checkpoint(ckpt, tmp_path / "train")
        pipeline.save_checkpoint(train_accumulating(cfg, self.windows), tmp_path / "reference")
        assert (tmp_path / "train").read_bytes() == (tmp_path / "reference").read_bytes()

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_factored_gradients_train_bit_identically(self, tmp_path, monkeypatch, batch_size):
        cfg = toy_train_config(batch_size=batch_size)
        pipeline.save_checkpoint(pipeline.train(cfg, self.windows), tmp_path / "factored")
        backward, returned = ad.backward, set()

        def dense_backward(*args, **kwargs):
            grads = backward(*args, **kwargs)
            returned.update(type(g) for g in grads.values())
            return {t: np.asarray(g) for t, g in grads.items()}

        monkeypatch.setattr(ad, "backward", dense_backward)
        pipeline.save_checkpoint(pipeline.train(cfg, self.windows), tmp_path / "dense")
        assert ad.Outer in returned
        assert (tmp_path / "factored").read_bytes() == (tmp_path / "dense").read_bytes()

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_loaded_daxpy_trains_as_scipy_linalg_blas_does(self, tmp_path, monkeypatch, batch_size):
        from scipy.linalg.blas import daxpy as public

        cfg = toy_train_config(batch_size=batch_size)
        monkeypatch.setattr(ad, "_daxpy", None)  # the first step loads it anew
        pipeline.save_checkpoint(pipeline.train(cfg, self.windows), tmp_path / "loaded")
        assert ad._daxpy is not None
        monkeypatch.setattr(ad, "_daxpy", public)
        pipeline.save_checkpoint(pipeline.train(cfg, self.windows), tmp_path / "public")
        assert (tmp_path / "loaded").read_bytes() == (tmp_path / "public").read_bytes()

    def test_end_to_end_determinism_checkpoint_bytes(self, tmp_path):
        from evpose import synth
        from evpose.events import parse_events, parse_poses, window_events

        scene = synth.default_scene(seed=5, rate_hz=200.0, duration=0.1)
        paths = []
        for run in range(2):
            events_text, poses_text = synth.generate_dataset(scene)
            events = parse_events(events_text, scene.sensor_w, scene.sensor_h)
            poses = parse_poses(poses_text)
            windows, _ = window_events(events, poses)
            cfg = pipeline.TrainConfig(
                model=m.ModelConfig(
                    input_h=64,
                    input_w=64,
                    conv_blocks=((4, 3, 1, 4), (4, 3, 1, 4)),
                    feature_dim=16,
                    lstm_hidden=8,
                    lstm_layers=1,
                    fc_hidden=8,
                ),
                lr=1e-3,
                epochs=2,
                seed=9,
            )
            ckpt = pipeline.train(cfg, windows)
            path = tmp_path / f"run{run}.ckpt"
            pipeline.save_checkpoint(ckpt, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCheckpoint:
    def setup_method(self):
        self.rng = np.random.default_rng(31)
        self.windows = make_windows(5, self.rng)
        self.ckpt = pipeline.train(toy_train_config(epochs=2), self.windows)

    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        loaded = pipeline.load_checkpoint(path)
        assert loaded.epoch == self.ckpt.epoch
        assert loaded.loss_history == self.ckpt.loss_history
        for name in self.ckpt.params.tensors:
            assert np.array_equal(
                loaded.params.tensors[name].data, self.ckpt.params.tensors[name].data
            )
        for a, b in zip(loaded.opt_state.velocity, self.ckpt.opt_state.velocity):
            assert np.array_equal(a, b)

    def test_round_trip_preserves_evaluate_exactly(self, tmp_path):
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        loaded = pipeline.load_checkpoint(path)
        before = evaluation.evaluate(self.ckpt.params, self.windows)
        after = evaluation.evaluate(loaded.params, self.windows)
        assert before.per_sample_errors == after.per_sample_errors

    def test_self_describing_config(self, tmp_path):
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        loaded = pipeline.load_checkpoint(path)
        assert loaded.params.config == m.toy_config()
        # predict works straight from the loaded checkpoint
        from evpose.event_image import image_from_window

        img = image_from_window(self.windows[0], 8, 8)
        pred = m.predict(img, loaded.params)
        assert np.isfinite(pred.p_hat).all()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 200])
        with pytest.raises(CheckpointError):
            pipeline.load_checkpoint(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"not a checkpoint\n" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            pipeline.load_checkpoint(path)

    def rewrite_header(self, path, edit):
        pipeline.save_checkpoint(self.ckpt, path)
        head, _, rest = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        self.rewrite_header(path, lambda h: h.update(version=99))
        with pytest.raises(CheckpointError):
            pipeline.load_checkpoint(path)

    def test_version_1_header_rejected(self, tmp_path):
        # version 1 stored twelve per-gate tensors per LSTM layer
        path = tmp_path / "model.ckpt"
        self.rewrite_header(path, lambda h: h.update(version=1))
        with pytest.raises(CheckpointError, match="version 1"):
            pipeline.load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("model"),
            lambda h: h.pop("params"),
            lambda h: h.pop("optimizer"),
            lambda h: h.pop("epoch"),
            lambda h: h.pop("loss_history"),
            lambda h: h.update(model=[]),
            lambda h: h.update(params={}),
            lambda h: h.update(optimizer={"lr": 0.1}),
            lambda h: h.update(epoch="2"),
            lambda h: h.update(loss_history="0.5"),
            lambda h: h["model"].update(feature_dim=15),
        ],
        ids=["no-model", "no-params", "no-optimizer", "no-epoch", "no-loss-history", "model-list",
             "params-dict", "optimizer-partial", "epoch-str", "loss-history-str", "bad-model"],
    )
    def test_malformed_header_rejected(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        self.rewrite_header(path, edit)
        with pytest.raises(CheckpointError):
            pipeline.load_checkpoint(path)

    def test_failed_save_leaves_existing_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        before = path.read_bytes()
        bad = pipeline.Checkpoint(
            m.ModelParams(self.ckpt.params.config, dict(self.ckpt.params.tensors)),
            self.ckpt.opt_state,
            self.ckpt.epoch,
            self.ckpt.loss_history,
        )
        bad.params.tensors["head.out.w"] = ad.parameter(np.zeros((3, 3)))
        with pytest.raises(CheckpointError):
            pipeline.save_checkpoint(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize(
        "edit",
        [lambda v: v.pop(), lambda v: v.__setitem__(-1, np.zeros(7))],  # head.out.b is (1, 7)
        ids=["missing", "misshaped"],
    )
    def test_save_rejects_velocities_off_the_manifest(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        before = path.read_bytes()
        velocity = list(self.ckpt.opt_state.velocity)
        edit(velocity)
        opt = dataclasses.replace(self.ckpt.opt_state, velocity=velocity)
        bad = pipeline.Checkpoint(self.ckpt.params, opt, self.ckpt.epoch, self.ckpt.loss_history)
        with pytest.raises(CheckpointError, match="velocit"):
            pipeline.save_checkpoint(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("cut", [8, 2000], ids=["in-velocities", "in-parameters"])
    def test_file_that_shrinks_while_loading_rejected(self, tmp_path, monkeypatch, cut):
        # the size is checked first; a file cut after that check ends inside its arrays
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        size = path.stat().st_size
        with open(path, "r+b") as f:
            f.truncate(size - cut)
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((*fstat(fd)[:6], size, *fstat(fd)[7:])))
        with pytest.raises(CheckpointError, match="ended inside its arrays"):
            pipeline.load_checkpoint(path)

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        with open(path, "ab") as f:
            f.write(b"extra")
        with pytest.raises(CheckpointError):
            pipeline.load_checkpoint(path)


def test_checkpoint_io_holds_each_array_once(tmp_path):
    """A desk-scale save holds no array-sized buffer, and a load keeps the
    parameters alone: its velocities are views of a map of the file. Both
    stay within an eighth of ``feat.w`` (8.4 MB) of that. A load through a
    read buffer peaks about one ``feat.w`` above what it keeps; one that
    read the velocities too kept twice the parameters."""
    rng = np.random.default_rng(17)
    params = m.init_params(m.desk_config(), seed=17)
    tensors = params.ordered()
    opt = ad.make_opt_state(tensors, 1e-5, 0.9, 1e-6)
    ad.sgd_step(tensors, {t: rng.standard_normal(t.shape) for t in tensors}, opt)  # non-zero velocities
    ckpt = pipeline.Checkpoint(params, opt, 1, [0.5])
    limit = params.tensors["feat.w"].data.nbytes // 8
    path = tmp_path / "desk.ckpt"

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pipeline.save_checkpoint(ckpt, path)
        save_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loaded = pipeline.load_checkpoint(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak < limit
    assert peak - kept < limit
    assert kept - start <= sum(t.data.nbytes for t in tensors) + limit

    arrays = [t.data for t in loaded.params.ordered()] + loaded.opt_state.velocity
    for i, a in enumerate(arrays):
        assert a.flags.writeable and a.flags.c_contiguous
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    # one step on the reloaded checkpoint matches one on the in-memory one, byte for byte
    grads = [rng.standard_normal(t.shape) for t in tensors]
    for c in (ckpt, loaded):
        ts = c.params.ordered()
        ad.sgd_step(ts, dict(zip(ts, grads)), c.opt_state)
    for a, b in zip([t.data for t in tensors] + opt.velocity, arrays):
        assert a.tobytes() == b.tobytes()


def _step_both(ckpts, grads):
    """One sgd_step on each checkpoint with the same gradients."""
    for c in ckpts:
        ts = c.params.ordered()
        ad.sgd_step(ts, dict(zip(ts, grads)), c.opt_state)


def _assert_same_state(a, b):
    arrays = ([t.data for t in c.params.ordered()] + list(c.opt_state.velocity) for c in (a, b))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(*arrays))


def _stepped_toy_checkpoint(loss_history):
    rng = np.random.default_rng(23)
    params = m.init_params(m.toy_config(), seed=23)
    tensors = params.ordered()
    opt = ad.make_opt_state(tensors, 1e-3, 0.9, 1e-4)
    ad.sgd_step(tensors, {t: rng.standard_normal(t.shape) for t in tensors}, opt)  # non-zero velocities
    return pipeline.Checkpoint(params, opt, 1, loss_history)


def _histories_of_every_header_residue():
    """Loss histories whose unpadded header lines, newline included, have
    each length mod 8 once."""
    found = {}
    for n in range(64):
        ckpt = _stepped_toy_checkpoint([0.5 / (k + 1) for k in range(n)])
        found.setdefault(len(_unpadded_header(ckpt)) % 8, ckpt.loss_history)
    assert sorted(found) == list(range(8))
    return [found[r] for r in range(8)]


def _unpadded_header(ckpt):
    """The header line of ``ckpt`` as a file saved before headers were padded holds it."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c")
        pipeline.save_checkpoint(ckpt, path)
        with open(path, "rb") as f:
            return f.readline().rstrip(b" \n") + b"\n"


@pytest.mark.parametrize("residue", range(8))
def test_saved_arrays_start_aligned_and_velocities_map_the_file(tmp_path, residue):
    ckpt = _stepped_toy_checkpoint(_histories_of_every_header_residue()[residue])
    path = tmp_path / "toy.ckpt"
    pipeline.save_checkpoint(ckpt, path)
    saved = path.read_bytes()
    head, rest = saved.split(b"\n", 1)
    unpadded = _unpadded_header(ckpt)
    assert len(unpadded) % 8 == residue
    assert (len(head) + 1) % 8 == 0 and head == unpadded[:-1] + b" " * (len(head) + 1 - len(unpadded))
    arrays = [t.data for t in ckpt.params.ordered()] + ckpt.opt_state.velocity
    assert rest == b"".join(a.tobytes() for a in arrays)  # the arrays keep their bytes

    loaded = pipeline.load_checkpoint(path)
    got = [t.data for t in loaded.params.ordered()] + loaded.opt_state.velocity
    for i, a in enumerate(got):
        assert a.flags.writeable and a.flags.aligned and a.flags.c_contiguous and a.dtype == np.float64
        assert not any(np.shares_memory(a, b) for b in got[i + 1:])
    assert all(isinstance(v, np.memmap) for v in loaded.opt_state.velocity)
    _assert_same_state(loaded, ckpt)
    rng = np.random.default_rng(residue)
    _step_both((ckpt, loaded), [rng.standard_normal(t.shape) for t in ckpt.params.ordered()])
    _assert_same_state(loaded, ckpt)
    assert path.read_bytes() == saved  # the step wrote to memory, not to the file


def test_unpadded_file_loads_and_resumes_byte_identically(tmp_path):
    """A file saved before headers were padded has unaligned velocities
    unless its header happens to end on a multiple of 8: they are copied."""
    ckpt = _stepped_toy_checkpoint(_histories_of_every_header_residue()[3])
    path = tmp_path / "toy.ckpt"
    pipeline.save_checkpoint(ckpt, path)
    rest = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(_unpadded_header(ckpt) + rest)
    loaded = pipeline.load_checkpoint(path)
    for v in loaded.opt_state.velocity:
        assert v.flags.aligned and v.flags.writeable and v.flags.owndata
    _assert_same_state(loaded, ckpt)
    rng = np.random.default_rng(4)
    _step_both((ckpt, loaded), [rng.standard_normal(t.shape) for t in ckpt.params.ordered()])
    _assert_same_state(loaded, ckpt)


def test_saving_over_a_loaded_checkpoint_keeps_its_velocities(tmp_path):
    path = tmp_path / "toy.ckpt"
    first = _stepped_toy_checkpoint([0.5])
    pipeline.save_checkpoint(first, path)
    loaded = pipeline.load_checkpoint(path)
    second = _stepped_toy_checkpoint([0.25, 0.125])
    for v in second.opt_state.velocity:
        v *= -3.0
    pipeline.save_checkpoint(second, path)  # renamed over the mapped file
    _assert_same_state(loaded, first)
    _assert_same_state(pipeline.load_checkpoint(path), second)
    pipeline.save_checkpoint(loaded, path)  # a checkpoint saved over its own file
    _assert_same_state(pipeline.load_checkpoint(path), first)
    _assert_same_state(loaded, first)


_IMPORT_FOOTPRINT = """
import sys

import numpy as np

import evpose.cli
from evpose import autodiff as ad, model as m, pipeline, synth
from evpose.event_image import image_from_window
from evpose.events import parse_events, parse_poses, window_events

scene = synth.default_scene(seed=5, rate_hz=200.0, duration=0.1)
events_text, poses_text = synth.generate_dataset(scene)
events = parse_events(events_text, scene.sensor_w, scene.sensor_h)
windows, _ = window_events(events, parse_poses(poses_text))
cfg = m.ModelConfig(input_h=64, input_w=64, conv_blocks=((4, 3, 1, 4), (4, 3, 1, 4)),
                    feature_dim=16, lstm_hidden=8, lstm_layers=1, fc_hidden=8)
params = m.init_params(cfg, seed=1)
m.predict(image_from_window(windows[0], cfg.input_h, cfg.input_w), params)
tensors = params.ordered()
ckpt = pipeline.Checkpoint(params, ad.make_opt_state(tensors, 1e-3, 0.9, 1e-6), 0, [])
pipeline.save_checkpoint(ckpt, sys.argv[1])
pipeline.load_checkpoint(sys.argv[1])
before = [t.data.copy() for t in tensors]
ad.sgd_step(tensors, {t: np.ones(t.shape) for t in tensors}, ckpt.opt_state)
assert all((t.data != b).all() for t, b in zip(tensors, before)), "sgd_step left a parameter as it was"
trained = pipeline.train(pipeline.TrainConfig(model=cfg, lr=1e-3, epochs=1, seed=1), windows)
init = m.init_params(cfg, seed=1).tensors
assert any((t.data != init[name].data).any() for name, t in trained.params.tensors.items()), "training changed nothing"
pipeline.save_checkpoint(trained, sys.argv[1])
pipeline.load_checkpoint(sys.argv[1])
assert "scipy.linalg" not in sys.modules, "scipy.linalg loaded"
"""


def test_training_never_loads_scipy_linalg(tmp_path):
    """``scipy.linalg`` costs tens of MB of resident memory: parsing,
    prediction, SGD steps, training and checkpoint I/O all run without it,
    as ``sgd_step`` loads BLAS ``daxpy`` from scipy's ``_fblas`` module alone."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cmd = [sys.executable, "-c", _IMPORT_FOOTPRINT, str(tmp_path / "toy.ckpt")]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
