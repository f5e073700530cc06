import json

import numpy as np
import pytest

from evpose import autodiff as ad
from evpose import config, evaluation, pipeline
from evpose import model as m
from evpose.errors import CheckpointError, InsufficientDataError
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
                    dict(momentum=1.0), dict(momentum=-0.1)):
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

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        pipeline.save_checkpoint(self.ckpt, path)
        with open(path, "ab") as f:
            f.write(b"extra")
        with pytest.raises(CheckpointError):
            pipeline.load_checkpoint(path)
