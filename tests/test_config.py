import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import autodiff as ad
from evpose import config, pipeline, synth
from evpose import model as m
from evpose.errors import DataError

# The on-disk formats, byte for byte: config files and checkpoint headers written
# by earlier versions must keep reading back, and new ones must not drift.
TOY_TRAIN_CONFIG_JSON = """\
{
  "model": {
    "input_h": 8,
    "input_w": 8,
    "conv_blocks": [
      [
        4,
        3,
        1,
        2
      ]
    ],
    "feature_dim": 16,
    "lstm_hidden": 8,
    "lstm_layers": 2,
    "fc_hidden": 8,
    "dropout_rate": 0.5
  },
  "lr": 1e-05,
  "momentum": 0.9,
  "weight_decay": 1e-06,
  "epochs": 200,
  "batch_size": 1,
  "seed": 0,
  "split": "random",
  "split_fraction": 0.7
}"""

TOY_CHECKPOINT_HEADER = (
    '{"format": "evpose-checkpoint", "version": 3, "model": {"input_h": 8, "input_w": 8, '
    '"conv_blocks": [[4, 3, 1, 2]], "feature_dim": 16, "lstm_hidden": 8, "lstm_layers": 2, '
    '"fc_hidden": 8, "dropout_rate": 0.5}, "params": [{"name": "conv0.w", "shape": [4, 1, 3, 3]}, '
    '{"name": "conv0.b", "shape": [4]}, {"name": "feat.w", "shape": [64, 16]}, '
    '{"name": "feat.b", "shape": [1, 16]}, {"name": "lstm0.w_x", "shape": [4, 32]}, '
    '{"name": "lstm0.w_h", "shape": [8, 32]}, {"name": "lstm0.b", "shape": [1, 32]}, '
    '{"name": "lstm1.w_x", "shape": [8, 32]}, {"name": "lstm1.w_h", "shape": [8, 32]}, '
    '{"name": "lstm1.b", "shape": [1, 32]}, {"name": "head.fc1.w", "shape": [8, 8]}, '
    '{"name": "head.fc1.b", "shape": [1, 8]}, {"name": "head.out.w", "shape": [8, 7]}, '
    '{"name": "head.out.b", "shape": [1, 7]}], "epoch": 2, "loss_history": [0.75, 0.5]}'
)
# version 2 also held the optimizer hyperparameters, and padded the line to
# 896 bytes, newline included, before the parameters and the velocities
TOY_CHECKPOINT_HEADER_V2 = (
    TOY_CHECKPOINT_HEADER.replace('"version": 3', '"version": 2').replace(
        ', "epoch"', ', "optimizer": {"lr": 0.001, "momentum": 0.9, "weight_decay": 1e-06}, "epoch"')
    + " " * 5
)


def toy_checkpoint_bytes(tmp_path):
    params = m.init_params(m.toy_config(), seed=0)
    opt = ad.make_opt_state(params.ordered(), 1e-3, 0.9, 1e-6)
    path = tmp_path / "toy.ckpt"
    pipeline.save_checkpoint(pipeline.Checkpoint(params, opt, 2, [0.75, 0.5]), path)
    return path.read_bytes()


class TestFormats:
    def test_train_config_json_is_pinned(self):
        assert config.to_json(pipeline.TrainConfig(model=m.toy_config())) == TOY_TRAIN_CONFIG_JSON

    def test_checkpoint_header_is_pinned(self, tmp_path):
        header, _, arrays = toy_checkpoint_bytes(tmp_path).partition(b"\n")
        assert header.decode() == TOY_CHECKPOINT_HEADER
        assert arrays == b"".join(t.data.tobytes() for t in m.init_params(m.toy_config(), seed=0).ordered())

    def test_version_2_checkpoint_still_loads(self, tmp_path):
        params = m.init_params(m.toy_config(), seed=0)
        arrays = b"".join(t.data.tobytes() for t in params.ordered())
        path = tmp_path / "v2.ckpt"
        # NaN bytes for the velocities, which are not read
        path.write_bytes(TOY_CHECKPOINT_HEADER_V2.encode() + b"\n" + arrays + b"\xff" * len(arrays))
        assert len(TOY_CHECKPOINT_HEADER_V2) + 1 == 896
        loaded = pipeline.load_checkpoint(path)
        assert (loaded.epoch, loaded.loss_history, loaded.opt_state) == (2, [0.75, 0.5], None)
        assert b"".join(t.data.tobytes() for t in loaded.params.ordered()) == arrays


class TestFromDict:
    def test_omitted_keys_take_defaults_and_ints_become_floats(self):
        cfg = config.from_json(pipeline.TrainConfig, '{"lr": 1, "model": {"fc_hidden": 32}}')
        assert cfg == pipeline.TrainConfig(lr=1.0, model=m.ModelConfig(fc_hidden=32))
        assert type(cfg.lr) is float

    def test_key_without_default_is_required(self):
        d = dataclasses.asdict(synth.default_scene())
        del d["trajectory"]["euler_phase"]  # Trajectory fields have defaults
        assert config.from_dict(synth.SceneConfig, d).trajectory.euler_phase == (0.0, 0.0, 0.0)
        del d["focal"]
        with pytest.raises(DataError, match="SceneConfig: missing key 'focal'"):
            config.from_dict(synth.SceneConfig, d)

    def test_unsupported_annotation_is_type_error(self):
        @dataclasses.dataclass(frozen=True)
        class Weighted:
            weights: list[float]

        with pytest.raises(TypeError, match=r"Weighted.weights: unsupported annotation list\[float\]"):
            config.from_dict(Weighted, {"weights": [1.0]})


@pytest.fixture(scope="module")
def valid_dicts(tmp_path_factory):
    header, _, _ = toy_checkpoint_bytes(tmp_path_factory.mktemp("ckpt")).partition(b"\n")
    return {
        pipeline.TrainConfig: json.loads(config.to_json(pipeline.TrainConfig(model=m.toy_config()))),
        synth.SceneConfig: json.loads(config.to_json(synth.default_scene())),
        pipeline._Header: json.loads(header),
    }


def _containers(node, path=()):
    """Paths of every JSON object and list inside ``node``, ``node`` included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _containers(child, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


@pytest.mark.parametrize("cls", [pipeline.TrainConfig, synth.SceneConfig, pipeline._Header],
                         ids=["train-config", "scene-config", "checkpoint-header"])
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_mutated_dict_is_instance_or_data_error(cls, valid_dicts, data):
    d = copy.deepcopy(valid_dicts[cls])
    paths = list(_containers(d))  # pick a depth first, so long lists do not crowd out the top level
    depth = data.draw(st.sampled_from(sorted({len(p) for p in paths})))
    path = data.draw(st.sampled_from([p for p in paths if len(p) == depth]))
    node = d
    for key in path:
        node = node[key]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = data.draw(st.sampled_from(["drop", "add", "swap"] if keys else ["add"]))
    if action == "add":
        value = data.draw(_JSON_VALUES)
        if isinstance(node, dict):
            node[data.draw(st.text(max_size=8))] = value
        else:
            node.append(value)
    else:
        key = data.draw(st.sampled_from(keys))
        if action == "drop":
            del node[key]
        else:
            # small integers are well typed for many fields but out of range
            # for some, so they reach the classes' own __post_init__ checks
            node[key] = data.draw(st.integers(-2, 2) | _JSON_VALUES)
    try:
        result = config.from_dict(cls, d)
    except DataError:
        return
    assert isinstance(result, cls)
