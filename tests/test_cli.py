import contextlib
import copy
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import autodiff as ad
from evpose import config, evaluation, pipeline, synth
from evpose import model as m
from evpose.cli import build_parser, main
from evpose.errors import NumericError
from evpose.events import parse_events, parse_poses, split_random, window_events


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = synth.default_scene(seed=3, rate_hz=200.0, duration=0.3)
    synth.write_dataset(cfg, out)
    return out


def tiny_train_config(tmp_path, **overrides):
    cfg = dict(
        model=dataclasses.asdict(
            m.ModelConfig(
                input_h=64,
                input_w=64,
                conv_blocks=[[4, 3, 1, 4], [4, 3, 1, 4]],
                feature_dim=16,
                lstm_hidden=8,
                lstm_layers=1,
                fc_hidden=8,
                dropout_rate=0.5,
            )
        ),
        lr=1e-4,
        epochs=2,
        seed=1,
        split="random",
        split_fraction=0.7,
    )
    cfg.update(overrides)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return path


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", "somewhere"])
        assert exc.value.code == 1

    def test_runs_as_a_module_from_the_source_tree(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        run = subprocess.run([sys.executable, "-m", "evpose", "--help"], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "synth" in run.stdout

    def test_help_gives_eval_and_robustness_a_sentence_each(self):
        text = " ".join(build_parser().format_help().split())
        assert "eval score a checkpoint on the test side of its train config's split" in text
        assert "robustness score a checkpoint as eval does on the newest tenth, two tenths, ..., all of each" in text


class TestSynthAndConvert:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        config_path = tmp_path / "scene.json"
        config_path.write_text(config.to_json(synth.default_scene(seed=1, duration=0.1)))
        out = tmp_path / "ds"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        n_events, n_poses = (len((out / name).read_text().splitlines()) for name in ("events.txt", "groundtruth.txt"))
        assert n_events > 0 and n_poses == 20
        assert capsys.readouterr().out == f"wrote {n_events} events and {n_poses} poses to {out}\n"

    def test_synth_trajectory_overflow_writes_nothing(self, tmp_path):
        scene = synth.default_scene(duration=0.1)
        trajectory = dataclasses.replace(scene.trajectory, position_base=(1.7e308, 0.0, 0.0),
                                         position_amplitude=(1.7e308, 0.0, 0.0))
        config_path = tmp_path / "scene.json"
        config_path.write_text(config.to_json(dataclasses.replace(scene, trajectory=trajectory)))
        out = tmp_path / "ds"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_synth_render_error_keeps_the_old_events_file(self, tmp_path, capsys):
        """A pass that fails leaves events.txt as it was, and no temporary file."""
        out = tmp_path / "ds"
        synth.write_dataset(synth.default_scene(seed=1, duration=0.1), out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        config_path = tmp_path / "scene.json"
        config_path.write_text(config.to_json(dataclasses.replace(synth.default_scene(duration=0.1), focal=1e17)))
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 2
        assert "segment 0 does not project" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_synth_missing_config_is_data_error(self, tmp_path):
        code = main(["synth", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2

    def test_convert_emits_pgms_and_index(self, dataset_dir, tmp_path):
        out = tmp_path / "images"
        code = main(
            [
                "convert",
                "--events", str(dataset_dir / "events.txt"),
                "--poses", str(dataset_dir / "groundtruth.txt"),
                "--out", str(out),
                "--width", "64",
                "--height", "64",
            ]
        )
        assert code == 0
        index = (out / "index.csv").read_text().splitlines()
        assert index[0].startswith("sequence_index,pgm,")
        n_rows = len(index) - 1
        pgms = [p for p in os.listdir(out) if p.endswith(".pgm")]
        assert len(pgms) == n_rows > 0
        first_pgm = (out / sorted(pgms)[0]).read_text().splitlines()
        assert first_pgm[0] == "P2"
        assert first_pgm[1] == "64 64"
        windows, _ = window_events(
            parse_events((dataset_dir / "events.txt").read_text(), 64, 64),
            parse_poses((dataset_dir / "groundtruth.txt").read_text()),
        )
        rows = list(csv.reader(index[1:]))
        assert [row[0] for row in rows] == [str(w.sequence_index) for w in windows]
        for row, w in zip(rows, windows):
            assert row[3:] == [repr(v) for v in [w.label.t, *w.label.p.tolist(), *w.label.q.tolist()]]
            assert not any("np.float64(" in cell for cell in row)

    def test_convert_bad_events_is_data_error(self, dataset_dir, tmp_path):
        bad = tmp_path / "bad_events.txt"
        bad.write_text("0.1 9999 0 1\n")
        code = main(
            [
                "convert",
                "--events", str(bad),
                "--poses", str(dataset_dir / "groundtruth.txt"),
                "--out", str(tmp_path / "img"),
                "--width", "64",
                "--height", "64",
            ]
        )
        assert code == 2

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_convert_reports_a_warning_on_one_line(self, tmp_path, capsys):
        events, poses = tmp_path / "events.txt", tmp_path / "poses.txt"
        events.write_text("0.010 1 1 1\n0.030 2 2 0\n0.020 3 3 1\n")
        poses.write_text("0.0 0 0 0 0 0 0 1\n0.05 0 0 0 0 0 0 1\n")
        code = main(["convert", "--events", str(events), "--poses", str(poses), "--out", str(tmp_path / "img"),
                     "--width", "8", "--height", "8"])
        assert code == 0
        assert capsys.readouterr().err == "evpose: warning: 1 event(s) with non-monotone timestamps\n"


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_data_files_named_like_archives_are_read_as_text(suffix, dataset_dir, tmp_path):
    """np.loadtxt given a path opens these suffixes as archives (and a URL
    as a download); evpose hands it bytes, never a path."""
    outputs = {}
    for name, suffix_used in (("plain", ""), ("renamed", suffix)):
        paths = []
        for file_name in ("events.txt", "groundtruth.txt"):
            path = tmp_path / f"{name}_{file_name}{suffix_used}"
            path.write_bytes((dataset_dir / file_name).read_bytes())
            paths.append(str(path))
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["convert", "--events", paths[0], "--poses", paths[1], "--out", str(out),
                         "--width", "64", "--height", "64"]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outputs["plain"]) > 1
    assert outputs["renamed"] == outputs["plain"]


@pytest.fixture(scope="module")
def train_config(tmp_path_factory):
    return tiny_train_config(tmp_path_factory.mktemp("config"))


@pytest.fixture(scope="module")
def trained(dataset_dir, train_config, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("train") / "model.ckpt"
    code = main(
        ["train", "--data", str(dataset_dir), "--config", str(train_config), "--out", str(ckpt)]
    )
    assert code == 0
    return ckpt


class TestTrainEvalRobustness:
    def test_train_writes_loadable_checkpoint(self, trained):
        ckpt = pipeline.load_checkpoint(trained)
        assert ckpt.epoch == 2
        assert len(ckpt.loss_history) == 2

    def test_eval_writes_json_and_csv(self, trained, train_config, dataset_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--ckpt", str(trained),
                "--data", str(dataset_dir),
                "--config", str(train_config),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert {"position", "orientation", "n_samples"} <= set(report)
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(csv_lines) == report["n_samples"] + 1

    def test_robustness_writes_table(self, trained, train_config, dataset_dir, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            [
                "robustness",
                "--ckpt", str(trained),
                "--data", str(dataset_dir),
                "--config", str(train_config),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11  # header + 10 fractions
        assert json.loads((tmp_path / "table.json").read_text())["rows"][-1]["fraction"] == 1.0

    @pytest.mark.parametrize("out", ["x.json", "x.csv", "x"])
    @pytest.mark.parametrize("command", ["eval", "robustness"])
    def test_out_names_the_json_and_csv_by_its_stem(self, command, out, trained, train_config, dataset_dir, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--ckpt", str(trained), "--data", str(dataset_dir), "--config", str(train_config),
                         "--out", str(tmp_path / out)])
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["x.csv", "x.json"]
        assert isinstance(json.loads((tmp_path / "x.json").read_text()), dict)
        rows = list(csv.reader((tmp_path / "x.csv").read_text().splitlines()))
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1

    @pytest.mark.parametrize("command", ["train", "eval", "robustness"])
    def test_out_in_a_missing_directory_fails_before_any_work(
        self, command, trained, train_config, dataset_dir, tmp_path, capsys
    ):
        out = tmp_path / "nodir" / "sub" / "out.ckpt"
        argv = [command, "--data", str(dataset_dir), "--config", str(train_config), "--out", str(out)]
        code = main(argv + (["--ckpt", str(trained)] if command != "train" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"evpose: data error: --out {out}: no directory {out.parent}\n"
        assert captured.out == ""  # not even train's window count: nothing was loaded
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("out", ["outdir", "outdir/", "outdir/sub/", ""])
    @pytest.mark.parametrize("command", ["train", "eval", "robustness"])
    def test_out_that_names_a_directory_fails_before_any_work(
        self, command, out, trained, train_config, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # "" is the working directory
        (tmp_path / "outdir" / "sub").mkdir(parents=True)
        argv = [command, "--data", str(dataset_dir), "--config", str(train_config), "--out", out]
        code = main(argv + (["--ckpt", str(trained)] if command != "train" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"evpose: data error: --out {out!r}: names a directory, not a file\n"
        assert captured.out == ""
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["outdir", "outdir/sub"]

    def test_eval_and_robustness_score_the_windows_training_held_out(
        self, trained, train_config, dataset_dir, tmp_path
    ):
        windows, _ = window_events(
            parse_events((dataset_dir / "events.txt").read_text(), 64, 64),
            parse_poses((dataset_dir / "groundtruth.txt").read_text()),
        )
        held_out = split_random(windows, 0.7, 1)[1]  # train_config: seed 1, fraction 0.7
        expected = evaluation.evaluate(pipeline.load_checkpoint(trained).params, held_out)
        argv = ["--ckpt", str(trained), "--data", str(dataset_dir), "--config", str(train_config)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", *argv, "--out", str(tmp_path / "report.json")]) == 0
            assert main(["robustness", *argv, "--out", str(tmp_path / "table.csv")]) == 0
        rows = [line.split(",") for line in (tmp_path / "report.csv").read_text().splitlines()[1:]]
        assert [(float(p), float(o)) for _, p, o in rows] == expected.per_sample_errors
        last = (tmp_path / "table.csv").read_text().splitlines()[-1].split(",")
        assert [float(v) for v in last] == [1.0, expected.position.median, expected.orientation.median]

    def test_config_of_another_model_is_data_error(self, trained, dataset_dir, tmp_path, capsys):
        other = tiny_train_config(tmp_path, model=dataclasses.asdict(m.toy_config()))
        for command in ("eval", "robustness"):
            code = main([command, "--ckpt", str(trained), "--data", str(dataset_dir),
                         "--config", str(other), "--out", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"evpose: data error: checkpoint {trained} holds a different model than {other}\n"

    def test_eval_missing_checkpoint_is_data_error(self, train_config, dataset_dir, tmp_path):
        code = main(
            [
                "eval",
                "--ckpt", str(tmp_path / "missing.ckpt"),
                "--data", str(dataset_dir),
                "--config", str(train_config),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_eval_checkpoint_without_model_is_data_error(self, trained, train_config, dataset_dir, tmp_path):
        head, _, rest = trained.read_bytes().partition(b"\n")
        header = json.loads(head)
        del header["model"]
        bad = tmp_path / "no_model.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        code = main(
            ["eval", "--ckpt", str(bad), "--data", str(dataset_dir), "--config", str(train_config),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_eval_corrupted_parameters_is_numeric_failure(self, trained, train_config, dataset_dir, tmp_path):
        ckpt = pipeline.load_checkpoint(trained)
        ckpt.params.tensors["head.out.b"].data[:] = np.inf
        bad = tmp_path / "inf.ckpt"
        pipeline.save_checkpoint(ckpt, bad)
        code = main(
            [
                "eval",
                "--ckpt", str(bad),
                "--data", str(dataset_dir),
                "--config", str(train_config),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3

    def test_eval_non_finite_position_is_numeric_failure(self, trained, train_config, dataset_dir, tmp_path):
        ckpt = pipeline.load_checkpoint(trained)
        ckpt.params.tensors["head.out.b"].data[0, 0] = np.nan  # the quaternion stays finite
        bad = tmp_path / "nan.ckpt"
        pipeline.save_checkpoint(ckpt, bad)
        out = tmp_path / "r.json"
        code = main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir), "--config", str(train_config),
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "robustness"])
    def test_quaternion_too_small_to_normalize_is_numeric_failure(self, command, dataset_dir, tmp_path, capsys):
        model = m.ModelConfig(input_h=64, input_w=64, conv_blocks=((2, 3, 1, 4),), feature_dim=16, lstm_hidden=4,
                              fc_hidden=4)
        params = m.init_params(model, seed=0)
        params.tensors["head.out.w"].data[:] = 0.0
        params.tensors["head.out.b"].data[:] = [0.1, 0.2, 0.3, 1e-160, 3e-161, 2e-161, 9e-161]  # subnormal squares
        ckpt = tmp_path / "tiny_q.ckpt"
        pipeline.save_checkpoint(pipeline.Checkpoint(params, ad.make_opt_state(params.ordered(), 1e-3, 0.9, 0.0), 0, []),
                                 ckpt)
        train = tiny_train_config(tmp_path, model=dataclasses.asdict(model))
        code = main([command, "--ckpt", str(ckpt), "--data", str(dataset_dir), "--config", str(train),
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("evpose: numeric failure: ")
        assert "too small to normalize" in err


_TRAIN = json.loads(config.to_json(pipeline.TrainConfig(model=m.toy_config(), epochs=1)))
_SCENE = json.loads(config.to_json(synth.default_scene(duration=0.1)))
_DROP = object()


def _edited(base, path, value=_DROP):
    """JSON text of ``base`` with the value at ``path`` replaced, or dropped."""
    d = copy.deepcopy(base)
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(d)


def _declare_feature_dim(header, feature_dim):
    """Edit a checkpoint header to a model of ``feature_dim`` and that model's manifest."""
    header["model"]["feature_dim"] = feature_dim
    model = config.from_dict(m.ModelConfig, header["model"])
    header["params"] = [{"name": name, "shape": list(shape)} for name, shape in m.param_manifest(model)]


# (command, payload, exit code, fragment of the message). A train, synth, eval
# or robustness payload is the --config file's content, a
# convert-events/convert-poses payload the bytes of that data file, an
# eval-header payload edits a trained checkpoint's header, and a convert
# payload is extra arguments.
_BAD_INPUTS = {
    "train-unknown-key": ("train", _edited(_TRAIN, ["learning_rate"], 0.1), 2, "unknown key(s) 'learning_rate'"),
    "train-nested-unknown-key": ("train", _edited(_TRAIN, ["model", "depth"], 3), 2, "TrainConfig.model: unknown"),
    "train-lr-str": ("train", _edited(_TRAIN, ["lr"], "fast"), 2, "TrainConfig.lr: expected a finite float"),
    "train-lr-nan": ("train", _edited(_TRAIN, ["lr"], float("nan")), 2, "TrainConfig.lr: expected a finite float"),
    "train-lr-huge-int": ("train", _edited(_TRAIN, ["lr"], 10**400), 2, "TrainConfig.lr: expected a finite float"),
    "train-seed-float": ("train", _edited(_TRAIN, ["seed"], 1.5), 2, "TrainConfig.seed: expected int"),
    "train-epochs-float": ("train", _edited(_TRAIN, ["epochs"], 1.5), 2, "TrainConfig.epochs: expected int"),
    "train-epochs-bool": ("train", _edited(_TRAIN, ["epochs"], True), 2, "TrainConfig.epochs: expected int"),
    "train-split-fraction-null": ("train", _edited(_TRAIN, ["split_fraction"], None), 2, "TrainConfig.split_fraction"),
    "train-nested-ill-typed": ("train", _edited(_TRAIN, ["model", "lstm_hidden"], "8"), 2, "TrainConfig.model.lstm_hidden"),
    "train-model-not-object": ("train", _edited(_TRAIN, ["model"], [8, 8]), 2, "TrainConfig.model: expected an object"),
    "train-epochs-0": ("train", _edited(_TRAIN, ["epochs"], 0), 2, "epochs must be >= 1"),
    "train-negative-seed": ("train", _edited(_TRAIN, ["seed"], -1), 2, "seed must be >= 0"),
    "train-lstm-hidden-0": ("train", _edited(_TRAIN, ["model", "lstm_hidden"], 0), 2, "TrainConfig.model: lstm_hidden must be >= 1"),
    "train-short-conv-block": ("train", _edited(_TRAIN, ["model", "conv_blocks", 0], [4, 3, 1]), 2,
                               "TrainConfig.model.conv_blocks[0]: expected 4 items"),
    "train-pool-does-not-tile": ("train", _edited(_TRAIN, ["model", "input_h"], 9), 2, "does not tile"),
    "train-batch-size-0": ("train", _edited(_TRAIN, ["batch_size"], 0), 2, "TrainConfig: batch_size must be >= 1"),
    "train-dropout-rate-1": ("train", _edited(_TRAIN, ["model", "dropout_rate"], 1.0), 2,
                             "TrainConfig.model: dropout_rate must be in [0, 1)"),
    # parameter counts no array can hold: numpy's "Maximum allowed dimension
    # exceeded" traceback before, and for lstm_layers minutes of looping
    **{f"train-{name}-2**63": ("train", _edited(_TRAIN, ["model", *path], 2**63), 2,
                               f"parameters take more than the {sys.maxsize} bytes an array can hold")
       for name, path in (
        ("lstm-hidden", ["lstm_hidden"]), ("fc-hidden", ["fc_hidden"]), ("lstm-layers", ["lstm_layers"]),
        ("conv-channels", ["conv_blocks", 0, 0]))},
    # the toy model's 8x8 input against the 64x64 dataset: the reader rejects
    # the events before any window is painted
    "train-events-outside-the-model-input": ("train", json.dumps(_TRAIN), 2, "outside 8x8 sensor"),
    "train-bad-json": ("train", '{"lr": 0.1,', 2, "TrainConfig: invalid JSON"),
    "train-not-object": ("train", "[]", 2, "TrainConfig: expected an object"),
    # 64x64 so the dataset loads; the 3.64 PiB request then fails at once and allocates nothing
    "train-feature-dim-1e12": ("train", json.dumps({**_TRAIN, "model": {**_TRAIN["model"], "input_h": 64, "input_w": 64,
                                                                        "feature_dim": 10**12}}), 2,
                               "evpose: out of memory: Unable to allocate"),
    "synth-missing-key": ("synth", _edited(_SCENE, ["seed"]), 2, "SceneConfig: missing key 'seed'"),
    "synth-unknown-key": ("synth", _edited(_SCENE, ["fps"], 30), 2, "unknown key(s) 'fps'"),
    "synth-nested-unknown-key": ("synth", _edited(_SCENE, ["trajectory", "spin"], [1, 2, 3]), 2,
                                 "SceneConfig.trajectory: unknown"),
    "synth-2d-segment-point": ("synth", _edited(_SCENE, ["segments", 0, 0], [0.0, 0.0]), 2,
                               "SceneConfig.segments[0][0]: expected 3 items"),
    "synth-negative-seed": ("synth", _edited(_SCENE, ["seed"], -1), 2, "seed must be >= 0"),
    "synth-sample-count-overflow": ("synth", _edited(json.loads(_edited(_SCENE, ["rate_hz"], 1e300)), ["duration"], 1e10),
                                    2, "rate_hz * duration must be finite"),
    "synth-one-sample": ("synth", _edited(_SCENE, ["duration"], 0.005), 2,
                         "rate_hz * duration must give at least 2 samples, got 1"),
    # pose arrays of 64 B a sample: past sys.maxsize bytes, then past memory, before a pose is sampled
    "synth-pose-arrays-past-maxsize": ("synth", _edited(json.loads(_edited(_SCENE, ["rate_hz"], 1e9)), ["duration"], 1e9),
                                       2, "1000000000000000000 samples take more than the"),
    "synth-pose-arrays-past-memory": ("synth", _edited(json.loads(_edited(_SCENE, ["rate_hz"], 1e8)), ["duration"], 1e9),
                                      2, "evpose: out of memory: Unable to allocate"),
    "synth-segment-not-finite": ("synth", _edited(_SCENE, ["segments", 1], [[0.0, 0.0, 1e308], [0.0, 0.0, -1e308]]), 2,
                                 "segment 1 does not project to finite image coordinates"),
    "synth-focal-1e17": ("synth", _edited(_SCENE, ["focal"], 1e17), 2,
                         "segment 0 does not project to finite image coordinates within ±2**44 px"),
    "synth-phase-overflow": ("synth", _edited(_SCENE, ["trajectory", "position_frequency_hz"], [1e308, 0, 0]), 2,
                             "trajectory.position_frequency_hz[0] makes the phase 2*pi*f*t + phase non-finite"),
    "synth-euler-phase-overflow": ("synth", _edited(_SCENE, ["trajectory", "euler_frequency_hz"], [0, 1e308, 0]), 2,
                                   "trajectory.euler_frequency_hz[1] makes the phase 2*pi*f*t + phase non-finite "
                                   "at t = 0.0"),
    "synth-position-overflow": ("synth", _edited(json.loads(_edited(_SCENE, ["trajectory", "position_base"], [1.7e308, 0, 0])),
                                                 ["trajectory", "position_amplitude"], [1.7e308, 0, 0]), 2,
                                "trajectory.position_base[0] + position_amplitude[0] makes the position non-finite"),
    "synth-bad-json": ("synth", "{", 2, "SceneConfig: invalid JSON"),
    "synth-not-utf8": ("synth", b"\x80\x81", 2, "SceneConfig: invalid JSON"),
    "eval-header-no-model": ("eval-header", lambda h: h.pop("model"), 2, "header: missing key 'model'"),
    "eval-header-nested-missing": ("eval-header", lambda h: h["optimizer"].pop("lr"), 2, "header.optimizer: missing key 'lr'"),
    "eval-header-unknown-key": ("eval-header", lambda h: h.update(note="x"), 2, "header: unknown key(s) 'note'"),
    "eval-header-data-size": ("eval-header", lambda h: _declare_feature_dim(h, 10**12), 2,
                              "checkpoint header declares 1040000512009776 bytes of arrays, the file holds 28464"),
    "convert-events-not-utf8": ("convert-events", b"0.1 1 1 1\n0.2 2 \xff 1\n", 2, "line 2: not UTF-8 text"),
    "convert-events-not-utf8-cr-lines": ("convert-events", b"0.1 1 1 1\r0.2 2 2 1\r0.3 3 \xff 1\r", 2,
                                         "line 3: not UTF-8 text"),
    "convert-poses-not-utf8": ("convert-poses", b"0.0 0 0 0 0 0 0 1\n\n\x80 0 0 0 0 0 0 1\n", 2, "line 3: not UTF-8 text"),
    "convert-fraction-0": ("convert", ["--fraction", "0"], 1, "argument --fraction: must be in (0, 1]"),
    "convert-fraction-2": ("convert", ["--fraction", "2"], 1, "argument --fraction: must be in (0, 1]"),
    "convert-fraction-nan": ("convert", ["--fraction", "nan"], 1, "argument --fraction: must be in (0, 1]"),
    "convert-width-0": ("convert", ["--width", "0"], 1, "argument --width: must be >= 1"),
    "convert-height-str": ("convert", ["--height", "tall"], 1, "argument --height: invalid int value"),
    "eval-fraction-1": ("eval", _edited(_TRAIN, ["split_fraction"], 1), 2,
                        "TrainConfig: split_fraction must be in (0, 1)"),
    "eval-negative-seed": ("eval", _edited(_TRAIN, ["seed"], -1), 2, "TrainConfig: seed must be >= 0"),
    "robustness-fraction-0": ("robustness", _edited(_TRAIN, ["split_fraction"], 0), 2,
                              "TrainConfig: split_fraction must be in (0, 1)"),
}


@pytest.mark.parametrize("command, payload, code, fragment", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_is_one_line_error(command, payload, code, fragment, request, dataset_dir, tmp_path, capsys):
    data = ["--data", str(dataset_dir), "--out", str(tmp_path / "out")]
    if command in ("train", "synth", "eval", "robustness"):
        path = tmp_path / "config.json"
        path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
        argv = [command, "--config", str(path), *(data[2:] if command == "synth" else data)]
        if command in ("eval", "robustness"):
            argv += ["--ckpt", str(tmp_path / "model.ckpt")]
    elif command == "eval-header":
        head, _, rest = request.getfixturevalue("trained").read_bytes().partition(b"\n")
        header = json.loads(head)
        payload(header)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        argv = ["eval", "--ckpt", str(path), "--config", str(request.getfixturevalue("train_config")), *data]
    else:  # convert
        events, poses = (str(dataset_dir / name) for name in ("events.txt", "groundtruth.txt"))
        if command != "convert":
            path = tmp_path / "data.txt"
            path.write_bytes(payload)
            events, poses = (str(path), poses) if command == "convert-events" else (events, str(path))
            payload = ["--width", "64", "--height", "64"]
        argv = ["convert", "--events", events, "--poses", poses, "--out", str(tmp_path / "img"), *payload]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and re.match(r"evpose( \w+)?: ", err)
    assert fragment in err


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """Bytes of a tiny 8x8 dataset, a toy train config and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("toy")
    scene = dataclasses.replace(synth.default_scene(seed=5, duration=0.2), sensor_w=8, sensor_h=8, focal=9.0)
    synth.write_dataset(scene, root)
    (root / "train.json").write_text(config.to_json(pipeline.TrainConfig(model=m.toy_config(), epochs=1)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--data", str(root), "--config", str(root / "train.json"),
                     "--out", str(root / "model.ckpt")]) == 0
    return {name: (root / name).read_bytes()
            for name in ("events.txt", "groundtruth.txt", "train.json", "model.ckpt")}


# Tokens written into a file. Digits go into the data files only: in a config
# or a checkpoint header a digit can make a valid model too large to train here.
_TOKENS = [b"\xff", b"\x80", b"\n", b"\r", b"\r\n", b"\x0b", b"\xc2\x85", b"\xe2\x80\xa8", b"-", b"+",
           b" ", b"inf", b"1e999", b"nan", b"#", b"{", b"}", b",", b'"', b"null", b"true"]
_DIGITS = [b"0", b"7", b"9"]
# The commands that read each file.
_READERS = {"events.txt": ("convert", "train", "eval"), "groundtruth.txt": ("convert", "train", "eval"),
            "train.json": ("train", "eval"), "model.ckpt": ("eval",)}


@pytest.mark.filterwarnings(r"ignore:\d+ event\(s\) with non-monotone timestamps:UserWarning")  # mutations may reorder
@pytest.mark.filterwarnings("default::RuntimeWarning")  # mutated weights may overflow; main prints it on one line
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_mutated_files_through_main_exit_with_a_code(toy_files, data):
    name = data.draw(st.sampled_from(sorted(_READERS)))
    tokens = _TOKENS + (_DIGITS if name.endswith(".txt") else [])
    content = toy_files[name]
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(content)))
        kind = data.draw(st.sampled_from(["insert", "replace", "delete", "truncate"]))
        token = data.draw(st.sampled_from(tokens))
        if kind == "insert":
            content = content[:at] + token + content[at:]
        elif kind == "replace":
            content = content[:at] + token + content[at + len(token):]
        elif kind == "delete":
            content = content[:at] + content[at + data.draw(st.integers(1, 3)):]
        else:
            content = content[:at]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file_name, original in toy_files.items():
            (root / file_name).write_bytes(content if file_name == name else original)
        argvs = {
            "convert": ["convert", "--events", str(root / "events.txt"), "--poses", str(root / "groundtruth.txt"),
                        "--out", str(root / "img"), "--width", "8", "--height", "8"],
            "train": ["train", "--data", tmp, "--config", str(root / "train.json"), "--out", str(root / "new.ckpt")],
            "eval": ["eval", "--ckpt", str(root / "model.ckpt"), "--data", tmp, "--config", str(root / "train.json"),
                     "--out", str(root / "report.json")],
        }
        for command in _READERS[name]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argvs[command])
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2, 3), (command, code)
            assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def diverging_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("diverging")
    scene = dataclasses.replace(synth.default_scene(duration=0.5), sensor_w=8, sensor_h=8, focal=8.75)
    synth.write_dataset(scene, root)
    return root


# learning rate and the error it gives the toy model, seed 0, on diverging_dir
_DIVERGING = {
    "prediction": (1e300, "non-finite prediction in pose_loss at epoch 1, window index 18"),
    "loss": (1e10, "non-finite loss at epoch 1, window index 17"),
}


@pytest.mark.filterwarnings("default::RuntimeWarning")  # the overflow that makes the run diverge
@pytest.mark.parametrize("lr, message", _DIVERGING.values(), ids=_DIVERGING.keys())
def test_diverging_training_names_epoch_and_window(lr, message, diverging_dir, tmp_path, capsys):
    train_config = pipeline.TrainConfig(model=m.toy_config(), lr=lr, epochs=5, seed=0)
    windows, _ = window_events(parse_events((diverging_dir / "events.txt").read_text(), 8, 8),
                               parse_poses((diverging_dir / "groundtruth.txt").read_text()))
    with pytest.raises(NumericError) as exc, pytest.warns(RuntimeWarning):
        pipeline.train(train_config, split_random(windows, 0.7, 0)[0])
    assert str(exc.value) == message

    (tmp_path / "train.json").write_text(config.to_json(train_config))
    code = main(["train", "--data", str(diverging_dir), "--config", str(tmp_path / "train.json"),
                 "--out", str(tmp_path / "model.ckpt")])
    *warned, error = capsys.readouterr().err.splitlines()
    assert code == 3
    assert error == f"evpose: numeric failure: {message}"
    assert warned and all(line.startswith("evpose: warning: ") for line in warned)
