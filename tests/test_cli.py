import hashlib
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from evpose import model as m
from evpose import pipeline, synth
from evpose.cli import main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = synth.default_scene(seed=3, rate_hz=200.0, duration=0.3)
    synth.write_dataset(cfg, out)
    return out


def tiny_train_config(tmp_path, **overrides):
    cfg = dict(
        model=m.ModelConfig(
            input_h=64,
            input_w=64,
            conv_blocks=[[4, 3, 1, 4], [4, 3, 1, 4]],
            feature_dim=16,
            lstm_hidden=8,
            lstm_layers=1,
            fc_hidden=8,
            dropout_rate=0.5,
        ).to_dict(),
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


class TestSynthAndConvert:
    def test_synth_writes_dataset(self, tmp_path):
        config_path = tmp_path / "scene.json"
        config_path.write_text(synth.default_scene(seed=1, duration=0.1).to_json())
        out = tmp_path / "ds"
        assert main(["synth", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "events.txt").exists()
        assert (out / "groundtruth.txt").exists()

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


@pytest.fixture(scope="module")
def trained(dataset_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    ckpt = tmp / "model.ckpt"
    config = tiny_train_config(tmp)
    code = main(
        ["train", "--data", str(dataset_dir), "--config", str(config), "--out", str(ckpt)]
    )
    assert code == 0
    return ckpt


class TestTrainEvalRobustness:
    def test_train_writes_loadable_checkpoint(self, trained):
        ckpt = pipeline.load_checkpoint(trained)
        assert ckpt.epoch == 2
        assert len(ckpt.loss_history) == 2

    def test_eval_writes_json_and_csv(self, trained, dataset_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--ckpt", str(trained),
                "--data", str(dataset_dir),
                "--split", "random",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert {"position", "orientation", "n_samples"} <= set(report)
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(csv_lines) == report["n_samples"] + 1

    def test_robustness_writes_table(self, trained, dataset_dir, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            [
                "robustness",
                "--ckpt", str(trained),
                "--data", str(dataset_dir),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11  # header + 10 fractions
        assert json.loads((tmp_path / "table.json").read_text())["rows"][-1]["fraction"] == 1.0

    def test_eval_missing_checkpoint_is_data_error(self, dataset_dir, tmp_path):
        code = main(
            [
                "eval",
                "--ckpt", str(tmp_path / "missing.ckpt"),
                "--data", str(dataset_dir),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_eval_checkpoint_without_model_is_data_error(self, trained, dataset_dir, tmp_path):
        head, _, rest = trained.read_bytes().partition(b"\n")
        header = json.loads(head)
        del header["model"]
        bad = tmp_path / "no_model.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        code = main(
            ["eval", "--ckpt", str(bad), "--data", str(dataset_dir), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_eval_corrupted_parameters_is_numeric_failure(self, trained, dataset_dir, tmp_path):
        ckpt = pipeline.load_checkpoint(trained)
        ckpt.params.tensors["head.out.b"].data[:] = np.inf
        bad = tmp_path / "inf.ckpt"
        pipeline.save_checkpoint(ckpt, bad)
        code = main(
            [
                "eval",
                "--ckpt", str(bad),
                "--data", str(dataset_dir),
                "--seed", "1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3


class _ManifestServer:
    def __init__(self, files):
        handler_files = dict(files)

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = handler_files.get(self.path)
                if body is None:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return f"http://127.0.0.1:{self.server.server_address[1]}"

    def __exit__(self, *exc):
        self.server.shutdown()


class TestFetch:
    def test_fetch_downloads_and_verifies(self, tmp_path):
        payload = b"0.001 1 1 1\n0.002 2 2 0\n"
        with _ManifestServer({"/events.txt": payload}) as base:
            manifest = tmp_path / "manifest.json"
            manifest.write_text(
                json.dumps(
                    {
                        "files": [
                            {
                                "url": f"{base}/events.txt",
                                "length": len(payload),
                                "sha256": hashlib.sha256(payload).hexdigest(),
                            }
                        ]
                    }
                )
            )
            out = tmp_path / "downloaded"
            assert main(["fetch", "--manifest", str(manifest), "--out", str(out)]) == 0
            assert (out / "events.txt").read_bytes() == payload

    def test_fetch_length_mismatch_is_data_error(self, tmp_path):
        with _ManifestServer({"/f.txt": b"abc"}) as base:
            manifest = tmp_path / "manifest.json"
            manifest.write_text(
                json.dumps({"files": [{"url": f"{base}/f.txt", "length": 999}]})
            )
            assert main(["fetch", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2

    def test_fetch_digest_mismatch_is_data_error(self, tmp_path):
        with _ManifestServer({"/f.txt": b"abc"}) as base:
            manifest = tmp_path / "manifest.json"
            manifest.write_text(
                json.dumps({"files": [{"url": f"{base}/f.txt", "sha256": "0" * 64}]})
            )
            assert main(["fetch", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2

    def test_fetch_empty_manifest_is_data_error(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"files": []}))
        assert main(["fetch", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
