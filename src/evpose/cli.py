"""Command line interface.

Subcommands: ``convert`` (events -> PGM event images + index CSV),
``synth`` (scene config -> dataset), ``train``, ``eval`` and
``robustness``. Config files are read by ``config.from_json``. ``eval``
and ``robustness`` take the ``--config`` that ``train`` read and score the
held-out side of its split, so they see no window the model trained on.

Exit codes: 0 success, 1 usage error (an out-of-range argument too),
2 data error or a request too large for memory (``MemoryError``),
3 numeric failure. Errors and warnings are reported on one line each.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings

from . import evaluation, pipeline, synth
from .config import from_json
from .errors import DataError, NumericError, ParseError
from .event_image import image_from_window, write_pgm
from .events import parse_events, parse_poses, split_novel, split_random, window_events


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ranged(kind, ok, rule):
    """An argparse ``type=`` that parses ``kind`` and requires ``ok(value)``."""

    def parse(text):
        value = kind(text)  # argparse reports a ValueError as "invalid <__name__> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


_NEWEST_FRACTION = _ranged(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_PIXELS = _ranged(int, lambda v: v >= 1, ">= 1")


def _read_text(path) -> str:
    """The UTF-8 text of a data file; a byte that is not UTF-8 is a ParseError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as the parsers number lines: by str.splitlines
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not UTF-8 text ({exc.reason}) in {path}", line_no) from None


def _load_windows(events_path, poses_path, sensor_w, sensor_h):
    events = parse_events(_read_text(events_path), sensor_w, sensor_h)
    poses = parse_poses(_read_text(poses_path))
    return window_events(events, poses)


def _load_split(data_dir, config):
    """Load a dataset directory and split its windows as a ``TrainConfig`` says.

    Returns (train windows, test windows, empty intervals skipped).
    """
    windows, skipped = _load_windows(
        os.path.join(data_dir, "events.txt"),
        os.path.join(data_dir, "groundtruth.txt"),
        config.model.input_w,
        config.model.input_h,
    )
    if config.split == "novel":
        train, test = split_novel(windows, config.split_fraction)
    else:
        train, test = split_random(windows, config.split_fraction, config.seed)
    return train, test, skipped


def _cmd_convert(args) -> int:
    windows, skipped = _load_windows(args.events, args.poses, args.width, args.height)
    os.makedirs(args.out, exist_ok=True)
    index_path = os.path.join(args.out, "index.csv")
    with open(index_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["sequence_index", "pgm", "n_events", "t", "px", "py", "pz", "qx", "qy", "qz", "qw"]
        )
        for window in windows:
            image = image_from_window(window, args.height, args.width, fraction=args.fraction)
            name = f"window_{window.sequence_index:06d}.pgm"
            write_pgm(image, os.path.join(args.out, name))
            label = window.label
            writer.writerow(
                [window.sequence_index, name, len(window.events), repr(label.t)]
                + [repr(v) for v in label.p.tolist()]
                + [repr(v) for v in label.q.tolist()]
            )
    print(f"wrote {len(windows)} event images to {args.out} ({skipped} empty intervals skipped)")
    return 0


def _cmd_synth(args) -> int:
    with open(args.config, "rb") as f:
        config = from_json(synth.SceneConfig, f.read())
    n_events, n_poses = (text.count("\n") for text in synth.write_dataset(config, args.out))
    print(f"wrote {n_events} events and {n_poses} poses to {args.out}")
    return 0


def _cmd_train(args) -> int:
    with open(args.config, "rb") as f:
        config = from_json(pipeline.TrainConfig, f.read())
    train_windows, test_windows, skipped = _load_split(args.data, config)
    print(
        f"{len(train_windows) + len(test_windows)} windows ({skipped} empty intervals skipped); "
        f"training on {len(train_windows)}, holding out {len(test_windows)}"
    )
    ckpt = pipeline.train(config, train_windows)
    pipeline.save_checkpoint(ckpt, args.out)
    print(
        f"trained {config.epochs} epochs: loss {ckpt.loss_history[0]:.4f} -> "
        f"{ckpt.loss_history[-1]:.4f}; checkpoint saved to {args.out}"
    )
    return 0


def _held_out(args):
    """The checkpoint and the test windows of the split its train config made."""
    with open(args.config, "rb") as f:
        config = from_json(pipeline.TrainConfig, f.read())
    ckpt = pipeline.load_checkpoint(args.ckpt)
    if ckpt.params.config != config.model:
        raise DataError(f"checkpoint {args.ckpt} holds a different model than {args.config}")
    _, test_windows, _ = _load_split(args.data, config)
    return ckpt, test_windows


def _write_json_and_csv(out, result):
    """Write ``result`` to ``<stem>.json`` and ``<stem>.csv``, the stem being
    ``out`` minus its extension; returns the two paths."""
    stem = os.path.splitext(out)[0]
    json_path, csv_path = stem + ".json", stem + ".csv"
    with open(json_path, "w", encoding="utf-8") as f:
        f.write(result.to_json() + "\n")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(result.to_csv())
    return json_path, csv_path


def _cmd_eval(args) -> int:
    ckpt, test_windows = _held_out(args)
    report = evaluation.evaluate(ckpt.params, test_windows)
    json_path, csv_path = _write_json_and_csv(args.out, report)
    print(
        f"median position {report.position.median:.4f} m, "
        f"median orientation {report.orientation.median:.4f} deg over "
        f"{report.position.n} windows; wrote {json_path} and {csv_path}"
    )
    return 0


def _cmd_robustness(args) -> int:
    ckpt, test_windows = _held_out(args)
    table = evaluation.robustness_experiment(ckpt.params, test_windows)
    json_path, csv_path = _write_json_and_csv(args.out, table)
    print(f"wrote {len(table.rows)} fraction rows to {json_path} and {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evpose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", parents=[], help="emit event images as PGM + index CSV")
    p.add_argument("--events", required=True, help="events text file")
    p.add_argument("--poses", required=True, help="groundtruth text file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fraction", type=_NEWEST_FRACTION, default=1.0, help="newest fraction of events per window")
    p.add_argument("--width", type=_PIXELS, default=240, help="sensor width in pixels")
    p.add_argument("--height", type=_PIXELS, default=180, help="sensor height in pixels")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("synth", help="generate a synthetic dataset from a scene config")
    p.add_argument("--config", required=True, help="scene config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True, help="directory with events.txt and groundtruth.txt")
    p.add_argument("--config", required=True, help="train config JSON")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=_cmd_train)

    for name, fn, summary, noun in (
        ("eval", _cmd_eval, "score a checkpoint on the test side of its train config's split", "report"),
        ("robustness", _cmd_robustness,
         "score a checkpoint as eval does on the newest tenth, two tenths, ..., all of each test window's events",
         "table"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--ckpt", required=True, help="checkpoint path")
        p.add_argument("--data", required=True, help="directory with events.txt and groundtruth.txt")
        p.add_argument("--config", required=True, help="the train config JSON the checkpoint was trained with")
        p.add_argument("--out", required=True,
                       help=f"write the {noun} to <stem>.json and <stem>.csv, <stem> being OUT minus its extension")
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shown = set()

    def show(message, *_):
        if str(message) not in shown:
            shown.add(str(message))
            print(f"evpose: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            return args.func(args)
        except (DataError, OSError) as exc:
            print(f"evpose: data error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            print(f"evpose: out of memory: {exc}", file=sys.stderr)
            return 2
        except NumericError as exc:
            print(f"evpose: numeric failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
