"""Training loop, configuration, and checkpoint serialization.

Training is momentum SGD on minibatches of ``batch_size`` windows (one by
default), each step taking the mean of the windows' gradients. It is fully
deterministic given the seed: epoch shuffles and per-sample dropout masks
all derive from one seeded generator.

Checkpoints (format version 2) are a one-line JSON ``_Header`` (format,
version, model config, parameter manifest, optimizer hyperparameters,
epoch, loss history; read strictly) followed by the raw little-endian
float64 parameter arrays in manifest order, then the velocity arrays in
the same order. The manifest stores each LSTM layer as fused ``w_x``,
``w_h`` and ``b`` gate tensors (version 1 stored twelve per-gate tensors
and is not readable). Each array is written from its own buffer and read
into its final array, with no whole-array copy in between. Files are
written to a temporary name and renamed into place, so a failed or
interrupted save leaves any previous checkpoint untouched.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import model as _model
from .config import from_dict
from .errors import CheckpointError, DataError, InsufficientDataError, NumericError
from .event_image import image_from_window
from .events import EventWindow
from .model import ModelConfig, ModelParams, param_manifest

_CHECKPOINT_FORMAT = "evpose-checkpoint"
_CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 1e-5
    momentum: float = 0.9
    weight_decay: float = 1e-6
    epochs: int = 200
    batch_size: int = 1
    seed: int = 0
    split: str = "random"
    split_fraction: float = 0.7

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.lr >= 0.0 and self.weight_decay >= 0.0):
            raise ValueError(f"lr and weight_decay must be >= 0, got {self.lr} and {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.split not in ("random", "novel"):
            raise ValueError(f"split must be 'random' or 'novel', got {self.split!r}")


@dataclass(eq=False)
class Checkpoint:
    params: ModelParams
    opt_state: ad.OptState
    epoch: int
    loss_history: list[float]


def train(config: TrainConfig, windows: Sequence[EventWindow]) -> Checkpoint:
    """Train from scratch on the given windows; returns the final checkpoint.

    Per epoch the windows are shuffled and cut into consecutive slices of
    ``batch_size`` (the last one may be shorter). Each window of a slice
    runs the forward pass with its own dropout seed, the
    position+quaternion loss and backprop; then one momentum-SGD step
    applies the slice's mean gradient.
    """
    if len(windows) == 0:
        raise InsufficientDataError("train: no training windows")
    cfg = config.model
    params = _model.init_params(cfg, seed=config.seed)
    tensors = params.ordered()
    opt = ad.make_opt_state(tensors, config.lr, config.momentum, config.weight_decay)
    rng = np.random.default_rng(config.seed)

    images = [image_from_window(w, cfg.input_h, cfg.input_w) for w in windows]
    labels = [w.label for w in windows]

    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(windows)).tolist()
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            grads = []
            for idx in order[start : start + config.batch_size]:
                drop_seed = int(rng.integers(0, 2**63))
                out = _model.forward(images[idx], params, drop_seed)
                try:
                    loss = _model.pose_loss(out, labels[idx])
                    value = float(loss.data)
                    if not math.isfinite(value):
                        raise NumericError("non-finite loss")
                except NumericError as exc:
                    raise NumericError(f"{exc} at epoch {epoch + 1}, window index {idx}") from None
                total += value
                grads.append(ad.backward(loss, params=tensors))
            ad.sgd_step(tensors, _mean_gradient(grads), opt)
        history.append(total / len(order))
    return Checkpoint(params, opt, config.epochs, history)


def _mean_gradient(grads: list[dict]) -> dict:
    """The mean of per-sample gradient maps. A single map is returned as it
    is, so an ``Outer`` reaches ``sgd_step`` unexpanded; several are summed
    into a dense copy of the first, in sample order, then divided."""
    if len(grads) == 1:
        return grads[0]
    mean = {t: np.array(g) for t, g in grads[0].items()}
    for sample in grads[1:]:
        for t, g in sample.items():
            if isinstance(g, ad.Outer):  # no product-sized temporary
                for rows, block in g.blocks():
                    mean[t][rows] += block
            else:
                mean[t] += g
    for g in mean.values():
        g /= len(grads)
    return mean


@dataclass(frozen=True)
class _ParamEntry:
    name: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class _Optimizer:
    lr: float
    momentum: float
    weight_decay: float


@dataclass(frozen=True)
class _Header:
    format: str
    version: int
    model: ModelConfig
    params: tuple[_ParamEntry, ...]
    optimizer: _Optimizer
    epoch: int
    loss_history: tuple[float, ...]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    manifest = param_manifest(ckpt.params.config)
    opt = ckpt.opt_state
    header = _Header(
        format=_CHECKPOINT_FORMAT,
        version=_CHECKPOINT_VERSION,
        model=ckpt.params.config,
        params=tuple(_ParamEntry(name, shape) for name, shape in manifest),
        optimizer=_Optimizer(opt.lr, opt.momentum, opt.weight_decay),
        epoch=ckpt.epoch,
        loss_history=tuple(ckpt.loss_history),
    )
    arrays = [ckpt.params.tensors[name].data for name, _ in manifest]
    if len(opt.velocity) != len(manifest):
        raise CheckpointError(f"{len(opt.velocity)} velocities for {len(manifest)} parameters")
    for (name, shape), arr, vel in zip(manifest, arrays, opt.velocity):
        if arr.shape != shape or vel.shape != shape:
            raise CheckpointError(f"{name}: parameter {arr.shape}, velocity {vel.shape}, manifest {shape}")
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(asdict(header)).encode("utf-8") + b"\n")
            for arr in arrays + list(opt.velocity):
                f.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")))  # from its buffer, no copy
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the save failed before the rename
            os.remove(tmp)


def _parse_header(header) -> _Header:
    """Check the format and version, then read the rest strictly as a ``_Header``."""
    if not isinstance(header, dict) or header.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointError("not an evpose checkpoint")
    if header.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
    try:
        parsed = from_dict(_Header, header, "header")
    except DataError as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc}") from None
    if [(e.name, e.shape) for e in parsed.params] != param_manifest(parsed.model):
        raise CheckpointError("checkpoint manifest does not match its model config")
    return parsed


def load_checkpoint(path) -> Checkpoint:
    """Load a checkpoint; reloaded parameters reproduce predictions bit-exactly.

    Raises CheckpointError for a truncated, malformed or version-mismatched
    file.
    """
    with open(path, "rb") as f:
        header_line = f.readline()
        if not header_line.endswith(b"\n"):
            raise CheckpointError("truncated checkpoint header")
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from None
        parsed = _parse_header(header)
        manifest = param_manifest(parsed.model)
        # parameters, then velocities: checked before reading, so a header
        # cannot make the reader ask for more memory than the file holds
        declared = 2 * 8 * sum(math.prod(shape) for _, shape in manifest)
        held = os.fstat(f.fileno()).st_size - f.tell()
        if declared != held:
            raise CheckpointError(
                f"checkpoint header declares {declared} bytes of arrays, the file holds {held}"
            )

        def read_array(shape):
            arr = np.empty(shape, "<f8")
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError("checkpoint file ended inside its arrays")
            return arr

        tensors = {name: ad.Tensor(read_array(shape), requires_grad=True) for name, shape in manifest}
        velocity = [read_array(shape) for _, shape in manifest]
    return Checkpoint(
        params=ModelParams(parsed.model, tensors),
        opt_state=ad.OptState(velocity=velocity, **asdict(parsed.optimizer)),
        epoch=parsed.epoch,
        loss_history=list(parsed.loss_history),
    )
