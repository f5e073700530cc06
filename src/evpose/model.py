"""Pose-regression network: CNN features -> dropout -> spatial reshape ->
stacked LSTM -> fully connected heads, plus the position+quaternion loss.

The CNN ends in a fully connected layer of width F = S*S; that vector is
read row-major as S steps of S-dimensional LSTM inputs. Each LSTM layer is
one ``lstm_sequence`` node with fused gate weights ``w_x`` (in, 4H), ``w_h``
(H, 4H) and ``b`` (1, 4H), gate columns in i, f, o, g order. It consumes
the full hidden sequence of the previous layer, and the final hidden state
of the top layer feeds the head. The loss is the sum of the
Euclidean position error and the Euclidean distance between the raw
predicted quaternion and the unit groundtruth quaternion; the prediction
quaternion is normalized only at inference time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateOutputError, NumericError, ShapeError
from .event_image import EventImage
from .events import Poses


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``conv_blocks`` entries are (out_channels, kernel, stride, pool); each
    block is conv (zero-padded to keep dims at stride 1) -> maxpool -> relu,
    the same function as conv -> relu -> maxpool with ReLU on fewer elements.
    ``feature_dim`` must be a perfect square S*S; the LSTM runs over S steps
    of width S. Construction checks that sizes are >= 1, that pools tile
    and that the parameters fit in arrays: ``param_count()`` float64 values
    must take at most ``sys.maxsize`` bytes.
    """

    input_h: int = 64
    input_w: int = 64
    conv_blocks: tuple[tuple[int, int, int, int], ...] = ((8, 3, 1, 2), (16, 3, 1, 2))
    feature_dim: int = 256
    lstm_hidden: int = 64
    lstm_layers: int = 2
    fc_hidden: int = 128
    dropout_rate: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "conv_blocks", tuple(tuple(b) for b in self.conv_blocks))
        for name in ("input_h", "input_w", "feature_dim", "lstm_hidden", "lstm_layers", "fc_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for i, block in enumerate(self.conv_blocks):
            if min(block) < 1:
                raise ValueError(f"conv_blocks[{i}] entries must be >= 1, got {block}")
        s = math.isqrt(self.feature_dim)
        if s * s != self.feature_dim:
            raise ValueError(f"feature_dim must be a perfect square, got {self.feature_dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        count = self.param_count()
        if count * 8 > sys.maxsize:
            raise ValueError(f"{count} parameters take more than the {sys.maxsize} bytes an array can hold")

    @property
    def seq_len(self) -> int:
        """S: both the number of LSTM steps and their input width."""
        return math.isqrt(self.feature_dim)

    def conv_output_shape(self) -> tuple[int, int, int]:
        """(channels, h, w) after the conv/pool stack."""
        c, h, w = 1, self.input_h, self.input_w
        for out_ch, kernel, stride, pool in self.conv_blocks:
            pad = kernel // 2
            h = (h + 2 * pad - kernel) // stride + 1
            w = (w + 2 * pad - kernel) // stride + 1
            if pool > 1:
                if h % pool or w % pool:
                    raise ValueError(f"pool {pool} does not tile {h}x{w} feature map")
                h //= pool
                w //= pool
            c = out_ch
        return c, h, w

    def param_count(self) -> int:
        """The number of values ``param_manifest`` lists, computed without
        building it (so without a loop over LSTM layers)."""
        cin, count = 1, 0
        for cout, kernel, _stride, _pool in self.conv_blocks:
            count += cout * (cin * kernel * kernel + 1)
            cin = cout
        c, h, w = self.conv_output_shape()
        hidden, fc = self.lstm_hidden, self.fc_hidden
        count += (c * h * w + 1) * self.feature_dim
        count += 4 * hidden * (self.seq_len + hidden + 1 + (self.lstm_layers - 1) * (2 * hidden + 1))
        return count + (hidden + 1) * fc + (fc + 1) * 7


def toy_config() -> ModelConfig:
    """A minutes-free configuration for gradient checks: 8x8 input, F=16."""
    return ModelConfig(
        input_h=8,
        input_w=8,
        conv_blocks=((4, 3, 1, 2),),
        feature_dim=16,
        lstm_hidden=8,
        lstm_layers=2,
        fc_hidden=8,
        dropout_rate=0.5,
    )


def desk_config() -> ModelConfig:
    """The default desk-scale configuration (64x64 input, F=256)."""
    return ModelConfig()


@dataclass(eq=False)
class ModelParams:
    """Every learnable tensor, keyed by canonical name, with its config."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    def ordered(self) -> list[Tensor]:
        return [self.tensors[name] for name, _ in param_manifest(self.config)]


@dataclass(eq=False)
class PosePrediction:
    """Predicted position, raw quaternion head output, and its unit version."""

    p_hat: np.ndarray
    q_hat_raw: np.ndarray
    q_hat: np.ndarray


def param_manifest(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list defining parameter and checkpoint order."""
    manifest: list[tuple[str, tuple[int, ...]]] = []
    cin = 1
    for i, (cout, kernel, _stride, _pool) in enumerate(config.conv_blocks):
        manifest.append((f"conv{i}.w", (cout, cin, kernel, kernel)))
        manifest.append((f"conv{i}.b", (cout,)))
        cin = cout
    c, h, w = config.conv_output_shape()
    manifest.append(("feat.w", (c * h * w, config.feature_dim)))
    manifest.append(("feat.b", (1, config.feature_dim)))
    hidden = config.lstm_hidden
    for layer in range(config.lstm_layers):
        in_dim = config.seq_len if layer == 0 else hidden
        manifest.append((f"lstm{layer}.w_x", (in_dim, 4 * hidden)))
        manifest.append((f"lstm{layer}.w_h", (hidden, 4 * hidden)))
        manifest.append((f"lstm{layer}.b", (1, 4 * hidden)))
    manifest.append(("head.fc1.w", (config.lstm_hidden, config.fc_hidden)))
    manifest.append(("head.fc1.b", (1, config.fc_hidden)))
    manifest.append(("head.out.w", (config.fc_hidden, 7)))
    manifest.append(("head.out.b", (1, 7)))
    return manifest


def _fans(name: str, shape: tuple[int, ...]) -> tuple[int, int]:
    if name.startswith("conv"):
        cout, cin, kh, kw = shape
        return cin * kh * kw, cout * kh * kw
    if name.startswith("lstm"):
        return shape[0], shape[1] // 4  # the Glorot bound of one (in, H) gate block
    return shape[0], shape[1]


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Glorot-uniform weights (a = sqrt(6 / (fan_in + fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in param_manifest(config):
        if name.endswith(".b"):
            tensors[name] = ad.parameter(np.zeros(shape))
        else:
            a = math.sqrt(6.0 / sum(_fans(name, shape)))
            tensors[name] = ad.parameter(rng.uniform(-a, a, size=shape))
    return ModelParams(config, tensors)


def cnn_forward(image: EventImage, params: ModelParams, dropout_seed: int | None = None) -> Tensor:
    """Conv/pool/relu blocks, flatten, FC to width F, dropout if given a seed.

    Pooling before ReLU gives the relu-then-pool bytes, parameter gradients
    included: ReLU is monotone, and a window with no positive value gives
    +0.0 either way.
    """
    cfg = params.config
    if image.pixels.shape != (cfg.input_h, cfg.input_w):
        raise ShapeError(
            f"image of shape {image.pixels.shape} does not match configured input "
            f"{cfg.input_h}x{cfg.input_w}"
        )
    t = ad.tensor(image.pixels.reshape(1, cfg.input_h, cfg.input_w))
    for i, (_cout, kernel, stride, pool) in enumerate(cfg.conv_blocks):
        t = ad.conv2d(
            t,
            params.tensors[f"conv{i}.w"],
            params.tensors[f"conv{i}.b"],
            stride=stride,
            padding=kernel // 2,
        )
        if pool > 1:
            t = ad.maxpool2d(t, pool)
        t = ad.relu(t)
    t = ad.reshape(t, (1, t.data.size))
    t = ad.add(ad.matmul(t, params.tensors["feat.w"]), params.tensors["feat.b"])
    return t if dropout_seed is None else ad.dropout(t, cfg.dropout_rate, dropout_seed)


def reshape_features(v: Tensor) -> Tensor:
    """Row-major view of a length-S*S vector as S inputs of width S: (S, S)."""
    n = v.data.size
    s = math.isqrt(n)
    if s * s != n:
        raise ShapeError(f"feature length {n} is not a perfect square")
    return ad.reshape(v, (s, s))


def stacked_lstm_forward(seq: Tensor, layers: Sequence[Sequence[Tensor]]) -> Tensor:
    """Run the layer stack over the rows of ``seq``; return the top layer's
    final h as (1, H).

    ``layers`` holds one (w_x, w_h, b) triple per layer. Layer 0 consumes
    ``seq``; every later layer consumes the full hidden sequence of the
    layer below. States start at zero.
    """
    if len(layers) == 0:
        raise ShapeError("stacked_lstm_forward: need at least one layer")
    hs = seq
    for w_x, w_h, b in layers:
        hs = ad.lstm_sequence(hs, w_x, w_h, b)
    s = hs.data.shape[0]
    return ad.slice_along(hs, axis=0, start=s - 1, stop=s)


def pose_head(h: Tensor, params: ModelParams) -> Tensor:
    """FC(relu) then linear FC to the 7-vector (p1, p2, p3, qx, qy, qz, qw)."""
    t = ad.relu(ad.add(ad.matmul(h, params.tensors["head.fc1.w"]), params.tensors["head.fc1.b"]))
    return ad.add(ad.matmul(t, params.tensors["head.out.w"]), params.tensors["head.out.b"])


def forward(image: EventImage, params: ModelParams, dropout_seed: int | None = None) -> Tensor:
    """Full network: CNN features -> reshape -> stacked LSTM -> head."""
    features = cnn_forward(image, params, dropout_seed)
    seq = reshape_features(features)
    t = params.tensors
    layers = [
        (t[f"lstm{i}.w_x"], t[f"lstm{i}.w_h"], t[f"lstm{i}.b"])
        for i in range(params.config.lstm_layers)
    ]
    h = stacked_lstm_forward(seq, layers)
    return pose_head(h, params)


def pose_loss(pred: Tensor, label: Poses) -> Tensor:
    """||p_hat - p||_2 + ||q_hat - q||_2 with the raw (unnormalized) q_hat."""
    if pred.data.shape != (1, 7):
        raise ShapeError(f"pose_loss expects a (1, 7) prediction, got {pred.data.shape}")
    if not np.all(np.isfinite(pred.data)):
        raise NumericError("non-finite prediction in pose_loss")
    if not (np.all(np.isfinite(label.p)) and np.all(np.isfinite(label.q))):
        raise NumericError("non-finite label in pose_loss")
    p_hat = ad.slice_along(pred, axis=1, start=0, stop=3)
    q_hat = ad.slice_along(pred, axis=1, start=3, stop=7)
    p = ad.tensor(label.p.reshape(1, 3))
    q = ad.tensor(label.q.reshape(1, 4))
    return ad.add(ad.l2norm(ad.sub(p_hat, p)), ad.l2norm(ad.sub(q_hat, q)))


def vector_norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a 1-D float64 vector, bit for bit: its
    dot product over contiguous memory, without its dispatch."""
    v = np.ascontiguousarray(v)
    return math.sqrt(v.dot(v))


def unit_quaternion(q_raw: np.ndarray) -> np.ndarray:
    """Scale a raw quaternion output to unit length.

    A quaternion so small that its squares are subnormal has a norm too
    coarse to scale it to unit length within 1e-6, the tolerance of
    ``evaluation.orientation_error``; it is degenerate like a zero one.
    """
    n = vector_norm(q_raw)
    if n == 0.0:
        raise DegenerateOutputError("network produced a zero-norm quaternion")
    if not math.isfinite(n):
        raise DegenerateOutputError("network produced a non-finite quaternion")
    q = q_raw / n
    if abs(vector_norm(q) - 1.0) > 1e-6:
        raise DegenerateOutputError(f"network produced a quaternion too small to normalize (norm {n!r})")
    return q


def predict(image: EventImage, params: ModelParams) -> PosePrediction:
    """Deterministic inference; the quaternion is normalized here only.

    Raises DegenerateOutputError for a non-finite position or a zero-norm,
    non-finite or too small quaternion. The network runs on constant views
    of the parameters' arrays, so no graph is recorded.
    """
    constants = {name: ad.tensor(t.data) for name, t in params.tensors.items()}
    out = forward(image, ModelParams(params.config, constants))
    vec = out.data[0]
    if not np.isfinite(vec[:3]).all():
        raise DegenerateOutputError("network produced a non-finite position")
    p_hat = vec[:3].copy()
    q_raw = vec[3:7].copy()
    return PosePrediction(p_hat, q_raw, unit_quaternion(q_raw))
