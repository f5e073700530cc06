"""Event-camera 6DOF pose relocalization.

Event streams are grouped into pose-labeled windows and painted into
ternary event images; a CNN + stacked spatial LSTM network regresses the
camera pose (position + quaternion), trained with momentum SGD on a
hand-rolled reverse-mode autodiff core. Includes a synthetic wireframe
dataset generator and the evaluation/robustness experiment harness.
"""

from . import autodiff, config, evaluation, event_image, events, model, pipeline, synth
from .errors import (
    BoundsError,
    CheckpointError,
    DataError,
    DegenerateOutputError,
    InsufficientDataError,
    InvalidRotationError,
    NumericError,
    OrderingError,
    ParseError,
    ShapeError,
)
from .evaluation import (
    ErrorSummary,
    EvalReport,
    RobustnessTable,
    evaluate,
    orientation_error,
    position_error,
    robustness_experiment,
    summarize,
)
from .event_image import EventImage, build_image, image_from_window, select_fraction, write_pgm
from .events import (
    EVENT_DTYPE,
    EventWindow,
    Poses,
    canonicalize_quaternion,
    format_events,
    format_poses,
    parse_events,
    parse_poses,
    split_novel,
    split_random,
    window_events,
)
from .model import (
    ModelConfig,
    ModelParams,
    PosePrediction,
    desk_config,
    init_params,
    pose_loss,
    predict,
    toy_config,
)
from .pipeline import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train
from .synth import SceneConfig, Trajectory, default_scene, generate_dataset

__version__ = "0.1.0"
