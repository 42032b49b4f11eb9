"""Residual convolutional-LSTM autoencoder with latent-space analysis tools."""

from .errors import (
    BearError,
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
)
from .model import (
    BearConfig,
    decode,
    encode,
    forward,
    init_params,
    param_count,
    parameter_shapes,
)
from .latent import EmbeddingSet, elbow, kmeans, project2d
from .serialize import Checkpoint, load_checkpoint, save_checkpoint
from .tensor import ParameterSet, Tensor, grad_check, no_grad
from .train import Adam, EpochRecord, TrainConfig, bce_loss, early_stop, fit, mse_loss, plateau_decay

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BearConfig",
    "BearError",
    "Checkpoint",
    "ConfigError",
    "DataError",
    "EmbeddingSet",
    "EpochRecord",
    "FormatError",
    "NumericError",
    "ParameterSet",
    "ShapeError",
    "Tensor",
    "TrainConfig",
    "bce_loss",
    "decode",
    "early_stop",
    "elbow",
    "encode",
    "fit",
    "forward",
    "grad_check",
    "init_params",
    "kmeans",
    "load_checkpoint",
    "mse_loss",
    "no_grad",
    "param_count",
    "parameter_shapes",
    "plateau_decay",
    "project2d",
    "save_checkpoint",
    "__version__",
]
