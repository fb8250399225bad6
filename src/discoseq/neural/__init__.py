"""A small numpy transformer with structurally masked cross-attention."""

from .layers import masked_attention
from .model import (ModelConfig, forward, grad_check, init_parameters,
                    loss_and_grad)
from .training import TrainResult, TrainingDiverged, train
from .beam import Prediction, predict
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "masked_attention", "ModelConfig", "forward",
    "init_parameters", "loss_and_grad", "grad_check",
    "train", "TrainResult", "TrainingDiverged", "predict", "Prediction",
    "save_checkpoint", "load_checkpoint",
]
