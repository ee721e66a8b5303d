"""Voice activity detection with multi-receptive-field gated attention.

The pipeline: WAV -> log-mel features -> per-branch gated affine units
over different context windows -> channel attention across branches ->
stacked Bi-LSTM -> per-frame speech probability. Training combines frame
cross-entropy with an attention-sharpening loss under clipped Adam.
"""

from .autodiff import Tensor, backward, no_grad, zero_grads
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    LabeledUtterance,
    MixSpec,
    label_frames,
    mix_noise,
    pad_silence,
    split_train_dev,
    synth_corpus,
)
from .frontend import FeatureSequence, FrontendConfig, Waveform, featurize
from .metrics import ConfusionCounts, EvalReport, confusion, dcf, evaluate, f1
from .model import (
    ModelConfig,
    MlnetParams,
    attention_forward,
    classifier_forward,
    init_params,
    mlnet_forward,
    non_attention_forward,
)
from .training import TrainConfig, TrainResult, adam_step, attention_loss, cross_entropy_loss, train
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "ConfusionCounts",
    "EvalReport",
    "FeatureSequence",
    "FrontendConfig",
    "LabeledUtterance",
    "MixSpec",
    "MlnetParams",
    "ModelConfig",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "Waveform",
    "adam_step",
    "attention_forward",
    "attention_loss",
    "backward",
    "classifier_forward",
    "confusion",
    "cross_entropy_loss",
    "dcf",
    "evaluate",
    "f1",
    "featurize",
    "init_params",
    "label_frames",
    "load_checkpoint",
    "mix_noise",
    "mlnet_forward",
    "no_grad",
    "non_attention_forward",
    "pad_silence",
    "read_wav",
    "save_checkpoint",
    "split_train_dev",
    "synth_corpus",
    "train",
    "write_wav",
    "zero_grads",
]
