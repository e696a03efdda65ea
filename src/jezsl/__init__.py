"""Joint image-text embeddings with a structure-preserving alignment loss,
plus a zero-shot classification and evaluation pipeline."""

__version__ = "0.1.0"

from .alignment import LossConfig, MiniBatch, alignment_loss
from .compat import (
    AttributeTable,
    LabeledEmbeddings,
    ZslConfig,
    infer_batch,
    load_model,
    save_model,
    train_compatibility,
)
from .data import Dataset, SynthConfig, generate, load_dataset, read_features, save_dataset, write_features
from .errors import DataError, JezslError, NumericalError
from .heads import EmbeddingHead, backward, forward, init_head, load_head, save_head
from .metrics import GzslReport, evaluate, harmonic_mean, per_class_accuracy
from .trainer import TrainConfig, TrainLog, TrainState, sgd_step, train_joint
