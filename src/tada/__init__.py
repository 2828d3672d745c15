"""Irregular time-series classification via attention onto a regular grid
followed by a hierarchical MLP mixer."""

import os

# One BLAS thread unless the caller chose otherwise, set before anything
# imports numpy: the matrices are small, so a second thread buys nothing in
# one process, and with training's shard worker on the second core it
# would make both processes slower (see shards.py).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .config import RunConfig, load_config
from .data import (IrregularSeries, Observation, SynthConfig, TimeStep,
                   build_value_mask, load_dataset, normalize_times,
                   parse_events, serialize_events, split_dataset,
                   synth_generate, write_dataset)
from .gradcheck import GradCheckReport, grad_check
from .metrics import accuracy, auprc, auroc
from .model import TadaModel
from .optim import Adam
from .tensor import Tensor
from .training import MetricsReport, TrainResult, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "GradCheckReport", "IrregularSeries", "MetricsReport",
    "Observation", "RunConfig", "SynthConfig", "TadaModel", "Tensor",
    "TimeStep", "TrainResult", "accuracy", "auprc", "auroc",
    "build_value_mask", "evaluate", "grad_check", "load_config",
    "load_dataset", "normalize_times", "parse_events", "serialize_events",
    "split_dataset", "synth_generate", "train", "write_dataset",
]
